"""Layers, their traced entry points, and what each should move.

Layers are named after ``repro`` modules.  :data:`BOUNDARIES` lists the
entry points the traced run wraps for each layer; a layer's self time is
the time inside its entry points minus the time inside any other wrapped
entry point they call.  Time in unwrapped glue called from the event
loop (harness closures, futures' callbacks) lands in ``runtime``.

:data:`MOVES` records, before any optimisation is attempted, which
end-to-end metric each layer metric should move and on which workload,
so a later change can cite the prediction it tests by name.  The
simulator is single-threaded: every wall second is on the blocking
path, so a layer's share of pipeline self time caps the
``tx_per_wall_s`` gain it can give (and an invariant's share of
``check_s`` caps the ``check_s`` gain).  Both wall metrics are gated in
their reference-second forms, ``tx_per_ref_s`` and ``check_ref_s``.
"""

from __future__ import annotations

BOUNDARIES = {
    "client": [
        ("repro.client.gateway", "Gateway.submit_async"),
        ("repro.client.gateway", "Gateway.assemble"),
        # The retry path's per-attempt endorse round (no public wrapper).
        ("repro.client.gateway", "Gateway._endorse_and_assemble"),
        ("repro.workload.retry", "submit_with_retry_async"),
        ("repro.runtime.endorse", "EndorsementCollector.start"),
        ("repro.runtime.endorse", "EndorsementCollector.on_result"),
    ],
    "peer.endorser": [
        ("repro.peer.node", "PeerNode.endorse"),
        ("repro.peer.endorser", "Endorser.process_proposal"),
    ],
    "orderer": [
        ("repro.orderer.service", "OrderingService.submit"),
        ("repro.orderer.service", "OrderingService.tick"),
        ("repro.orderer.service", "OrderingService.flush"),
        ("repro.orderer.raft", "RaftCluster.replicate_and_commit"),
    ],
    "orderer.reorder": [
        ("repro.orderer.reorder", "ReorderPipeline.process_batch"),
    ],
    "gossip": [
        ("repro.gossip.dissemination", "GossipNetwork.disseminate"),
        ("repro.gossip.dissemination", "GossipNetwork.broadcast_snapshot_sig"),
        ("repro.gossip.dissemination", "GossipNetwork.fetch_snapshot"),
        ("repro.gossip.anti_entropy", "AntiEntropyEngine.on_message"),
        ("repro.gossip.anti_entropy", "AntiEntropyEngine._tick"),
        ("repro.gossip.reconciler", "Reconciler.reconcile_all"),
        ("repro.gossip.reconciler", "Reconciler.reconcile_peer"),
        ("repro.peer.node", "PeerNode.receive_private_data"),
        ("repro.peer.node", "PeerNode.receive_private_batch"),
    ],
    "peer.validator": [
        ("repro.peer.validator", "Validator.validate_block"),
        ("repro.peer.validator", "Validator.signature_workload"),
    ],
    "peer.committer": [
        ("repro.peer.node", "PeerNode.deliver_block"),
        ("repro.peer.committer", "Committer.commit_block"),
    ],
    "ledger.snapshot": [
        ("repro.peer.node", "PeerNode.maybe_snapshot"),
        ("repro.peer.node", "PeerNode.receive_snapshot_sig"),
        ("repro.ledger.snapshot", "build_snapshot"),
        ("repro.ledger.snapshot", "verify_package"),
        ("repro.ledger.snapshot", "bootstrap_from_package"),
    ],
    "storage": [
        ("repro.storage.wal", "WalBackend.get"),
        ("repro.storage.wal", "WalBackend.range"),
        ("repro.storage.wal", "WalBackend.commit"),
        ("repro.storage.wal", "WalBackend.compact"),
        ("repro.storage.wal", "WalBackend.reopen"),
        ("repro.storage.memory", "MemoryBackend.get"),
        ("repro.storage.memory", "MemoryBackend.range"),
        ("repro.storage.memory", "MemoryBackend.commit"),
    ],
    "common.crypto": [
        ("repro.common.crypto", "PublicKey.verify"),
        ("repro.common.crypto", "PrivateKey.sign"),
        ("repro.common.crypto", "verify_batch"),
        ("repro.common.crypto", "sign_with_backend"),
    ],
    "common.serialization": [
        ("repro.common.serialization", "canonical_bytes"),
        ("repro.common.serialization", "from_canonical_bytes"),
    ],
    "runtime": [
        ("repro.runtime.scheduler", "EventScheduler.run"),
        ("repro.runtime.scheduler", "EventScheduler.run_until"),
        ("repro.runtime.bus", "MessageBus.send"),
        ("repro.runtime.runtime", "TransactionRuntime.catch_up"),
    ],
    "simulation.invariants": [
        ("repro.simulation.invariants", "run_quiescence_checks"),
        ("repro.simulation.invariants", "state_digest"),
        ("repro.simulation.invariants", "BlockBoundaryMonitor._on_commit"),
        ("repro.simulation.invariants", "RecoveryMonitor._on_crash"),
        ("repro.simulation.invariants", "RecoveryMonitor._on_restart"),
    ] + [
        ("repro.simulation.invariants", name) for name in (
            "check_hash_chains", "check_block_agreement",
            "check_reference_validation", "check_vscc_memo_agreement",
            "check_endorsement_plan", "check_policy_expectations",
            "check_pdc_privacy", "check_gossip_convergence",
            "check_liveness_accounting", "check_snapshot_equivalence",
            "check_reorder_soundness",
        )
    ],
}

#: ``simulation.invariants.<row>`` -> the check whose inclusive time it is.
CHECK_ROWS = {
    "reference_validation_s": "check_reference_validation",
    "vscc_memo_s": "check_vscc_memo_agreement",
    "reorder_soundness_s": "check_reorder_soundness",
    "snapshot_equivalence_s": "check_snapshot_equivalence",
    "gossip_convergence_s": "check_gossip_convergence",
}

#: (layer metrics, end-to-end metrics they should move, where).
MOVES = [
    (
        "common.crypto.*, common.serialization.*, peer.endorser.self_s, "
        "peer.validator.self_s, peer.committer.self_s, runtime.self_s",
        "tx_per_wall_s",
        "all workloads; largest share on tpcc-cold, where almost every op commits",
    ),
    (
        "simulation.invariants.*",
        "check_s",
        "most on pdc-faults; reorder_soundness_s only on tpcc-*",
    ),
    (
        "orderer.reorder.*, peer.validator.mvcc_abort_share, workload.*",
        "tx_per_sim_s, commit_p95_sim_s, goodput_sim_tps, failed_share",
        "tpcc-hot; prediction for tpcc-cold is no change",
    ),
    (
        "gossip.*, storage.*, ledger.snapshot.*",
        "tx_per_wall_s, check_s, peak_rss_mb",
        "pdc-faults; little work on tpcc-*",
    ),
    (
        "orderer.queue_wait_sim_s, orderer.txs_per_block",
        "commit_p50_sim_s",
        "tpcc-cold",
    ),
    (
        "peer.validator.commit_wait_sim_s",
        "commit_p95_sim_s",
        "tpcc-hot, through the validation-station queue during bursts",
    ),
    (
        "peer.endorser.endorse_sim_s, peer.endorser.plan_*",
        "commit_p50_sim_s, failed_share",
        "pdc-faults",
    ),
]
