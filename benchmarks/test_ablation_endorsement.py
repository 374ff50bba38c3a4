"""Ablation over the endorsement phase (the fan-out PR's tentpole).

Three modes, each adding one piece of the endorsement fast path:

* ``sequential``    — ``REPRO_ENDORSE_PLAN=0``: the legacy gateway
  endorses at every default endorser (one peer per org) one blocking
  call at a time, and every query re-simulates at the peer.
* ``fan-out``       — plan-based collection: the gateway computes the
  minimal satisfying endorser set from the chaincode policy (3 of the
  4 orgs under MAJORITY) and stops at the quorum, so each submit costs
  one fewer simulation + signature and the client verifies one fewer
  endorsement.
* ``fan-out+cache`` — plus the peer-side simulation cache: repeated
  read-only queries at the same state height are answered from the
  cached (response, endorsement) pair instead of re-simulating and
  re-signing.

The workload interleaves writes with a read-heavy query stream — per
round one ``create_asset`` submit and ``READS_PER_ROUND`` evaluates of
the same hot key — on a 4-org / 8-peer network with the MAJORITY
chaincode policy.  That mix is where endorsement dominates after PR 4
removed the validation bottleneck: every extra endorser and every
re-simulated query pays a 1536-bit signing exponentiation.

The endorsement-phase wall time comes from ``PERF.phase_seconds``
(``network.process_endorsement`` times the peer side, the gateway's
``_finalize_endorsement`` the client side).  Results land in the
rendered table and JSON under ``benchmarks/results/`` plus the
committed ``BENCH_endorsement.json`` at the repo root (the CI
artifact); the test itself gates fan-out+cache at ≥2x sequential.

Environment knobs:

* ``REPRO_BENCH_TX`` — submit rounds per mode (default 16; CI quick
  mode passes a smaller count).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.chaincode.contracts import AssetContract
from repro.common import crypto
from repro.common.env import RunConfig
from repro.common.tracing import PERF
from repro.identity.ca import reset_ca_instance_counter
from repro.identity.organization import Organization
from repro.network.channel import ChannelConfig
from repro.network.network import FabricNetwork
from repro.protocol.proposal import reset_nonce_counter

from _bench_utils import record

ORGS = 4
PEERS_PER_ORG = 2
BATCH_SIZE = 6
DEPTH = 24
READS_PER_ROUND = 24

#: mode -> (endorsement plan, simulation cache)
MODES: dict[str, tuple[bool, bool]] = {
    "sequential": (False, False),
    "fan-out": (True, False),
    "fan-out+cache": (True, True),
}


def _rounds(default: int = 16) -> int:
    return int(os.environ.get("REPRO_BENCH_TX", default))


def _network(run: RunConfig) -> FabricNetwork:
    reset_ca_instance_counter()
    reset_nonce_counter()
    organizations = [Organization(f"Org{i}MSP") for i in range(1, ORGS + 1)]
    channel = ChannelConfig(channel_id="endchan", organizations=organizations)
    channel.deploy_chaincode("assetcc", endorsement_policy="MAJORITY Endorsement")
    net = FabricNetwork(channel=channel, batch_size=BATCH_SIZE, run=run)
    for org in organizations:
        for n in range(PEERS_PER_ORG):
            net.add_peer(org.msp_id, f"peer{n}")
    net.install_chaincode("assetcc", AssetContract())
    return net


def _run_mode(mode: str, rounds: int) -> dict:
    plan, cache = MODES[mode]
    # Identities replay across modes (counters reset), so an earlier
    # mode's verification verdicts must not leak into the next — but the
    # fixed-base window tables stay warm: they are a shared one-time
    # substrate cost, not part of the endorsement ablation.
    crypto.clear_verify_cache()

    net = _network(RunConfig.from_env(endorse_plan=plan, endorse_cache=cache))
    runtime = net.attach_runtime(seed=0)
    client = net.client("Org1MSP")

    # The hot key every query round reads — committed before the clock
    # starts so no mode is billed for the warm-up write.
    client.submit_transaction("assetcc", "create_asset", ["hot", "1"]).raise_for_status()

    PERF.reset()
    pendings = []
    for i in range(rounds):
        pendings.append(
            client.submit_async("assetcc", "create_asset", [f"a{i:05d}", "1"])
        )
        for _ in range(READS_PER_ROUND):
            assert client.evaluate_transaction("assetcc", "read_asset", ["hot"]) == b"1"
        if runtime.in_flight() >= DEPTH:
            runtime.run()
    runtime.run()

    committed = sum(1 for p in pendings if p.done and p.result().committed)
    assert committed == rounds, f"{mode}: {committed}/{rounds} committed"
    heights = {peer.ledger.height for peer in net.peers()}
    assert len(heights) == 1, f"{mode}: peers diverged in height: {heights}"

    return {
        "mode": mode,
        "rounds": rounds,
        "reads": rounds * READS_PER_ROUND,
        "blocks": net.orderer.blocks_delivered,
        "endorse_s": round(PERF.phase_seconds.get("endorse", 0.0), 4),
        "proposals_sent": PERF.proposals_sent,
        "endorse_simulations": PERF.endorse_simulations,
        "endorse_signatures": PERF.endorse_signatures,
        "endorse_cache_hits": PERF.endorse_cache_hits,
        "plan_escalations": PERF.plan_escalations,
        "plan_timeouts": PERF.plan_timeouts,
    }


def test_endorsement_ablation(results_dir):
    rounds = _rounds()
    try:
        # Warm-up run: pay one-time costs (imports, key derivation,
        # fixed-base window tables) before any mode is billed for them.
        # Sequential mode touches all four orgs' keys, so every table a
        # later mode could want is hot.
        _run_mode("sequential", min(rounds, 4))

        rows = [_run_mode(mode, rounds) for mode in MODES]
    finally:
        crypto.clear_caches()

    by_mode = {row["mode"]: row for row in rows}
    sequential_s = by_mode["sequential"]["endorse_s"]
    for row in rows:
        row["speedup_vs_sequential"] = (
            round(sequential_s / row["endorse_s"], 2) if row["endorse_s"] else 0.0
        )

    # Sanity: each mode did what it claims.
    majority = ORGS // 2 + 1
    assert by_mode["sequential"]["endorse_cache_hits"] == 0
    assert by_mode["sequential"]["proposals_sent"] == ORGS * rounds
    assert by_mode["fan-out"]["proposals_sent"] == majority * rounds
    assert by_mode["fan-out"]["plan_escalations"] == 0  # no failures to escalate past
    assert by_mode["fan-out"]["endorse_cache_hits"] == 0
    assert by_mode["fan-out+cache"]["endorse_cache_hits"] > 0
    # The cache only ever skips work, never changes how much is endorsed.
    assert (
        by_mode["fan-out+cache"]["proposals_sent"]
        == by_mode["fan-out"]["proposals_sent"]
    )

    # The CI gates: the plan alone must never cost endorsement throughput,
    # and the acceptance criterion is ≥2x with the cache on this workload.
    assert by_mode["fan-out"]["endorse_s"] <= sequential_s * 1.10, (
        f"fan-out endorsement ({by_mode['fan-out']['endorse_s']}s) is more than "
        f"10% slower than sequential ({sequential_s}s)"
    )
    cached_row = by_mode["fan-out+cache"]
    assert cached_row["speedup_vs_sequential"] >= 2.0, (
        f"fan-out+cache speedup {cached_row['speedup_vs_sequential']}x < 2x "
        f"(sequential {sequential_s}s vs {cached_row['endorse_s']}s)"
    )

    lines = [
        "Ablation — endorsement phase (4 orgs x 2 peers, MAJORITY, "
        f"{READS_PER_ROUND} reads/round)",
        f"{'mode':>15} {'rounds':>7} {'reads':>6} {'endorse s':>10} {'speedup':>8} "
        f"{'proposals':>10} {'simulated':>10} {'signed':>7} {'cached':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row['mode']:>15} {row['rounds']:>7} {row['reads']:>6} "
            f"{row['endorse_s']:>10.4f} {row['speedup_vs_sequential']:>7.2f}x "
            f"{row['proposals_sent']:>10} {row['endorse_simulations']:>10} "
            f"{row['endorse_signatures']:>7} {row['endorse_cache_hits']:>7}"
        )
    record(results_dir, "ablation_endorsement", "\n".join(lines))

    payload = {
        "workload": {
            "orgs": ORGS,
            "peers_per_org": PEERS_PER_ORG,
            "batch_size": BATCH_SIZE,
            "rounds": rounds,
            "reads_per_round": READS_PER_ROUND,
            "policy": "MAJORITY Endorsement",
        },
        "rows": rows,
        "speedup_fan_out_cache_vs_sequential": cached_row["speedup_vs_sequential"],
    }
    (results_dir / "ablation_endorsement.json").write_text(json.dumps(payload, indent=1))
    repo_root = Path(__file__).resolve().parent.parent
    (repo_root / "BENCH_endorsement.json").write_text(json.dumps(payload, indent=1) + "\n")
