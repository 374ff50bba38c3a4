"""One benchmark run in a fresh process: ``child.py REQUEST RESULT``.

``REQUEST`` is a JSON file ``{"workload", "seed", "mode"}``; the result
is written as JSON to ``RESULT``.  Modes:

* ``setup`` — generate the inputs and build the network, stop at the
  moment the first op is due, report the set-up time;
* ``run`` — the untraced run every end-to-end metric comes from;
* ``traced`` — the same run with the layer entry points wrapped
  (:mod:`spans`), reporting per-layer metrics and writing the Chrome
  trace next to ``RESULT``.

The parent starts each run with every ``REPRO_*`` variable removed, so
the toggles come from the workload's config alone and no process-global
cache, window table or ``PERF`` counter carries over between runs.
Wall times are reported as measured and in reference seconds
(:class:`Calibrator`).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

from layers import BOUNDARIES, CHECK_ROWS
from stats import OpRecord, failed_share, goodput, percentile
from workloads import WORKLOADS, build_inputs


#: Wall seconds a reference machine takes for one calibration slice.
REFERENCE_SLICE_S = 0.02
#: Wall seconds between calibration slices while a run is measured.
CALIBRATE_EVERY_S = 0.5
_MODULUS = (1 << 2048) - 159


def _calibration_slice() -> None:
    """A fixed mix of the simulator's hot operations: hashing, JSON
    encoding, dict updates and big-integer modular exponentiation."""
    table = {}
    for i in range(150):
        digest = hashlib.sha256(i.to_bytes(4, "big")).digest()
        table[digest[:4]] = json.dumps({"i": i, "d": digest.hex()})
    for base in (3, 5):
        pow(base, (_MODULUS >> 1536) - 3, _MODULUS)


class Calibrator:
    """Samples the machine's speed all through a run.

    A SIGALRM timer runs the calibration slice every
    :data:`CALIBRATE_EVERY_S` of wall time, wherever the run is, and
    files its duration under the current phase.  A phase's wall time
    less its slices, scaled by :data:`REFERENCE_SLICE_S` over the phase's
    mean slice time, is that phase in reference seconds: the same work
    reads the same whether or not neighbours on a shared machine slowed
    it.  The mean, not the median, because every slow interval slowed
    the run in proportion to its length.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.slices: dict = {}  # phase -> [wall seconds per slice]

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            started = time.perf_counter()
            _calibration_slice()
            self.slices.setdefault(self.phase, []).append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def spent(self, phase: str) -> float:
        """Wall seconds spent inside slices during ``phase``."""
        return sum(self.slices.get(phase, ()))

    def scale(self, phase: str) -> float:
        """Reference seconds per wall second during ``phase``."""
        times = self.slices.get(phase) or self.slices["setup"]
        return REFERENCE_SLICE_S * len(times) / sum(times)


class _SetupDone(Exception):
    """Raised at the first op's due time in ``setup`` mode."""


class Probe:
    """Wall-clock phase marks and simulated-time event stamps.

    The end-to-end metrics use only what every run needs: the wall
    clock around the harness's two public hooks (``build_network`` and
    ``run_quiescence_checks``) and the peers' public ``on_commit``
    listener.  ``timeline`` adds the sim-time stamps the per-layer
    waits need (proposal created, envelope enqueued, block cut); it is
    switched on for traced runs only.
    """

    def __init__(self, harness, perf, calibrator, tracer=None,
                 stop_at_first_op=False, timeline=False):
        self.harness = harness
        self.perf = perf
        self.calibrator = calibrator
        self.tracer = tracer
        self.stop_at_first_op = stop_at_first_op
        self.timeline = timeline
        self.sim = None
        self.first_op_at = None  # wall clock when the first op fell due
        self.check_s = 0.0
        self.perf_at_start: dict = {}
        self.perf_at_check: dict = {}
        self.runtime_at_check: dict = {}
        self.tx_block: dict = {}       # tx id -> block number
        self.block_commits: dict = {}  # block number -> [sim commit times]
        self.cut_at: dict = {}         # block number -> sim time cut
        self.block_txs: dict = {}      # block number -> tx count
        self.enqueued_at: dict = {}    # tx id -> sim time at the orderer
        self.proposals: list = []      # (sim time created, proposal)

    def _set_phase(self, phase: str) -> None:
        self.calibrator.phase = phase
        if self.tracer is not None:
            self.tracer.phase = phase

    def install(self) -> None:
        harness = self.harness
        build_network = harness.build_network
        run_checks = harness.run_quiescence_checks

        def probed_build_network(config):
            sim = build_network(config)
            self._attach(sim)
            return sim

        def probed_checks(sim, outcomes):
            runtime = sim.network.runtime
            self.perf_at_check = self.perf.snapshot()
            self.runtime_at_check = {
                "events": runtime.scheduler.events_processed,
                "messages": runtime.bus.messages_sent,
                "topics": dict(runtime.bus.topic_counts),
            }
            self._set_phase("check")
            started = time.perf_counter()
            try:
                return run_checks(sim, outcomes)
            finally:
                self.check_s += time.perf_counter() - started
                self._set_phase("pipeline")

        harness.build_network = probed_build_network
        harness.run_quiescence_checks = probed_checks
        if self.timeline:
            self._install_timeline()

    def _install_timeline(self) -> None:
        from repro.orderer.service import OrderingService
        from repro.protocol import proposal as proposal_mod

        submit = OrderingService.submit

        def probed_submit(orderer, envelope):
            self.enqueued_at.setdefault(envelope.tx_id, self._now())
            return submit(orderer, envelope)

        OrderingService.submit = probed_submit
        new_proposal = proposal_mod.new_proposal

        def probed_new_proposal(*args, **kwargs):
            proposal = new_proposal(*args, **kwargs)
            # Its tx id is a derived property: read it after the run.
            self.proposals.append((self._now(), proposal))
            return proposal

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, "new_proposal", None) is new_proposal:
                module.new_proposal = probed_new_proposal

    def _now(self) -> float:
        return self.sim.network.runtime.now

    def _attach(self, sim) -> None:
        self.sim = sim
        runtime = sim.network.runtime
        run = runtime.run

        def probed_run(*args, **kwargs):
            if self.first_op_at is None:
                self.first_op_at = time.perf_counter()
                if self.stop_at_first_op:
                    raise _SetupDone
                self.perf_at_start = self.perf.snapshot()
                self._set_phase("pipeline")
            return run(*args, **kwargs)

        runtime.run = probed_run
        for peer in sim.all_peers():
            peer.on_commit(self._on_commit)
        if self.timeline:
            sim.network.orderer.register_delivery(self._on_cut, replay=False)

    def _on_commit(self, peer, validated) -> None:
        number = validated.block.header.number
        self.block_commits.setdefault(number, []).append(self._now())
        for tx in validated.block.transactions:
            self.tx_block[tx.tx_id] = number

    def _on_cut(self, block) -> None:
        self.cut_at[block.header.number] = self._now()
        self.block_txs[block.header.number] = len(block.transactions)

    def committed_at(self, tx_id: str) -> float:
        """Sim time by which every peer that took the tx's block committed it."""
        return max(self.block_commits[self.tx_block[tx_id]])


def op_records(report, probe) -> list:
    """One :class:`OpRecord` per generated op, aligned with ``outcomes``."""
    from repro.protocol.transaction import ValidationCode

    records = []
    for outcome in report.outcomes:
        committed = outcome.status == ValidationCode.VALID
        latency = probe.committed_at(outcome.tx_id) - outcome.spec.at if committed else None
        records.append(OpRecord(outcome.spec.is_attack, committed, latency))
    return records


def sim_metrics(report, records: list, limit: float) -> dict:
    """The end-to-end metrics in simulated time; deterministic per seed."""
    honest_ops = [(o, r) for o, r in zip(report.outcomes, records) if not r.is_attack]
    latencies = [r.latency for _, r in honest_ops if r.committed]
    # Rates are taken over the window in which ops fall due: commits
    # after the last op is due are stragglers, and counting them would
    # let one slow tail op stretch the denominator of the whole run.
    first_due = min(o.spec.at for o, _ in honest_ops)
    last_due = max(o.spec.at for o, _ in honest_ops)
    window = last_due - first_due
    in_window = [
        r for o, r in honest_ops if r.committed and o.spec.at + r.latency <= last_due
    ]
    p50, _ = percentile(latencies, 50)
    p95, beyond = percentile(latencies, 95)
    return {
        "attempted": len(honest_ops),
        "committed": len(latencies),
        "commit_beyond_p95": beyond,
        "sim_window_s": window,
        "tx_per_sim_s": len(in_window) / window,
        "commit_p50_sim_s": p50,
        "commit_p95_sim_s": p95,
        "goodput_sim_tps": goodput(in_window, limit, window),
        "failed_share": failed_share(records),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


#: Per-layer metrics counted from spans: a layer with a missing
#: boundary loses these along with its self time.
_SPAN_COUNTS = {
    "peer.validator": ("blocks",),
    "storage": ("commits",),
    "common.crypto": ("signatures",),
    "common.serialization": ("calls",),
    "gossip": ("msgs_per_private_write", "bytes_per_private_write"),
}


def layer_metrics(report, records: list, probe, tracer, wal_bytes: int) -> dict:
    """Per-layer counts, sim-time waits and self times of a traced run.

    Counters cover the pipeline phase only (from the first op to the
    quiescence checks), so work the checks redo is not charged to the
    layers; the checks have their own rows.
    """
    from repro.common.tracing import PerfCounters
    from repro.runtime.runtime import GOSSIP_TOPICS

    stats = report.stats
    perf = PerfCounters()
    perf.merge({
        key: value - probe.perf_at_start.get(key, 0)
        for key, value in probe.perf_at_check.items()
    })
    calls = tracer.call_counts("pipeline")
    validated = stats["valid"] + stats["invalid"]
    topics = probe.runtime_at_check["topics"]
    gossip_msgs = sum(topics.get(topic, 0) for topic in GOSSIP_TOPICS)
    private_writes = calls["GossipNetwork.disseminate"]
    born = {proposal.tx_id: at for at, proposal in probe.proposals}
    committed = [
        o for o, r in zip(report.outcomes, records) if r.committed and not r.is_attack
    ]
    metrics = {
        "client.retry_wait_sim_s": _mean([born[o.tx_id] - o.spec.at for o in committed]),
        "workload.retries_per_op": stats["retries"] / len(report.outcomes),
        "workload.mempool_drops": stats["mempool_drops"],
        "workload.retry_exhausted": stats["retry_exhausted"],
        "workload.failed_share": failed_share(records),
        "peer.endorser.calls": perf.proposals_sent,
        "peer.endorser.simulations": perf.endorse_simulations,
        "peer.endorser.cache_hit_share": _share(
            perf.endorse_cache_hits, perf.endorse_cache_hits + perf.endorse_simulations
        ),
        "peer.endorser.plan_escalations": perf.plan_escalations,
        "peer.endorser.plan_failures": perf.plan_failures,
        "peer.endorser.endorse_sim_s": _mean([
            at - born[tx] for tx, at in probe.enqueued_at.items() if tx in born
        ]),
        "orderer.blocks": stats["blocks"],
        "orderer.txs_per_block": _share(sum(probe.block_txs.values()), len(probe.block_txs)),
        "orderer.queue_wait_sim_s": _mean([
            probe.cut_at[probe.tx_block[tx]] - at
            for tx, at in probe.enqueued_at.items()
            if probe.tx_block.get(tx) in probe.cut_at
        ]),
        "orderer.reorder.early_aborts": stats["early_aborts"],
        "orderer.reorder.displaced": stats["reorder_displaced"],
        "gossip.msgs_per_private_write": _share(gossip_msgs, private_writes),
        "gossip.bytes_per_private_write": _share(perf.gossip_bytes, private_writes),
        "gossip.reconcile_pulls": stats["gossip_reconcile_pulls"],
        "gossip.digest_rounds": stats["gossip_digest_rounds"],
        "peer.validator.blocks": calls["Validator.validate_block"],
        "peer.validator.valid_share": _share(stats["valid"], validated),
        "peer.validator.mvcc_abort_share": _share(stats["mvcc_aborts"], validated),
        "peer.validator.vscc_memo_hit_share": _share(
            perf.vscc_memo_hits, perf.vscc_memo_hits + perf.vscc_memo_misses
        ),
        "peer.validator.commit_wait_sim_s": _mean([
            max(times) - probe.cut_at[number]
            for number, times in probe.block_commits.items() if number in probe.cut_at
        ]),
        "ledger.snapshot.sealed": stats["snapshots_sealed"],
        "storage.commits": calls["WalBackend.commit"] + calls["MemoryBackend.commit"],
        "storage.wal_bytes": wal_bytes,
        "common.crypto.signatures": calls["PrivateKey.sign"],
        "common.crypto.verifications": perf.verifications,
        "common.crypto.verify_cache_hit_share": _share(perf.verify_cache_hits, perf.verifications),
        "common.crypto.batch_share": _share(perf.verify_batched, perf.verifications),
        "common.crypto.modexps": perf.modexps,
        "common.crypto.table_builds": perf.table_builds,
        "common.serialization.calls": calls["canonical_bytes"] + calls["from_canonical_bytes"],
        "runtime.events": probe.runtime_at_check["events"],
        "runtime.messages": probe.runtime_at_check["messages"],
        "runtime.dropped": stats["dropped"] + stats["crash_drops"],
    }
    # Pipeline layers are charged their pipeline-phase self time; the
    # invariants also run during the pipeline (block-boundary and
    # recovery monitors), so theirs covers both phases.
    pipeline_self = tracer.layer_self_seconds("pipeline")
    check_self = tracer.layer_self_seconds("check")
    for layer in BOUNDARIES:
        metrics[f"{layer}.self_s"] = pipeline_self.get(layer, 0.0)
    metrics["simulation.invariants.self_s"] += check_self.get("simulation.invariants", 0.0)
    for row, check in CHECK_ROWS.items():
        metrics[f"simulation.invariants.{row}"] = tracer.inclusive_seconds(check)
    # A layer with a boundary that no longer exists reports nothing
    # rather than an undercount.
    for layer in tracer.missing_layers():
        metrics.pop(f"{layer}.self_s", None)
        for name in _SPAN_COUNTS.get(layer, ()):
            metrics.pop(f"{layer}.{name}", None)
        if layer == "simulation.invariants":
            for row in CHECK_ROWS:
                metrics.pop(f"simulation.invariants.{row}", None)
    return metrics


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(request: dict, result_path: Path) -> dict:
    from repro.common.tracing import PERF
    from repro.simulation import harness

    name, seed, mode = request["workload"], request["seed"], request["mode"]
    tracer = None
    if mode == "traced":
        from spans import SpanTracer

        tracer = SpanTracer()
        tracer.install(BOUNDARIES)
    calibrator = Calibrator()
    probe = Probe(harness, PERF, calibrator, tracer=tracer,
                  stop_at_first_op=mode == "setup", timeline=mode == "traced")
    probe.install()

    # A few slices before the clock starts, because set-up is shorter
    # than the timer period.  Traced runs take no slices while measured:
    # they would land inside whichever span was open.
    calibrator.sample(8)
    before = calibrator.spent("setup")
    if mode != "traced":
        calibrator.start()
    started = time.perf_counter()
    config, ops, faults = build_inputs(name, seed)
    try:
        report = harness.execute(config, ops, faults)
    except _SetupDone:
        calibrator.stop()
        setup_wall = (probe.first_op_at - started) - (calibrator.spent("setup") - before)
        calibrator.sample(8)
        return {
            "config": config.to_wire(),
            "setup_wall_s": setup_wall,
            "setup_ref_s": setup_wall * calibrator.scale("setup"),
        }
    finished = time.perf_counter()
    calibrator.stop()
    setup_wall = (probe.first_op_at - started) - (calibrator.spent("setup") - before)
    pipeline_wall = (finished - probe.first_op_at) - probe.check_s - calibrator.spent("pipeline")
    check_wall = probe.check_s - calibrator.spent("check")
    unknown = {a.dst for a in faults if a.dst and a.dst != "orderer"} - set(probe.sim.peers)
    if unknown:
        raise RuntimeError(f"fault schedule names unknown peers {sorted(unknown)}")

    records = op_records(report, probe)
    result = {
        "config": config.to_wire(),
        "setup_wall_s": setup_wall,
        "setup_ref_s": setup_wall * calibrator.scale("setup"),
        "pipeline_wall_s": pipeline_wall,
        "pipeline_ref_s": pipeline_wall * calibrator.scale("pipeline"),
        "check_wall_s": check_wall,
        "check_ref_s": check_wall * calibrator.scale("check"),
        "calibration_slices": {k: len(v) for k, v in calibrator.slices.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "violations": [str(v) for v in report.violations],
        "state_digest": report.stats["state_digest"],
        "sim": sim_metrics(report, records, WORKLOADS[name].latency_limit),
    }
    if tracer is not None:
        wal_bytes = _dir_bytes(Path(os.environ.get("TMPDIR", ".")))
        result["layers"] = layer_metrics(report, records, probe, tracer, wal_bytes)
        result["missing_boundaries"] = [target for _, target in tracer.missing]
        trace_path = result_path.with_suffix(".trace.json")
        result["trace_file"] = str(trace_path)
        result["trace_spans"] = len(tracer.spans)
        result["trace_spans_written"] = tracer.export_chrome(trace_path)
    return result


def main(argv: list) -> int:
    request = json.loads(Path(argv[1]).read_text())
    result_path = Path(argv[2])
    result_path.write_text(json.dumps(run(request, result_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
