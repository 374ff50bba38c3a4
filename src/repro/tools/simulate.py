"""Deterministic simulation sweep: ``python -m repro.tools.simulate``.

Runs ``--seeds`` randomized simulations of ``--ops`` operations each and
checks every global invariant at block boundaries and quiescence.  On a
failure the trace is greedily shrunk (ddmin) to a minimal still-failing
trace, written as a JSON trace plus a standalone repro script.

Examples::

    python -m repro.tools.simulate --seeds 25 --ops 500
    python -m repro.tools.simulate --seeds 5 --ops 100 \\
        --weaken skip-endorsement-policy --trace-dir /tmp/traces
    python -m repro.tools.simulate --replay /tmp/traces/trace-seed3.json
    python -m repro.tools.simulate --seeds 6 --ops 120 --diff executor=process:2

``--diff FIELD=VALUE`` runs each seed twice, as configured and with one
recorded run switch changed, and fails on any byte-level divergence
between the two histories (see :func:`~repro.simulation.harness.run_differential`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from repro.common.env import RunConfig, parse_value
from repro.common.errors import ConfigError
from repro.simulation.config import RUN_FIELDS, SimulationConfig
from repro.storage import BACKEND_KINDS
from repro.simulation.harness import (
    WEAKENERS,
    execute,
    generate,
    run_differential,
)
from repro.simulation.shrink import (
    load_trace,
    render_repro_script,
    shrink_failing_run,
)


def _switch(name: str):
    """argparse type: a value of run switch ``name``, parsed and checked
    exactly like its ``REPRO_*`` variable."""

    def parse(raw: str):
        try:
            return getattr(RunConfig(**{name: parse_value(name, raw)}), name)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


def _assignment(text: str) -> tuple:
    """argparse type: ``FIELD=VALUE`` for one recorded run switch."""
    name, sep, raw = text.partition("=")
    if not sep or name not in RUN_FIELDS:
        raise argparse.ArgumentTypeError(
            f"expected FIELD=VALUE with FIELD one of {', '.join(RUN_FIELDS)}, "
            f"got {text!r}"
        )
    return name, _switch(name)(raw)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.simulate",
        description="randomized workload + fault simulation with invariant checks",
    )
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds to sweep (default 10)")
    parser.add_argument("--ops", type=int, default=200,
                        help="operations per seed (default 200)")
    parser.add_argument("--seed-base", type=int, default=1,
                        help="first seed of the sweep (default 1)")
    parser.add_argument("--weaken", choices=sorted(WEAKENERS), default=None,
                        help="deliberately sabotage the system under test "
                             "(the invariants must then fail)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without minimizing them")
    parser.add_argument("--shrink-budget", type=int, default=120,
                        help="max replays the shrinker may spend per failure")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="where to write failing traces/repro scripts "
                             "(default: current directory)")
    parser.add_argument("--replay", type=Path, default=None,
                        help="replay a saved JSON trace instead of sweeping")
    parser.add_argument("--backend", choices=list(BACKEND_KINDS), default=None,
                        help="peer-ledger storage engine (default: the "
                             "REPRO_STATE_BACKEND env var, else memory)")
    parser.add_argument("--executor", type=_switch("executor"), default=None,
                        help="execution backend spec, e.g. serial or process:4 "
                             "(default: the REPRO_EXECUTOR env var, else serial)")
    parser.add_argument("--snapshot-every", type=_switch("snapshot_every"),
                        default=None,
                        help="peer snapshot checkpoint cadence in blocks; "
                             "enables the snapshot-equivalence invariant "
                             "(default: the REPRO_SNAPSHOT_EVERY env var, "
                             "else off)")
    parser.add_argument("--prune", action="store_true",
                        help="archive pre-snapshot blocks once a snapshot "
                             "seals (peer chains and the orderer backlog; "
                             "default: the REPRO_PRUNE env var, else off)")
    parser.add_argument("--reorder", action="store_true",
                        help="conflict-aware ordering: reorder each batch "
                             "along its conflict graph and early-abort "
                             "provably doomed transactions; enables the "
                             "reorder-soundness invariant (default: the "
                             "REPRO_REORDER env var, else off)")
    parser.add_argument("--gossip-batch", action="store_true",
                        help="batched gossip fast path: coalesce each "
                             "endorsement's private rwsets into one payload "
                             "per target peer (default: the "
                             "REPRO_GOSSIP_BATCH env var, else off)")
    parser.add_argument("--anti-entropy-every", type=_switch("anti_entropy_every"),
                        default=None,
                        help="digest-driven anti-entropy cadence in simulated "
                             "seconds; 0 disables the loop (default: the "
                             "REPRO_ANTI_ENTROPY_EVERY env var, else off)")
    parser.add_argument("--workload", choices=["mixed", "tpcc"], default="mixed",
                        help="workload family: the mixed asset/PDC mix, or the "
                             "contended TPC-C-style mix with open-loop arrivals "
                             "and the admission/retry policy (default mixed)")
    parser.add_argument("--diff", type=_assignment, default=None,
                        metavar="FIELD=VALUE",
                        help="run every seed twice — as configured, and with "
                             "run switch FIELD set to VALUE (parsed like its "
                             "REPRO_* variable) — and fail on any byte-level "
                             "divergence, e.g. executor=process:2, "
                             "gossip_batch=1 or state_backend=wal")
    args = parser.parse_args(argv)

    if args.replay is not None:
        return _replay(args)

    failures = 0
    started = time.time()
    for seed in range(args.seed_base, args.seed_base + args.seeds):
        seed_started = time.time()
        config = _apply_flags(
            SimulationConfig.generate_workload(args.workload, seed, args.ops), args
        )
        if args.diff:
            failures += _check_differential(config, dict([args.diff]), args, seed_started)
        else:
            failures += _check_seed(config, args, seed_started)

    elapsed = time.time() - started
    runs = " x2 runs" if args.diff else ""
    print(f"{args.seeds} seeds{runs}, {failures} failing ({elapsed:.1f}s total)")
    return 1 if failures else 0


def _apply_flags(config: SimulationConfig, args) -> SimulationConfig:
    """``config`` with every recorded run switch the command line sets.

    Sweep, ``--diff`` and ``--replay`` all build their configs here, so
    each flag reaches every leg.
    """
    flags = {
        "state_backend": args.backend,
        "executor": args.executor,
        "snapshot_every": args.snapshot_every,
        "prune": args.prune or None,
        "reorder": args.reorder or None,
        "gossip_batch": args.gossip_batch or None,
        "anti_entropy_every": args.anti_entropy_every,
    }
    return dataclasses.replace(
        config, **{name: value for name, value in flags.items() if value is not None}
    )


def _out_dir(args) -> Path:
    out_dir = args.trace_dir or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _check_seed(config: SimulationConfig, args, seed_started: float) -> bool:
    """Execute one seed; on failure print, shrink and dump it."""
    ops, fault_actions = generate(config)
    report = execute(config, ops, fault_actions, weaken=args.weaken)
    print(f"{report.summary()} ({time.time() - seed_started:.1f}s)")
    if report.ok:
        return False
    for violation in report.violations[:8]:
        print(f"    {violation}")
    if len(report.violations) > 8:
        print(f"    ... and {len(report.violations) - 8} more")
    if not args.no_shrink:
        _shrink_and_dump(config, ops, fault_actions, args)
    return True


def _check_differential(
    config: SimulationConfig, variant: dict, args, seed_started: float
) -> bool:
    """Run one seed through :func:`run_differential`.

    A failing seed dumps its (config, ops, faults) triple — replayable
    with ``--replay`` under either leg's switches — plus both digests and
    the violations, as ``differential-seed{N}.json`` for artifact upload.
    """
    report = run_differential(config, variant, weaken=args.weaken)
    print(f"{report.summary()} ({time.time() - seed_started:.1f}s)")
    if report.ok:
        return False
    for violation in (
        report.violations
        + report.reference.violations[:4]
        + report.candidate.violations[:4]
    ):
        print(f"    {violation}")
    trace_path = _out_dir(args) / f"differential-seed{config.seed}.json"
    trace_path.write_text(json.dumps({
        "config": report.config.to_wire(),
        "variant": report.variant,
        "ops": [op.to_wire() for op in report.ops],
        "faults": [action.to_wire() for action in report.fault_actions],
        "violations": [str(v) for v in report.violations],
        "reference_digest": report.reference.stats.get("state_digest"),
        "candidate_digest": report.candidate.stats.get("state_digest"),
    }, indent=1))
    print(f"    trace: {trace_path}")
    return True


def _shrink_and_dump(config, ops, fault_actions, args) -> None:
    print(f"    shrinking seed {config.seed} "
          f"({len(ops)} ops, {len(fault_actions)} fault actions)...")
    result = shrink_failing_run(
        config, ops, fault_actions,
        weaken=args.weaken, max_executions=args.shrink_budget,
    )
    print(f"    minimized to {len(result.ops)} ops + "
          f"{len(result.fault_actions)} fault actions "
          f"in {result.executions} replays:")
    for op in result.ops:
        print(f"      op {op.index} @{op.at}: {op.kind} "
              f"{op.function}{op.args} via {op.endorsers}")
    for action in result.fault_actions:
        target = action.topic or f"{action.src}->{action.dst}"
        print(f"      fault @{action.at}: {action.kind} {target}")

    out_dir = _out_dir(args)
    trace_path = out_dir / f"trace-seed{config.seed}.json"
    trace_path.write_text(json.dumps(result.to_trace(), indent=1))
    script_path = out_dir / f"repro-seed{config.seed}.py"
    script_path.write_text(render_repro_script(result, weaken=args.weaken))
    print(f"    trace: {trace_path}  repro script: {script_path}")


def _replay(args) -> int:
    config, ops, fault_actions = load_trace(json.loads(args.replay.read_text()))
    report = execute(_apply_flags(config, args), ops, fault_actions, weaken=args.weaken)
    print(report.summary())
    for violation in report.violations:
        print(f"    {violation}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
