"""The benchmark's workloads: pinned deployments, seeded traffic.

Each workload pins its whole deployment shape and every behaviour
toggle as :class:`~repro.simulation.config.SimulationConfig` fields, so
nothing is read from ``REPRO_*`` variables.  The seed given on the
command line becomes ``config.seed``, which drives only the arrivals,
the op mix, the fault schedule and the scheduler's jitter draws: two
seeds of one workload differ in that field alone.

All three are open-loop in simulated time: ops are due at Poisson
arrival instants (plus a burst window for TPC-C) whether or not earlier
ops have finished, and every latency is timed from the op's due time.

This module holds plain data at import; ``repro`` is imported only by
:func:`build_inputs`, which runs in the child process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: TPC-C shape shared by the hot and cold workloads: only the
#: warehouse/district count differs, so only contention differs.
_TPCC = dict(
    workload="tpcc",
    org_count=3,
    peers_per_org=1,
    pdc1_members=("Org1MSP", "Org2MSP"),
    chaincode_policy="MAJORITY Endorsement",
    features="original",
    batch_size=5,
    batch_timeout=1.0,
    base_latency=0.5,
    jitter=0.1,
    gossip_latency=0.5,
    max_peer_count=2,
    attack_weight=0.0,
    fault_windows=0,
    arrival_rate=2.0,
    mean_gap=0.5,
    # Traffic opens at 8 sim-s (after the warehouse loads commit); the
    # burst triples the arrival rate for 15 sim-s early in the run.
    bursts=((20.0, 35.0, 3.0),),
    retry_budget=2,
    mempool_limit=16,
    reorder=True,
    gossip_batch=True,
    validate_cost=0.05,
    state_backend="memory",
    executor="serial",
)

_PDC_FAULTS = dict(
    workload="mixed",
    org_count=4,
    peers_per_org=2,
    # Two collections of three orgs (six member peers each) whose
    # MaxPeerCount of 2 is below the member count, so dissemination
    # leaves gaps that only pull repair can fill.
    pdc1_members=("Org1MSP", "Org2MSP", "Org3MSP"),
    pdc2_members=("Org2MSP", "Org3MSP", "Org4MSP"),
    # The paper's defense (New Feature 1) needs a collection-level
    # policy to act on.
    pdc1_policy="OR('Org1MSP.peer', 'Org2MSP.peer', 'Org3MSP.peer')",
    chaincode_policy="MAJORITY Endorsement",
    features="feature1",
    batch_size=5,
    batch_timeout=1.0,
    base_latency=0.5,
    jitter=0.2,
    gossip_latency=0.8,
    required_peer_count=0,
    max_peer_count=2,
    attack_weight=0.15,
    # Org4 is outside PDC1 and runs the forged-read contract.
    colluding_orgs=("Org4MSP",),
    plan_rate=0.3,
    mean_gap=0.5,
    # The generator's random fault shapes are replaced by the pinned
    # windows of :func:`_pinned_faults`.
    fault_windows=0,
    state_backend="wal",
    snapshot_every=4,
    prune=True,
    gossip_batch=True,
    anti_entropy_every=4.0,
    reorder=False,
    executor="serial",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # copied to BENCHMARK.json, latency limit included
    ops: int
    latency_limit: float  # sim-s; goodput counts commits within it
    fields: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="tpcc-hot",
            why="TPC-C, 1 warehouse x 1 district: conflicts dominate, so "
                "reordering, early abort, MVCC waste, retries and the "
                "validation queue do most of the work; latency limit 8 sim-s",
            ops=500,
            latency_limit=8.0,
            fields=dict(_TPCC, warehouses=1, districts_per_warehouse=1),
        ),
        Workload(
            name="tpcc-cold",
            why="TPC-C, 8 warehouses x 4 districts, same traffic and toggles "
                "as tpcc-hot: almost every op commits, so CPU cost per "
                "committed op dominates; latency limit 5 sim-s",
            ops=400,
            latency_limit=5.0,
            fields=dict(_TPCC, warehouses=8, districts_per_warehouse=4),
        ),
        Workload(
            name="pdc-faults",
            why="PDC + attack mix under the paper's defense, with gossip "
                "blackout and crash/restart windows, WAL storage, snapshots, "
                "plans and anti-entropy; latency limit 5 sim-s",
            ops=400,
            latency_limit=5.0,
            fields=_PDC_FAULTS,
        ),
    )
}


def config_for(name: str, seed: int):
    """The pinned :class:`SimulationConfig` of workload ``name``."""
    from repro.simulation.config import SimulationConfig

    workload = WORKLOADS[name]
    return SimulationConfig(seed=seed, ops=workload.ops, **workload.fields)


#: Crash window length as a share of the horizon.  Ops committing while a
#: peer is down wait for its restart, so the window is kept short enough
#: that they stay below the 5% tail p95 reports on.
CRASH_SHARE = 0.03


def _pinned_faults(config, peer_names: list) -> list:
    """One gossip blackout and one crash/restart window, seeded in time.

    The windows' shape is fixed; the seed picks where they fall and
    which peer crashes.  Both end well before the arrivals do, so the
    run heals and every gap is repairable.
    """
    from repro.runtime.runtime import GOSSIP_TOPICS
    from repro.simulation.faultplan import FaultAction

    rng = random.Random(f"perfbench-faults-{config.seed}")
    horizon = config.horizon()
    actions = []
    start = round(rng.uniform(0.1, 0.3) * horizon, 6)
    end = round(start + 0.15 * horizon, 6)
    for topic in GOSSIP_TOPICS:
        actions.append(FaultAction(at=start, kind="drop_topic", topic=topic))
        actions.append(FaultAction(at=end, kind="allow_topic", topic=topic))
    start = round(rng.uniform(0.5, 0.7) * horizon, 6)
    end = round(start + CRASH_SHARE * horizon, 6)
    peer = rng.choice(sorted(peer_names))
    actions.append(FaultAction(at=start, kind="crash_peer", dst=peer))
    actions.append(FaultAction(at=end, kind="restart_peer", dst=peer))
    return actions


def build_inputs(name: str, seed: int) -> tuple:
    """``(config, ops, fault_actions)`` for one run, via ``harness.generate``."""
    from repro.simulation import harness

    config = config_for(name, seed)
    ops, faults = harness.generate(config)
    if name == "pdc-faults":
        peers = [
            f"peer{num}.{org}"
            for org in config.org_ids() for num in range(config.peers_per_org)
        ]
        faults = sorted(
            list(faults) + _pinned_faults(config, peers),
            key=lambda a: (a.at, a.kind, a.src, a.dst, a.topic),
        )
    return config, ops, faults
