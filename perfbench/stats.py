"""The benchmark's own arithmetic: percentiles, op accounting, self time.

Pure functions over plain data, unit-tested in isolation
(``test_stats.py``) and used by the child process that computes a run's
metrics and by the span tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; otherwise the run is too small to state it.
MIN_TAIL_SAMPLES = 10


@dataclass(frozen=True)
class OpRecord:
    """One generated op, reduced to what the end-to-end metrics need.

    ``latency`` is simulated seconds from the op's due time to the final
    commit of its last attempt at every peer; it is ``None`` unless the
    op ended VALID.
    """

    is_attack: bool
    committed: bool
    latency: Optional[float] = None


def percentile(samples: Iterable[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the count of samples beyond it.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie strictly above the returned rank: the percentile would
    rest on too few observations to be worth a bound.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has only {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES}); size the run up"
        )
    return ordered[rank - 1], beyond


def honest(records: Iterable[OpRecord]) -> list[OpRecord]:
    """Ops that count toward the workload: attack ops are excluded,
    because their rejection is the expected outcome (the invariants
    check it), not a failure of the system under test."""
    return [r for r in records if not r.is_attack]


def failed_share(records: Iterable[OpRecord]) -> float:
    """Share of attempted non-attack ops that did not end VALID."""
    ops = honest(records)
    if not ops:
        raise ValueError("no non-attack ops attempted")
    return sum(1 for r in ops if not r.committed) / len(ops)


def goodput(records: Iterable[OpRecord], limit: float, span: float) -> float:
    """Non-attack ops committed within ``limit`` sim-s, per sim second.

    An op that failed, was refused or never resolved has no latency and
    so counts as a miss, exactly like one that committed too late.
    """
    if span <= 0:
        raise ValueError(f"non-positive span {span}")
    hits = sum(
        1 for r in honest(records)
        if r.committed and r.latency is not None and r.latency <= limit
    )
    return hits / span


def self_times(spans: Iterable[tuple]) -> dict:
    """Per-span self time: duration minus the time of its direct children.

    ``spans`` are ``(span_id, parent_id, start, end)`` tuples (extra
    fields after ``end`` are ignored); ``parent_id`` is ``None`` for a
    root.  Returns ``{span_id: self_seconds}``.  A child's whole
    duration is charged to its parent once — grandchildren are already
    inside it — so summing every span's self time gives back exactly the
    roots' total duration.
    """
    spans = list(spans)
    children: dict = {}
    for span_id, parent, start, end, *_ in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    return {
        span_id: (end - start) - children.get(span_id, 0.0)
        for span_id, _parent, start, end, *_ in spans
    }
