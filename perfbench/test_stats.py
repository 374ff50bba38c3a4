"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import SpanTracer  # noqa: E402
from stats import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    OpRecord,
    failed_share,
    goodput,
    percentile,
    self_times,
)
from workloads import WORKLOADS, build_inputs, config_for  # noqa: E402


def test_percentile_is_nearest_rank_with_its_tail_count():
    samples = [float(v) for v in range(200, 0, -1)]
    assert percentile(samples, 50) == (100.0, 100)
    assert percentile(samples, 95) == (190.0, MIN_TAIL_SAMPLES)


def test_percentile_refuses_a_tail_of_fewer_than_ten_samples():
    with pytest.raises(ValueError, match="only 9 beyond"):
        percentile([float(v) for v in range(199)], 95)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, 0.0, 10.0),  # root
        (1, 0, 1.0, 4.0),      # child
        (2, 1, 2.0, 3.0),      # grandchild
        (3, 0, 5.0, 6.0),      # second child
    ]
    selfs = self_times(spans)
    assert selfs == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(selfs.values()) == 10.0


def test_tracer_links_nested_spans_and_attributes_self_time():
    tracer = SpanTracer()
    inner = tracer.wrap("inner", "inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", "outer", lambda: inner() + inner())
    tracer.phase = "setup"
    outer()
    assert tracer.spans == []  # nothing recorded before the pipeline starts
    tracer.phase = "pipeline"
    outer()
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[5], []).append(span)
    (root,) = by_name["outer"]
    assert [s[1] for s in by_name["inner"]] == [root[0], root[0]]
    layers = tracer.layer_self_seconds("pipeline")
    assert layers["outer"] + layers["inner"] == pytest.approx(root[3] - root[2])
    assert 0 < layers["outer"] < root[3] - root[2]


def test_chrome_export_writes_one_complete_event_per_span(tmp_path):
    tracer = SpanTracer()
    tracer.phase = "pipeline"
    tracer.wrap("outer", "outer", tracer.wrap("inner", "inner", lambda: 1))()
    path = tmp_path / "trace.json"
    assert tracer.export_chrome(path) == 2
    events = json.loads(path.read_text())["traceEvents"]
    assert [(e["name"], e["ph"]) for e in events] == [("outer", "X"), ("inner", "X")]
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]


def test_missing_boundaries_are_reported_not_raised():
    tracer = SpanTracer()
    tracer.install({
        "gone": [("repro.no_such_module", "f")],
        "renamed": [("repro.common.serialization", "NoSuchClass.method"),
                    ("repro.common.serialization", "no_such_function")],
    })
    assert tracer.missing_layers() == {"gone", "renamed"}
    assert len(tracer.missing) == 3


def test_goodput_counts_failed_and_late_ops_as_misses():
    records = [
        OpRecord(is_attack=False, committed=True, latency=1.0),
        OpRecord(is_attack=False, committed=True, latency=5.0),  # too late
        OpRecord(is_attack=False, committed=False),  # aborted
        OpRecord(is_attack=False, committed=False),  # refused by the client
        OpRecord(is_attack=True, committed=True, latency=0.5),  # not workload
    ]
    assert goodput(records, limit=3.0, span=2.0) == 0.5
    with pytest.raises(ValueError):
        goodput(records, limit=3.0, span=0.0)


def test_failed_share_excludes_attack_ops():
    records = [
        OpRecord(is_attack=False, committed=True, latency=1.0),
        OpRecord(is_attack=False, committed=True, latency=1.0),
        OpRecord(is_attack=False, committed=True, latency=1.0),
        OpRecord(is_attack=False, committed=False),
        OpRecord(is_attack=True, committed=False),
        OpRecord(is_attack=True, committed=False),
    ]
    assert failed_share(records) == 0.25
    with pytest.raises(ValueError):
        failed_share(records[4:])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_seeds_of_a_workload_share_shape_and_op_count(name):
    first, second = config_for(name, 1).to_wire(), config_for(name, 2).to_wire()
    assert {k for k in first if first[k] != second[k]} == {"seed"}
    _, ops_a, faults_a = build_inputs(name, 1)
    _, ops_b, faults_b = build_inputs(name, 2)
    assert len(ops_a) == len(ops_b) == WORKLOADS[name].ops
    assert sorted(f.kind for f in faults_a) == sorted(f.kind for f in faults_b)
    assert [o.at for o in ops_a] != [o.at for o in ops_b]


def test_benchmark_json_records_each_workload_and_its_latency_limit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    for workload in WORKLOADS.values():
        assert f"latency limit {workload.latency_limit:g} sim-s" in workload.why
