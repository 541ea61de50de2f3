"""Tests of the benchmark's own code.

Run from the repository root with::

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import re
import time

import pytest

import child
import run
import tracer
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Two short points of the figure-5 sweep at a hundredth of its scale.
TINY = dataclasses.replace(
    workloads.WORKLOADS["fig5-sweep"], scale=0.01,
    points=(("hybrid", 1.0), ("grace", 0.5)))


@pytest.fixture(scope="module")
def traced_record() -> dict:
    return child.measure(TINY, seed=1, seconds=0.0, pinned={},
                         trace=True)


def test_self_times_sum_to_traced_wall_time():
    db = workloads.build_database(TINY, seed=1)
    expected = workloads.join_cardinality(db)
    failures: list = []
    started = time.perf_counter()
    with tracer.LayerTracer() as traced:
        child.run_pass(TINY, db, expected, {}, {}, failures,
                       calibrated=False)
    wall = time.perf_counter() - started
    assert failures == []
    total = sum(traced.self_s.values())
    assert abs(total - wall) <= tracer.SUM_TOLERANCE * wall
    assert traced.calls_in["sim"] > 0
    assert traced.self_s["sim"] > 0.0


def test_spans_nest_inside_their_parents(monkeypatch):
    monkeypatch.setattr(tracer, "MAX_SPANS", 500)
    db = workloads.build_database(TINY, seed=1)
    with tracer.LayerTracer() as traced:
        child.run_pass(TINY, db, workloads.join_cardinality(db), {}, {},
                       [], calibrated=False)
    assert len(traced.spans) == 500
    assert traced.dropped_spans > 0
    for package, _, start, end, parent in traced.spans:
        assert package != tracer.ROOT and start <= end
        if parent is not None:
            outer = traced.spans[parent]
            assert outer[2] <= start and end <= outer[3]
            assert outer[0] != package


def test_wrong_pinned_value_counts_as_failure():
    right = child.measure(TINY, seed=1, seconds=0.0, pinned={})
    assert right["failed"] == 0
    pins = {(point.split("@")[0], float(point.split("@")[1])): value
            for point, value in right["response_times"].items()}
    assert child.measure(TINY, seed=1, seconds=0.0,
                         pinned=pins)["failed"] == 0
    wrong = {**pins, ("grace", 0.5): "1.0"}
    result = child.measure(TINY, seed=1, seconds=0.0, pinned=wrong)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert "pinned 1.0" in result["failures"][0]


def test_previous_run_is_compared_only_on_the_same_sources(tmp_path):
    path = tmp_path / "previous.json"
    path.write_text(json.dumps({"source_digest": "a",
                                "deterministic": {"sim.events_fired": 5}}))
    assert run.compare_previous(path, "a", {"sim.events_fired": 5}) == []
    assert run.compare_previous(path, "a", {"sim.events_fired": 6}) \
        == ["sim.events_fired: 6 != previous 5"]
    assert run.compare_previous(path, "b", {"sim.events_fired": 6}) == []
    assert run.source_digest() == run.source_digest()


def test_pinned_seed_matches_golden_figure5():
    pins = workloads.pinned_values(workloads.WORKLOADS["fig5-sweep"],
                                   workloads.PINNED_SEED)
    assert len(pins) == 24
    assert workloads.pinned_values(workloads.WORKLOADS["fig5-sweep"],
                                   2) == {}


def test_metric_names_are_well_formed():
    names = [metric["name"] for metric in
             BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [workload["name"] for workload in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_reported_metrics_are_the_declared_ones(traced_record, capsys):
    declared = {metric["name"]: metric["unit"]
                for metric in BENCHMARK["per_layer"]}
    reported = run.per_layer(traced_record)
    assert {name: value["unit"] for name, value in reported.items()} \
        == declared
    declared = {metric["name"]: metric["unit"]
                for metric in BENCHMARK["end_to_end"]}
    reported = run.end_to_end([dict(traced_record, setup_s=1.0)])
    assert {name: value["unit"] for name, value in reported.items()} \
        == declared
    for name in reported:
        assert NAME.fullmatch(name), name


def test_workload_names_agree():
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert [workload["name"] for workload in BENCHMARK["workloads"]] \
        == list(run.WORKLOADS)
