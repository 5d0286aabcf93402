"""Checks of the end-to-end benchmark harness itself (fast: smoke sizes)."""

from __future__ import annotations

import json
import re
import types

import pytest

import run
import workloads
from tracer import Tracer, layer_targets

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fake_clock(*ticks):
    values = iter(ticks)
    return lambda: next(values)


def test_self_time_is_duration_minus_children():
    space = types.SimpleNamespace()
    space.inner = lambda: None
    space.outer = lambda: (space.inner(), space.inner())
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]
    tracer = Tracer(clock=fake_clock(0, 1, 3, 4, 7, 10))
    with tracer.installed([(space, "inner", "inner", None), (space, "outer", "outer", None)]):
        space.outer()
    assert tracer.spans == [("outer", 0, 10, -1, 0), ("inner", 1, 3, 0, 0), ("inner", 4, 7, 0, 0)]
    assert tracer.self_times() == {"outer": 5, "inner": 5}
    assert tracer.call_counts() == {"inner": 2, "outer": 1}


def test_root_span_and_op_ids():
    space = types.SimpleNamespace(work=lambda: None)
    # other [0, 21] holds work [2, 5] (op 0) and work [6, 20] (op 1)
    tracer = Tracer(clock=fake_clock(0, 2, 5, 6, 20, 21, 22, 23))
    with tracer.installed([(space, "work", "work", None)]):
        with tracer.span("other"):
            space.work()
            tracer.op = 1
            space.work()
        space.work()
    assert [span[3:] for span in tracer.spans] == [(-1, 0), (0, 0), (0, 1), (-1, 1)]
    assert tracer.self_times() == {"other": 4, "work": 18}


def test_originals_restored_even_after_an_error():
    targets = layer_targets()
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert all(vars(owner)[attr] is not original for owner, attr, original in before)
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def test_benchmark_json_declares_the_workloads_and_metrics():
    config = run.benchmark_config()
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in config["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    declared = [m["name"] for m in config["end_to_end"] + config["per_layer"]]
    assert len(declared) == len(set(declared))
    assert all(NAME.fullmatch(name) for name in declared)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture
def smoke_run(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_REPEATS", 1)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path)

    def measure(name):
        return run.measure(workloads.WORKLOADS[name], seed=1, seconds=0, trace=True, smoke=True)

    return measure


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(smoke_run, name):
    report = smoke_run(name)
    assert report["problems"] == []
    assert report["failed"] == 0 and report["correct"]
    config = run.benchmark_config()
    assert set(report["e2e"]) == {m["name"] for m in config["end_to_end"]}
    assert set(report["layers"]) == {m["name"] for m in config["per_layer"]}
    for name, metric in {**report["e2e"], **report["layers"]}.items():
        assert NAME.fullmatch(name)
        assert metric["unit"] in {m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    assert all(stat["median"] > 0 for stat in report["e2e"].values())
    assert report["layers"]["engine.runs"]["value"] >= 1
    json.dumps(report)


@pytest.mark.parametrize(
    "before, after, expected",
    [
        ([1.0, 1.01, 1.02], [1.0, 1.01, 1.02], "within bound"),
        ([1.0, 1.01, 1.02], [1.2, 1.21, 1.22], "worse"),
        ([1.0, 1.01, 1.02], [0.8, 0.81, 0.82], "better"),
        ([1.0, 1.5, 2.0], [1.0, 1.5, 2.0], "unresolved"),
        ([1.0, 1.5, 2.0], [0.4, 0.5, 0.6], "better"),
        ([1.0], [0.99], "within bound"),
    ],
)
def test_compare_verdicts(before, after, expected):
    assert run.verdict(run.summarise(before), run.summarise(after), 0.1, "lower") == expected
