"""Tests for CTA buffer sizing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Program
from repro.baselines.comparison import decimation_pipeline_source
from repro.cta import BufferParameter, CTAModel, check_consistency, size_buffers
from repro.cta.buffer_sizing import BufferSizingError


def pipeline_model(stages: int, *, wcet=Fraction(1, 100), sink_rate=20):
    """A linear pipeline of *stages* tasks with a sized buffer between each."""
    model = CTAModel("pipeline")
    tasks = []
    for index in range(stages):
        task = model.new_component(f"t{index}", kind="task")
        task.add_port("in", direction="in", fixed_rate=sink_rate if index == stages - 1 else None)
        task.add_port("out", direction="out")
        task.connect(task.port_ref("in"), task.port_ref("out"), epsilon=wcet, purpose="firing")
        tasks.append(task)
    buffers = []
    for left, right in zip(tasks, tasks[1:]):
        buffer = BufferParameter(f"b_{left.name}_{right.name}", minimum=1)
        buffers.append(buffer)
        model.connect(left.port_ref("out"), right.port_ref("in"), purpose="buffer-data")
        model.connect(right.port_ref("out"), left.port_ref("in"), buffer=buffer, purpose="buffer")
    return model, buffers


class TestSizing:
    def test_pipeline_becomes_consistent(self):
        model, buffers = pipeline_model(3)
        result = size_buffers(model)
        assert result.consistency.consistent
        assert all(b.value is not None for b in buffers)

    def test_capacities_sufficient_for_rate(self):
        model, _ = pipeline_model(2, wcet=Fraction(1, 25), sink_rate=20)
        result = size_buffers(model)
        # Each stage needs 1/25 s; at 20 Hz the slack per period is 1/20 s,
        # so a single-token buffer is not enough for both cycles.
        assert result.consistency.consistent
        assert result.total_capacity >= 2

    def test_minimize_reduces_capacity(self):
        model, buffers = pipeline_model(2)
        unminimized = size_buffers(model, minimize=False)
        for buffer in buffers:
            buffer.value = None
        model2, buffers2 = pipeline_model(2)
        minimized = size_buffers(model2, minimize=True)
        assert minimized.total_capacity <= unminimized.total_capacity

    def test_sized_model_is_checkable(self):
        model, _ = pipeline_model(2)
        size_buffers(model)
        assert check_consistency(model).consistent

    def test_infeasible_rates_raise(self):
        # Processing slower than the required period and no buffer on the
        # critical (firing-only) cycle: no capacity can help.
        model = CTAModel("m")
        a = model.new_component("a")
        a.add_port("in", fixed_rate=10)
        a.add_port("out")
        a.connect(a.port_ref("in"), a.port_ref("out"), epsilon=Fraction(1, 2), purpose="firing")
        a.connect(a.port_ref("out"), a.port_ref("in"), epsilon=0, phi=-1, purpose="periodicity")
        with pytest.raises(BufferSizingError):
            size_buffers(model)

    def test_monotone_larger_rate_needs_no_smaller_buffers(self):
        totals = []
        for rate in (10, 40, 160):
            model, _ = pipeline_model(2, wcet=Fraction(1, 400), sink_rate=rate)
            totals.append(size_buffers(model).total_capacity)
        assert totals == sorted(totals)


@given(st.integers(2, 4), st.integers(1, 30))
@settings(max_examples=15, deadline=None)
def test_sizing_always_produces_consistent_model(stages, rate):
    model, _ = pipeline_model(stages, wcet=Fraction(1, 1000), sink_rate=rate)
    result = size_buffers(model)
    assert result.consistency.consistent
    # capacities respect the declared minima
    assert all(value >= 1 for value in result.capacities.values())


# Capacities read off Bellman-Ford witness cycles: ``_enlarge_once`` grows the
# cheapest buffer on the witness, so a change to the relaxation order (edges
# in insertion order, nodes in insertion order, at most |V| rounds) changes
# them.  Recorded with the seed's Fraction relaxation loop.
PINNED_SIZING = {
    "quickstart": (1, {
        "Downsample/loop0/x.access0": 2, "Downsample/loop0/y.access0": 1,
        "main/averages": 4, "main/samples": 2,
    }),
    "pal_decoder": (7, {
        "SRC_A/loop0/si.access0": 34, "SRC_A/loop0/so.access0": 1,
        "SRC_V/loop0/si.access0": 22, "SRC_V/loop0/so.access0": 13,
        "Splitter/mas": 25, "Splitter/mvs": 16, "main/aud": 12, "main/rf": 2,
        "main/screen": 41, "main/speakers": 2, "main/vid": 10,
    }),
    "rate_converter": (0, {
        "A/loop0/a.access0": 3, "A/loop0/b.access0": 3, "B/loop0/c.access0": 2,
        "B/loop0/d.access0": 2, "C/x": 3, "C/y": 6,
    }),
    "modal_mute": (1, {
        "Mute/level": 1, "Mute/loop0/sin.access0": 4, "Mute/loop0/sout.access0": 1,
        "main/mic": 4, "main/speaker": 2,
    }),
    "modal_two_mode": (2, {
        "TwoMode/loop0/sin.access0": 2, "TwoMode/loop0/sout.access0": 1,
        "TwoMode/loop1/sin.access0": 2, "TwoMode/loop1/sout.access0": 1,
        "main/adc": 3, "main/dac": 3,
    }),
}


@pytest.mark.parametrize("app", sorted(PINNED_SIZING))
def test_packaged_app_sizing_is_pinned(app):
    iterations, capacities = PINNED_SIZING[app]
    sizing = Program.from_app(app).analyze().sizing
    assert sizing.iterations == iterations
    assert sizing.capacities == capacities


def test_decimation_chain_sizing_is_pinned():
    stages, rate = 6, 4
    base_hz = 4 * rate ** stages
    utilisations = (Fraction(6, 20), Fraction(7, 20), Fraction(8, 20))
    wcets = {
        f"dec{stage}": Fraction(rate ** (stage + 1), base_hz) * utilisations[stage % 3]
        for stage in range(stages)
    }
    program = Program.from_source(
        decimation_pipeline_source(stages, rate=rate, base_hz=base_hz),
        name="chain6x4",
        function_wcets=wcets,
    )
    sizing = program.analyze().sizing
    assert sizing.iterations == 7
    expected = {f"Dec{stage}/loop0/i.access0": 5 for stage in range(stages)}
    expected.update({f"Dec{stage}/loop0/o.access0": 1 for stage in range(stages)})
    expected.update({"main/input": 4, "main/output": 2})
    expected.update({f"main/s{stage}": 4 for stage in range(stages - 1)})
    assert sizing.capacities == expected
