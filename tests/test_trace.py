"""Tests for the trace recorder: native-unit records converted when read,
the buffer-kept occupancy high-water mark, deadline misses counted at every
trace level, and the validation of ``trace_retention``.

The recorder stores integer ticks (or the fraction queue's seconds) and
builds exact rationals only when a caller reads a record or a measurement;
that every read value equals the fraction reference is held by
``tests/test_timebase.py``.  Here the conversions themselves are counted, so
a regression that converts on the hot path again fails deterministically.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterator

import numpy as np
import pytest
from hypothesis import given, settings

from occupancy_oracle import sampled_high_water, seed_occupancy
from repro.api import Program
from repro.engine import BoundedProcessors, run_tasks
from repro.graph.circular_buffer import CircularBuffer
from repro.platform import Platform
from repro.platform.policies import FixedPriorityPreemptive
from repro.runtime.events import EventQueue
from repro.runtime.sources import SourceDriver
from repro.runtime.trace import TRACE_LEVELS, EndpointEvent, TraceRecorder
from repro.util.rational import TimeBase
from test_engine import generated_fleets

APP_DURATIONS = {
    "quickstart": Fraction(1, 10),
    "rate_converter": Fraction(1, 10),
    "pal_decoder": Fraction(1, 20),
    "modal_mute": Fraction(1, 10),
    "modal_two_mode": Fraction(1, 10),
}

SCHEDULERS = {
    "self-timed": lambda: None,
    "bounded-1": lambda: BoundedProcessors(1),
    "fpp-homogeneous-2": lambda: FixedPriorityPreemptive(Platform.homogeneous(2)),
}


@pytest.fixture(scope="module")
def pal():
    return Program.from_app("pal_decoder").analyze()


@contextmanager
def counted(owner, name: str) -> Iterator[Dict[str, int]]:
    """Count the calls of ``owner.name`` inside the block (test-side; the
    runtime keeps no such counter)."""
    calls = {"n": 0}
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    setattr(owner, name, wrapper)
    try:
        yield calls
    finally:
        setattr(owner, name, original)


def written_buffer_marks(result) -> Dict[str, int]:
    """Each written buffer's own mark, whatever the trace level."""
    simulation = result.simulation
    written = {driver.buffer.name for driver in simulation.sources.values()}
    for task in simulation.engine.tasks:
        written.update(buffer.name for _, _, buffer, _ in task._write_windows)
    return {
        name: simulation.buffers[name].high_water
        for name in written
        if simulation.buffers[name].high_water > 0
    }


# ---------------------------------------------------------------------------
# Native units: no conversion and no occupancy scan while the run records
# ---------------------------------------------------------------------------

class TestNativeUnits:
    @pytest.mark.parametrize("level", TRACE_LEVELS)
    def test_a_run_converts_once_and_never_scans_occupancy(self, pal, level):
        # PAL over 1/4 s, naive: 12,130 events, 4,359 firings and 2,594
        # endpoint events.  Recording them converted every endpoint stamp
        # and two stamps per firing (2,595 / 11,313 to_time calls at
        # "endpoints" / "full") and scanned every written buffer after
        # every completion (5,960 occupancy calls at "full").  The one
        # conversion left is the queue's exact end instant.
        with counted(TimeBase, "to_time") as to_time, \
                counted(CircularBuffer, "occupancy") as occupancy:
            result = pal.run(Fraction(1, 4), fast_forward=False, trace=level)
        assert result.simulation.queue.processed == 12_130
        assert result.completed_firings == 4_359
        assert to_time["n"] <= 1
        assert occupancy["n"] == 0
        trace = result.trace
        assert trace.endpoint_total == (0 if level == "off" else 2_594)
        assert trace.firing_total == (4_359 if level == "full" else 0)

    def test_records_convert_to_exact_seconds_when_read(self, pal):
        result = pal.run(Fraction(1, 20), fast_forward=False)
        queue, trace = result.simulation.queue, result.trace
        assert queue.timebase is not None
        firings, events = trace.firings, trace.endpoint_events
        assert firings and events
        assert all(isinstance(f.start, Fraction) and isinstance(f.end, Fraction) for f in firings)
        assert all(isinstance(e.time, Fraction) for e in events)
        assert firings[0] == trace.firings_of(firings[0].task)[0]
        assert events[0] == trace.events_of(events[0].name)[0]
        assert trace.firing_tasks() == [f.task for f in firings]
        assert trace.first_output_time("screen") == Fraction(581, 160_000)

    def test_recorder_without_engine_converts_by_identity(self):
        queue = EventQueue()
        trace = TraceRecorder()
        buffer = CircularBuffer("b", 4)
        buffer.register_consumer("c")
        SourceDriver(
            name="src", buffer=buffer, period=Fraction(1, 10), values=[1.0, 2.0],
            trace=trace, queue=queue,
        ).start()
        queue.run_until(Fraction(1))
        assert trace.endpoint_events == [
            EndpointEvent("src", "source", Fraction(0), 1.0),
            EndpointEvent("src", "source", Fraction(1, 10), 2.0),
        ]
        assert trace.measured_rate("src") == 10
        assert trace.buffer_high_water == {"b": 2}


# ---------------------------------------------------------------------------
# The high-water mark lives in the buffer and equals the seed's samples
# ---------------------------------------------------------------------------

class TestBufferHighWater:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("app", APP_DURATIONS)
    def test_marks_equal_the_seed_samples(self, app, scheduler):
        analysis = Program.from_app(app).analyze()
        with sampled_high_water() as marks:
            result = analysis.run(APP_DURATIONS[app], scheduler=SCHEDULERS[scheduler]())
        assert marks
        assert result.trace.buffer_high_water == marks

    def test_marks_hold_through_steady_state_jumps(self):
        analysis = Program.from_app("modal_two_mode").analyze()
        with sampled_high_water() as marks:
            result = analysis.run(Fraction(2))
        assert result.fast_forwarded
        assert result.trace.buffer_high_water == marks

    @pytest.mark.parametrize("level", ["off", "endpoints"])
    def test_coarser_levels_report_the_full_runs_marks(self, pal, level):
        # The buffers keep their marks at every level, so every level
        # reports them: PAL over 1/20 s marks 1, 1, 6, 8, 10, 16 and 25.
        full = pal.run(Fraction(1, 20), fast_forward=False, trace="full").trace
        with sampled_high_water() as marks:
            result = pal.run(Fraction(1, 20), fast_forward=False, trace=level)
        assert sorted(full.buffer_high_water.values()) == [1, 1, 6, 8, 10, 16, 25]
        assert result.trace.buffer_high_water == full.buffer_high_water == marks
        assert written_buffer_marks(result) == marks
        assert result.occupancy_ok

    def test_seed_formula_is_the_buffer_occupancy(self):
        buffer = CircularBuffer("b", 8, initial_values=[0.0])
        buffer.register_producer("p")
        buffer.register_producer("q")
        buffer.register_consumer("c")
        buffer.produce("p", [1.0, 2.0], 2)
        assert seed_occupancy(buffer) == buffer.occupancy() == buffer.high_water == 3
        buffer.consume("c", 1)
        buffer.produce("q", None, 1)  # behind p: the mark keeps p's peak
        assert buffer.high_water == 3
        assert seed_occupancy(buffer) == buffer.occupancy() == 2


@given(generated_fleets())
@settings(max_examples=25, deadline=None)
def test_marks_equal_the_seed_samples_on_generated_fleets(case):
    build, make_policy = case
    with sampled_high_water() as marks:
        run = run_tasks(build(), policy=make_policy(), stop_after_firings=400, fast_forward=False)
    assert marks
    assert run.trace.buffer_high_water == marks


# ---------------------------------------------------------------------------
# Deadline misses are counted at every level
# ---------------------------------------------------------------------------

class TestDeadlineMissesAtEveryLevel:
    @pytest.mark.parametrize("level", TRACE_LEVELS)
    def test_misses_counted_whatever_the_level(self, pal, level):
        # One processor cannot keep up with PAL: 695 dropped source samples
        # and 426 sink underflows over 1/5 s.  "off" used to report 0.
        with counted(CircularBuffer, "occupancy") as occupancy:
            result = pal.run(
                Fraction(1, 5), scheduler=BoundedProcessors(1), fast_forward=False, trace=level
            )
        simulation = result.simulation
        dropped = sum(driver.dropped for driver in simulation.sources.values())
        underflows = sum(driver.misses for driver in simulation.sinks.values())
        assert (dropped, underflows) == (695, 426)
        assert result.deadline_misses == result.metrics()["deadline_misses"] == 1_121
        assert "1121 violations" in result.summary()
        stored = result.trace.violations
        if level == "off":
            # the record, and the detail text that reads the occupancy, is
            # built only when it is stored
            assert stored == []
            assert occupancy["n"] == 0
        else:
            assert len(stored) == 1_121
            assert occupancy["n"] == dropped
            assert all(v.detail for v in stored)


# ---------------------------------------------------------------------------
# trace_retention is validated before anything runs
# ---------------------------------------------------------------------------

class TestRetentionValidation:
    @pytest.mark.parametrize(
        "retention,error",
        [(2.5, TypeError), ("10", TypeError), (True, TypeError), ([3], TypeError),
         (-1, ValueError)],
        ids=["float", "str", "bool", "list", "negative"],
    )
    def test_bad_retention_raises_before_running(self, retention, error):
        analysis = Program.from_app("quickstart").analyze()
        with counted(EventQueue, "run_until") as runs:
            with pytest.raises(error, match="trace_retention"):
                analysis.run(Fraction(1, 10), trace_retention=retention)
        assert runs["n"] == 0

    @pytest.mark.parametrize(
        "retention", [None, 0, 3, np.int64(3)], ids=["none", "zero", "int", "numpy-int"]
    )
    def test_integers_are_accepted(self, retention):
        trace = TraceRecorder(retention=retention)
        assert trace.retention == (None if retention is None else int(retention))
        assert trace.retention is None or type(trace.retention) is int
