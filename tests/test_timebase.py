"""Tests for the integer-tick event-queue time base.

The load-bearing guarantee: a tick-based run is *observationally identical*
to a fraction-based run -- every timestamp that leaves the runtime (traces,
makespans, violation instants, the end instant, busy times) round-trips
through the tick count to the exact :class:`~fractions.Fraction` the
fraction queue would have computed.  Tick mode may only change how fast the
queue compares timestamps, never what they are.  Every run derives its time
base; the fraction reference runs inside ``timebase_oracle.fraction_time_base``.
A policy that migrates firings across speeds runs on the same grid and
carries the instants a rescaled remainder pushes between two ticks as exact
fractional tick counts; it is held to the same oracle.
"""

import functools
import inspect
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st, target
from test_engine import FLEET_FIRINGS, fleet_shapes
from timebase_oracle import fraction_time_base

import oil_fleets
from repro.api import Analysis, Program, ProgramSpec, Sweep
from repro.api.sweep import RUN_AXES
from repro.engine.steady_state import SteadyState
from repro.runtime.functions import FunctionRegistry
from repro.platform import Platform
from repro.platform.policies import FixedPriorityPreemptive, ListScheduledPlatform
from repro.runtime.events import EventQueue
from repro.runtime.simulator import Simulation
from repro.runtime.trace import TRACE_LEVELS
from repro.util.rational import MAX_TICK_DENOMINATOR, TimeBase, TimeBaseError


def assert_traces_identical(a, b):
    assert a.firings == b.firings
    assert a.endpoint_events == b.endpoint_events
    assert a.violations == b.violations
    assert a.buffer_high_water == b.buffer_high_water


def assert_measurements_identical(a, b, simulation):
    """The trace's derived measurements, which it converts when read."""
    endpoints = [*simulation.sources, *simulation.sinks]
    for name in endpoints:
        assert a.first_output_time(name) == b.first_output_time(name)
        assert a.measured_rate(name) == b.measured_rate(name)
    for source in simulation.sources:
        for sink in simulation.sinks:
            assert a.end_to_end_latency(source, sink) == b.end_to_end_latency(source, sink)
    for task in simulation.tasks:
        assert a.task_throughput(task._key) == b.task_throughput(task._key)


def assert_runs_identical(tick_run, fraction_run, *, time_base="ticks"):
    """Everything a run reports.  The derived run reports *time_base*:
    ``"ticks"``, or ``"fraction"`` under a speed-migrating policy, whose
    instants may fall between ticks; the oracle reads ``"fraction"``."""
    assert_traces_identical(tick_run.trace, fraction_run.trace)
    assert_measurements_identical(tick_run.trace, fraction_run.trace, tick_run.simulation)
    assert tick_run.summary() == fraction_run.summary()
    assert tick_run.makespan == fraction_run.makespan
    assert tick_run.sink_counts == fraction_run.sink_counts
    for name in tick_run.sink_counts:
        assert tick_run.sink(name) == fraction_run.sink(name)
    assert tick_run.simulation.queue.now_time == fraction_run.simulation.queue.now_time
    assert tick_run.processor_busy == fraction_run.processor_busy
    tick_metrics, fraction_metrics = tick_run.metrics(), fraction_run.metrics()
    assert tick_run.time_base == tick_metrics.pop("time_base") == time_base
    assert fraction_run.time_base == fraction_metrics.pop("time_base") == "fraction"
    if tick_run.fast_forwarded:
        # The detector keys on ticks and refuses the fraction queue
        # ("fraction-time-base"); the jump itself is exact, so only the
        # flag that reports it differs.
        assert not fraction_run.fast_forwarded
        del tick_metrics["fast_forwarded"], fraction_metrics["fast_forwarded"]
    assert tick_metrics == fraction_metrics


# ---------------------------------------------------------------------------
# TimeBase arithmetic
# ---------------------------------------------------------------------------

class TestTimeBase:
    def test_resolution_is_gcd_of_durations(self):
        tb = TimeBase.for_durations([Fraction(1, 6_400_000), Fraction(1, 32_000)])
        # 6.4 MHz and 32 kHz periods: the grid is the finer period.
        assert tb is not None
        assert tb.resolution == Fraction(1, 6_400_000)
        tb = TimeBase.for_durations([Fraction(3, 1000), Fraction(1, 500)])
        assert tb.resolution == Fraction(1, 1000)

    def test_round_trip_is_exact(self):
        tb = TimeBase(Fraction(1, 6_400_000))
        for value in (Fraction(0), Fraction(1, 32_000), Fraction(7, 800), Fraction(5)):
            ticks = tb.to_ticks(value)
            assert isinstance(ticks, int)
            assert tb.to_time(ticks) == value

    def test_off_grid_time_raises(self):
        tb = TimeBase(Fraction(1, 1000))
        with pytest.raises(TimeBaseError):
            tb.to_ticks(Fraction(1, 3000))
        assert tb.to_ticks(Fraction(2, 1000)) == 2

    def test_ticks_floor(self):
        tb = TimeBase(Fraction(1, 1000))
        assert tb.ticks_floor(Fraction(1, 3)) == 333
        assert tb.ticks_floor(Fraction(2, 1000)) == 2

    def test_zero_durations_yield_no_base(self):
        assert TimeBase.for_durations([]) is None
        assert TimeBase.for_durations([0, Fraction(0)]) is None

    def test_zero_durations_are_skipped_not_fatal(self):
        tb = TimeBase.for_durations([0, Fraction(1, 4)])
        assert tb.resolution == Fraction(1, 4)

    def test_denominator_cap_falls_back(self):
        huge = Fraction(1, 10**19)
        assert TimeBase.for_durations([huge]) is None
        at_cap = TimeBase.for_durations([Fraction(1, MAX_TICK_DENOMINATOR)])
        assert at_cap is not None
        assert at_cap.resolution == Fraction(1, MAX_TICK_DENOMINATOR)

    def test_invalid_resolution_rejected(self):
        with pytest.raises(ValueError):
            TimeBase(0)
        with pytest.raises(ValueError):
            TimeBase(Fraction(-1, 2))


# ---------------------------------------------------------------------------
# Tick-based event queue
# ---------------------------------------------------------------------------

class TestTickEventQueue:
    def test_orders_like_the_fraction_queue(self):
        tb = TimeBase(Fraction(1, 1000))
        results = []
        for queue in (EventQueue(), EventQueue(tb)):
            seen = []
            queue.schedule(Fraction(2, 1000), lambda s=seen: s.append("b"))
            queue.schedule(Fraction(1, 1000), lambda s=seen: s.append("a"))
            queue.schedule(Fraction(1, 1000), lambda s=seen: s.append("a2"))
            queue.run_until(Fraction(1, 100))
            results.append(seen)
        assert results[0] == results[1] == ["a", "a2", "b"]

    def test_rational_inputs_convert_exactly(self):
        queue = EventQueue(TimeBase(Fraction(1, 1000)))
        event = queue.schedule(Fraction(3, 1000), lambda: None)
        assert event.time == 3  # native units: ticks
        with pytest.raises(TimeBaseError):
            queue.schedule(Fraction(1, 3), lambda: None)

    def test_now_time_round_trips(self):
        queue = EventQueue(TimeBase(Fraction(1, 32_000)))
        stamps = []
        queue.schedule(Fraction(5, 32_000), lambda: stamps.append(queue.now_time))
        queue.run_until(Fraction(1))
        assert stamps == [Fraction(5, 32_000)]
        assert queue.now == 32_000  # ticks
        assert queue.now_time == Fraction(1)

    def test_run_until_floors_off_grid_horizons(self):
        queue = EventQueue(TimeBase(Fraction(1, 1000)))
        queue.run_until(Fraction(1, 3))
        assert queue.now == 333  # event order stays on the grid
        assert queue.now_time == Fraction(1, 3)  # the end instant is exact

    def test_exact_end_instant_moves_like_the_fraction_clock(self):
        tb = TimeBase(Fraction(1, 1000))
        for ends in (
            [Fraction(1, 3), Fraction(1, 7)],  # an earlier end moves nothing
            [Fraction(1, 3), Fraction(333, 1000)],  # nor does its grid floor
            [Fraction(1, 3), Fraction(1, 2)],  # a later on-grid end
            [Fraction(1, 3), Fraction(2, 3)],  # a later off-grid end
        ):
            clocks = []
            for queue in (EventQueue(), EventQueue(tb)):
                seen = []
                queue.schedule(Fraction(334, 1000), lambda q=queue: seen.append(q.now_time))
                for end in ends:
                    queue.run_until(end)
                clocks.append((queue.now_time, seen))
            assert clocks[0] == clocks[1]

    def test_run_until_takes_only_an_end(self):
        # A run ends at an instant: there is no event budget and no stop
        # predicate that could leave the clock at the last event.
        queue = EventQueue(TimeBase(Fraction(1, 1000)))
        queue.schedule(Fraction(5, 1000), lambda: None)
        with pytest.raises(TypeError, match="stop"):
            queue.run_until(Fraction(1, 3), stop=lambda: True)
        with pytest.raises(TypeError, match="max_events"):
            queue.run_until(Fraction(1, 3), max_events=1)
        assert queue.processed == 0

    def test_timebase_fixed_once_history_exists(self):
        queue = EventQueue()
        queue.run_until(Fraction(1))
        with pytest.raises(ValueError):
            queue.set_timebase(TimeBase(Fraction(1, 10)))

    def test_schedule_after_accepts_ticks_and_rationals(self):
        queue = EventQueue(TimeBase(Fraction(1, 100)))
        seen = []
        queue.schedule_after(3, lambda: seen.append(queue.now))
        queue.schedule_after(Fraction(5, 100), lambda: seen.append(queue.now))
        queue.run_until(Fraction(1))
        assert seen == [3, 5]

    def test_post_takes_native_fractional_ticks(self):
        # schedule reads a Fraction as seconds; post takes native units,
        # so a tick count between two grid points keeps its meaning.
        queue = EventQueue(TimeBase(Fraction(1, 1000)))
        seen = []
        queue.post(Fraction(7, 2), lambda: seen.append(queue.now_time))
        queue.post(3, lambda: seen.append(queue.now_time))
        queue.run_until(Fraction(1))
        assert seen == [Fraction(3, 1000), Fraction(7, 2000)]
        with pytest.raises(ValueError, match="before current time"):
            queue.post(Fraction(7, 2), lambda: None)

    def test_fractional_ticks_before_an_off_grid_end_still_run(self):
        # 1/3 s floors to tick 333 of a 1/1000 s grid.  The event at tick
        # 333.2 lies before the exact end and runs; the one at 333.4 waits
        # for the next run -- as on the fraction queue.
        runs = []
        for queue, one_tick in (
            (EventQueue(), Fraction(1, 1000)),
            (EventQueue(TimeBase(Fraction(1, 1000))), 1),
        ):
            seen = []
            for ticks in (Fraction(3332, 10), Fraction(3334, 10)):
                queue.post(ticks * one_tick, lambda q=queue: seen.append(q.now_time))
            queue.run_until(Fraction(1, 3))
            first = (list(seen), queue.now_time)
            queue.run_until(Fraction(1, 2))
            runs.append((first, seen, queue.now_time))
        assert runs[0] == runs[1] == (
            ([Fraction(3332, 10_000)], Fraction(1, 3)),
            [Fraction(3332, 10_000), Fraction(3334, 10_000)],
            Fraction(1, 2),
        )


# ---------------------------------------------------------------------------
# Round-trip exactness on incommensurable periodic chains (property-style)
# ---------------------------------------------------------------------------

class TestPeriodicRoundTrip:
    """Two periodic chains with incommensurable periods produce timestamp
    streams whose interleaving is extremely sensitive to comparison
    exactness; the tick queue must reproduce the fraction queue's stream
    bit-for-bit."""

    @pytest.mark.parametrize(
        "period_a,period_b",
        [
            (Fraction(1, 6_400_000), Fraction(1, 32_000)),  # the paper's clocks
            (Fraction(1, 3), Fraction(1, 7)),
            (Fraction(3, 1000), Fraction(7, 10_000)),
            (Fraction(1, 44_100), Fraction(1, 48_000)),
        ],
    )
    def test_interleaving_identical(self, period_a, period_b):
        def stream(queue):
            stamps = []

            def tick_a():
                stamps.append(("a", queue.now_time))
                queue.schedule(queue.now + queue.to_internal(period_a), tick_a)

            def tick_b():
                stamps.append(("b", queue.now_time))
                queue.schedule(queue.now + queue.to_internal(period_b), tick_b)

            queue.schedule(queue.to_internal(Fraction(0)), tick_a)
            queue.schedule(queue.to_internal(Fraction(0)), tick_b)
            queue.run_until(period_a * 200)
            return stamps

        fraction_stream = stream(EventQueue())
        tick_queue = EventQueue(TimeBase.for_durations([period_a, period_b]))
        assert tick_queue.timebase is not None
        tick_stream = stream(tick_queue)
        assert tick_stream == fraction_stream
        assert all(isinstance(time, Fraction) for _, time in tick_stream)


# ---------------------------------------------------------------------------
# Simulation-level equivalence: every app, derived ticks vs the fraction oracle
# ---------------------------------------------------------------------------

APP_CASES = [
    ("quickstart", {}, Fraction(1, 20)),
    ("rate_converter", {}, Fraction(1, 10)),
    ("pal_decoder", {"scale": 1000}, Fraction(1, 20)),
    ("modal_mute", {}, Fraction(1, 20)),
    ("modal_two_mode", {}, Fraction(1, 20)),
]


@functools.lru_cache(maxsize=2)
def _pal_analysis(utilisation):
    return Program.from_app("pal_decoder", utilisation=utilisation).analyze()


def _migrating_policy():
    return FixedPriorityPreemptive(Platform.heterogeneous([2, 1]))


def tick_and_fraction_runs(analysis, duration, **kwargs):
    tick_run = analysis.run(duration, **kwargs)
    with fraction_time_base():
        fraction_run = analysis.run(duration, **kwargs)
    return tick_run, fraction_run


class TestSimulationEquivalence:
    @pytest.mark.parametrize("app,params,duration", APP_CASES, ids=[c[0] for c in APP_CASES])
    def test_traces_bit_identical_across_time_bases(self, app, params, duration):
        # Every level and retention: the trace stores native units (ticks
        # here, seconds in the oracle) and converts what is read.  Capped
        # runs step naively: a jump replays no stored records or sink values
        # into a capped trace, and the fraction oracle never jumps.
        analysis = Program.from_app(app, **params).analyze()
        for level in TRACE_LEVELS:
            for retention in (None, 64):
                tick_run, fraction_run = tick_and_fraction_runs(
                    analysis,
                    duration,
                    trace=level,
                    trace_retention=retention,
                    fast_forward="auto" if retention is None else False,
                )
                assert (len(tick_run.trace.firings) > 0) == (level == "full")
                assert_runs_identical(tick_run, fraction_run)

    @pytest.mark.parametrize(
        "duration", [Fraction(1, 3), Fraction(1, 7), Fraction(1, 8)], ids=str
    )
    def test_platform_run_ending_between_ticks(self, duration):
        # PAL's grid is 1/160,000 s, so 1/3 and 1/7 s end between two ticks
        # and 1/8 s on one.  Firings still in flight at the end count their
        # busy time up to the exact end instant, not to the floored tick.
        analysis = Program.from_app("pal_decoder").analyze()
        tick_run, fraction_run = tick_and_fraction_runs(
            analysis, duration, scheduler=ListScheduledPlatform(Platform.homogeneous(2))
        )
        assert tick_run.simulation.time_base.resolution == Fraction(1, 160_000)
        assert tick_run.simulation.queue.now_time == duration
        assert_runs_identical(tick_run, fraction_run)
        if duration == Fraction(1, 3):
            assert tick_run.metrics()["util[p0]"] == 0.9382
            assert tick_run.metrics()["util[p1]"] == 0.93435625

    @pytest.mark.parametrize("utilisation", [0.5, 0.8])
    @pytest.mark.parametrize(
        "duration", [Fraction(1, 8), Fraction(1, 3), Fraction(1, 2)], ids=str
    )
    def test_speed_migrating_preemption(self, utilisation, duration):
        # FixedPriorityPreemptive on speeds [2, 1] resumes preempted firings
        # across speeds.  The run keeps its grid and posts each remainder
        # a migration rescales between two ticks as an exact fractional
        # tick count: u=0.8's instants leave the grid from the start (tick
        # denominators up to 16 by 1/8 s, 2,048 by 1/2 s), u=0.5's only
        # after 1/3 s.  1/3 s also ends between two ticks.
        analysis = _pal_analysis(utilisation)
        tick_run = analysis.run(duration, scheduler=_migrating_policy())
        with fraction_time_base():
            fraction_run = analysis.run(duration, scheduler=_migrating_policy())
        resolution = tick_run.simulation.time_base.resolution
        assert resolution == {0.5: Fraction(1, 128_000), 0.8: Fraction(1, 160_000)}[utilisation]
        assert tick_run.simulation.queue.now_time == duration
        assert tick_run.metrics()["preemptions"] > 0
        finest = max((firing.end / resolution).denominator for firing in tick_run.trace.firings)
        assert finest == {
            (0.5, Fraction(1, 8)): 1,
            (0.5, Fraction(1, 3)): 1,
            (0.5, Fraction(1, 2)): 4,
            (0.8, Fraction(1, 8)): 16,
            (0.8, Fraction(1, 3)): 16,
            (0.8, Fraction(1, 2)): 2048,
        }[utilisation, duration]
        assert_runs_identical(tick_run, fraction_run, time_base="fraction")

    def test_full_rate_pal_clocks(self):
        # The paper's unscaled clocks: a 6.4 MHz RF source against 32 kHz
        # audio.  One video line of simulated time is enough to interleave
        # thousands of source ticks between audio instants.
        analysis = Program.from_app("pal_decoder", scale=1).analyze()
        tick_run, fraction_run = tick_and_fraction_runs(analysis, Fraction(1, 2_000))
        assert tick_run.simulation.time_base.resolution <= Fraction(1, 6_400_000)
        assert len(tick_run.trace.endpoint_events) > 1000
        assert_runs_identical(tick_run, fraction_run)

    def test_engine_run_tasks_equivalence(self):
        # A printed ring without drivers: its grid is the gcd of the wcets.
        ring = oil_fleets.ring(40, tokens=4, stagger=5)
        tick_run, fraction_run = tick_and_fraction_runs(ring, Fraction(1, 4), fast_forward=False)
        assert fraction_run.simulation.queue.timebase is None
        assert tick_run.simulation.time_base.resolution == Fraction(1, 1000)
        assert tick_run.completed_firings >= 300
        assert_runs_identical(tick_run, fraction_run)


@st.composite
def migrating_fleets(draw):
    """A ``fleet_shapes`` fleet factory and a ``FixedPriorityPreemptive``
    factory on 2-3 processors of mixed speeds drawn from {1, 2, 3}."""
    build = draw(fleet_shapes())
    speeds = draw(
        st.lists(st.sampled_from([1, 2, 3]), min_size=2, max_size=3).filter(
            lambda speeds: len(set(speeds)) > 1
        )
    )
    return build, functools.partial(FixedPriorityPreemptive, Platform.heterogeneous(speeds))


@given(migrating_fleets())
@settings(max_examples=40, deadline=None)
def test_speed_migrating_fleets_match_the_fraction_oracle(case):
    fleet, make_policy = case
    horizon = fleet.horizon(FLEET_FIRINGS)
    tick_run = fleet.run(horizon, scheduler=make_policy())
    # Most drawn fleets never fill their processors; steer the search
    # toward runs that preempt, where a resume may migrate off the grid.
    target(float(tick_run.preemptions))
    with fraction_time_base():
        fraction_run = fleet.run(horizon, scheduler=make_policy())
    assert tick_run.completed_firings >= FLEET_FIRINGS
    assert tick_run.simulation.queue.timebase is not None
    assert fraction_run.simulation.queue.timebase is None
    assert_runs_identical(tick_run, fraction_run, time_base="fraction")
    assert tick_run.simulation.queue.processed == fraction_run.simulation.queue.processed
    tick_engine, fraction_engine = tick_run.simulation.engine, fraction_run.simulation.engine
    assert (tick_engine.preemptions, tick_engine.resumes) == (
        fraction_engine.preemptions,
        fraction_engine.resumes,
    )


# ---------------------------------------------------------------------------
# Fraction fallback path
# ---------------------------------------------------------------------------

class TestFractionFallback:
    def test_explicit_fraction_mode(self):
        with fraction_time_base():
            run = Program.from_app("quickstart").analyze().run(Fraction(1, 50))
        assert run.time_base == "fraction"
        assert run.simulation.queue.timebase is None
        assert run.deadline_misses == 0

    def test_auto_falls_back_when_resolution_explodes(self):
        # A sink start offset with a denominator beyond the tick cap: the
        # gcd resolution would make every timestamp a huge integer, so the
        # simulation keeps exact fractions -- transparently.
        analysis = Program.from_app("quickstart").analyze()
        offset = {"averages": Fraction(1, 10**19)}
        run = analysis.run(Fraction(1, 50), sink_start_times=offset)
        assert run.time_base == "fraction"

    def test_fallback_trace_matches_tick_trace(self):
        analysis = Program.from_app("rate_converter").analyze()
        tick_run, fallback_run = tick_and_fraction_runs(analysis, Fraction(1, 10))
        assert_runs_identical(tick_run, fallback_run)

    #: a driverless acyclic program whose every duration is zero: an init
    #: hands 20 values to one loop task, which drains them at t = 0
    ZERO_WCET = """
mod seq Feed(out float y){
  init(20, out y:20);
}
mod seq Drain(float x){
  loop{ drain(x); } while(1);
}
mod par Top(){
  fifo float b;
  Feed(out b) || Drain(b)
}
"""

    def test_run_tasks_fallback_without_positive_wcets(self):
        registry = FunctionRegistry()
        registry.register("init", lambda count: [0.0] * count, stateless=True)
        registry.register("drain", lambda value: None, stateless=True)
        program = Program.from_source(self.ZERO_WCET, registry=registry)
        run = program.analyze().run(Fraction(1), capacities={"Top/b": 20})
        assert run.simulation.time_base is None
        assert run.time_base == "fraction"
        assert run.completed_firings == 1 + 20
        assert run.simulation.queue.now_time == 1

    def test_unknown_time_base_rejected(self):
        # The representation is derived, never chosen: a time_base keyword
        # of any value is an unexpected keyword.
        for value in ("nanoseconds", "fraction", TimeBase(Fraction(1, 10_000))):
            with pytest.raises(TypeError, match="time_base"):
                oil_fleets.ring(10, tokens=2).simulation(time_base=value)
            with pytest.raises(TypeError, match="time_base"):
                Program.from_app("quickstart").analyze().run(
                    Fraction(1, 100), time_base=value
                )


# ---------------------------------------------------------------------------
# One derivation, no option
# ---------------------------------------------------------------------------

class TestDerivedTimeBase:
    def test_no_signature_accepts_time_base(self):
        for function in (
            Program.__init__,
            Program.from_source,
            ProgramSpec.from_app,
            Analysis.simulation,
            Analysis.run,
            Simulation.__init__,
        ):
            assert "time_base" not in inspect.signature(function).parameters, function
        assert "time_base" not in {f.name for f in ProgramSpec.__dataclass_fields__.values()}
        assert not hasattr(Program.from_app("quickstart"), "time_base")
        assert "time_base" not in RUN_AXES
        assert not hasattr(Simulation, "run_until_sink_count")
        assert not hasattr(TimeBase, "try_ticks")
        run = Program.from_app("modal_two_mode").analyze().run(Fraction(1, 10), trace="off")
        assert run.fast_forwarded
        assert not hasattr(run.simulation.engine.steady_state, "sink_target")
        assert not hasattr(SteadyState, "sink_target")

    def test_for_durations_is_called_from_one_place(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        callers = [
            f"{path.relative_to(src)}:{number}"
            for path in sorted(src.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "for_durations(" in line and "def for_durations" not in line
        ]
        assert len(callers) == 1 and callers[0].startswith("engine/dispatcher.py:"), callers

    def test_speed_migrating_policy_reads_fraction_on_a_grid(self):
        # A policy that migrates firings across speeds runs on the derived
        # grid, but its instants may fall between ticks: it reads "fraction".
        run = Program.from_app("quickstart").analyze().run(
            Fraction(1, 50),
            scheduler=FixedPriorityPreemptive(Platform.heterogeneous([1, 2])),
        )
        assert run.time_base == "fraction"
        assert run.simulation.time_base is not None
        assert run.simulation.queue.timebase is run.simulation.time_base
        homogeneous = Program.from_app("quickstart").analyze().run(
            Fraction(1, 50), scheduler=FixedPriorityPreemptive(Platform.homogeneous(2))
        )
        assert homogeneous.time_base == "ticks"

    def test_time_base_is_a_program_axis_the_builder_rejects(self):
        sweep = Sweep("quickstart", duration=Fraction(1, 50)).add_axis(
            "time_base", ["fraction", "ticks"]
        )
        with pytest.raises(TypeError, match="time_base"):
            sweep.run()
