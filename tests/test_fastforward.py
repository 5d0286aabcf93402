"""Steady-state fast-forward and the compiled dispatch kernel.

The contract under test (see :mod:`repro.engine.steady_state`): under
``fast_forward="auto"`` (the default) a program whose stimuli are declared
value-periodic and whose functions declare jump-exact behaviour skips whole
periods of its steady-state regime in O(1), and the run is *bit-identical*
to a naive one -- trace records, completion counters, makespan, deadline
misses, measured rates, busy accounting and sink values -- because the
detector folds every value state into its periodicity key.  Everything
else steps naively.  ``fast_forward`` accepts exactly ``"auto"`` and
``False``.  The compiled kernel -- the engine's one dispatch loop -- runs
every policy, on both time bases, and composes with fast-forward; its
equivalence with the polling oracle is asserted in tests/test_engine.py.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oil_fleets
import repro.engine.steady_state as steady_state_module
from repro.api import Program
from repro.api.sweep import Sweep
from repro.apps.producer_consumer import QUICKSTART_OIL_SOURCE, quickstart_wcets
from repro.apps.rate_converter import fig2_task_graph
from repro.baselines.comparison import decimation_pipeline_source
from repro.dataflow import repetition_vector, self_timed_statespace
from repro.engine.policies import BoundedProcessors, SelfTimedUnbounded, StaticOrder
from repro.engine.steady_state import fast_forward_refusal
from repro.platform.model import Platform, Processor
from repro.platform.policies import FixedPriorityPreemptive, ListScheduledPlatform, PlatformDecision
from repro.runtime.functions import FunctionRegistry
from repro.runtime.sources import ConstantStimulus, GeneratorStimulus, PeriodicStimulus
from repro.util.runwarnings import warning_code
from sampling_oracle import every_completion
from timebase_oracle import fraction_time_base


def assert_traces_identical(a, b):
    assert a.firings == b.firings
    assert a.endpoint_events == b.endpoint_events
    assert a.violations == b.violations
    assert a.buffer_high_water == b.buffer_high_water


APPS = ["quickstart", "pal_decoder", "rate_converter", "modal_mute", "modal_two_mode"]
#: apps the value-exact detector can jump with bit-identical sink values:
#: every stimulus declared value-periodic, every stateful function exposing
#: get_state/set_state.  rate_converter is absent because its ``f`` emits an
#: ever-growing value stream -- no value period exists, so ``"auto"`` falls
#: back to naive stepping (silently; see TestValueExactAuto).
VALUE_EXACT_APPS = ["quickstart", "pal_decoder", "modal_mute", "modal_two_mode"]
#: horizon past each app's first value-exact jump with constant signals
#: (the PAL decoder detects at 0.4376 s and its period is 1/16 s)
JUMP_SECONDS = {"pal_decoder": Fraction(1)}


def _constant_signals(app):
    names = list(Program.from_app(app).analyze().compilation.source_ports)
    return {name: ConstantStimulus(1.0) for name in names}


def assert_sink_values_identical(naive, ff):
    for name in naive.simulation.sinks:
        assert naive.simulation.sinks[name].consumed == ff.simulation.sinks[name].consumed, name


def assert_metrics_identical(naive, ff):
    metrics_naive, metrics_ff = naive.metrics(), ff.metrics()
    assert metrics_naive.pop("fast_forwarded") is False
    assert metrics_ff.pop("fast_forwarded") is True
    assert metrics_naive == metrics_ff


def _undeclared_registry():
    registry = FunctionRegistry()
    registry.register("average2", lambda pair: sum(pair) / len(pair))
    return registry


def _undeclared_quickstart():
    """The quickstart pipeline with a periodic stimulus but an undeclared
    ``average2``: "auto" falls back with an ``undeclared-function`` warning."""
    return Program.from_source(
        QUICKSTART_OIL_SOURCE,
        name="undeclared-quickstart",
        function_wcets=quickstart_wcets(),
        registry=_undeclared_registry,
        signals=lambda: {"samples": PeriodicStimulus([1.0, 2.0])},
    )


# ---------------------------------------------------------------------------
# Printed fleets: rings, fork/joins and SDF graphs without drivers
# ---------------------------------------------------------------------------

def naive_and_auto(fleet, duration, **kwargs):
    """*fleet* run naively and under the default ``"auto"``."""
    return (
        fleet.run(duration, fast_forward=False, **kwargs),
        fleet.run(duration, **kwargs),
    )


class TestEngineFastForward:
    def test_ring_long_horizon_exact(self):
        naive, ff = naive_and_auto(oil_fleets.ring(20, tokens=3, stagger=3), Fraction(100))
        steady = ff.simulation.engine.steady_state
        assert ff.fast_forwarded and steady.jumps >= 1
        assert steady.skipped_events > 0
        assert ff.completed_firings == naive.completed_firings
        assert ff.makespan == naive.makespan
        # processed is replayed through jumps, so it matches naive exactly;
        # the actually executed events are the difference
        assert ff.simulation.queue.processed == naive.simulation.queue.processed
        assert steady.skipped_events < naive.simulation.queue.processed
        assert_traces_identical(naive.trace, ff.trace)

    def test_short_horizon_is_bit_identical_without_jumps(self):
        # A horizon inside the transient: the detector is armed but never
        # jumps, and the run is trivially bit-identical.
        naive, ff = naive_and_auto(oil_fleets.ring(20, tokens=3), Fraction(1, 500))
        assert ff.simulation.engine.steady_state is not None
        assert not ff.fast_forwarded
        assert_traces_identical(naive.trace, ff.trace)

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: BoundedProcessors(2),
            lambda: StaticOrder(
                [f"Ring/R{i}" for i in range(10)], key=lambda task: task.instance
            ),
        ],
        ids=["bounded", "static-order"],
    )
    def test_policies_fast_forward_exactly(self, policy_factory):
        ring = oil_fleets.ring(10, tokens=2)
        naive = ring.run(Fraction(50), scheduler=policy_factory(), fast_forward=False)
        ff = ring.run(Fraction(50), scheduler=policy_factory())
        assert ff.fast_forwarded
        assert ff.completed_firings == naive.completed_firings
        assert ff.makespan == naive.makespan
        assert_traces_identical(naive.trace, ff.trace)

    def test_preemptive_policy_jumps_past_cancelled_completions(self):
        # Every preemption cancels a completion event, which stays in the
        # heap until it reaches the top, so samples see cancelled entries.
        naive, ff = naive_and_auto(
            oil_fleets.ring(12, tokens=5, stagger=1),
            Fraction(5),
            scheduler=FixedPriorityPreemptive(Platform.homogeneous(2)),
        )
        assert ff.fast_forwarded
        assert ff.preemptions == naive.preemptions > 0
        assert ff.completed_firings == naive.completed_firings
        assert ff.makespan == naive.makespan
        assert_traces_identical(naive.trace, ff.trace)

    def test_platform_policy_fast_forwards_with_busy_accounting(self):
        fleet = oil_fleets.fork_join(4)
        naive = fleet.run(
            Fraction(50),
            scheduler=ListScheduledPlatform(Platform.homogeneous(2)),
            fast_forward=False,
        )
        ff = fleet.run(Fraction(50), scheduler=ListScheduledPlatform(Platform.homogeneous(2)))
        assert ff.fast_forwarded
        assert ff.completed_firings == naive.completed_firings
        assert ff.processor_busy == naive.processor_busy
        assert_traces_identical(naive.trace, ff.trace)

    def test_trace_retention_keeps_streaming_counters_exact(self):
        ring = oil_fleets.ring(12, tokens=2)
        naive = ring.run(Fraction(200), fast_forward=False)
        ff = ring.run(Fraction(200), trace_retention=50)
        capped = ff.trace
        assert ff.fast_forwarded
        assert ff.completed_firings == naive.completed_firings
        # stored records are capped, the totals and per-task counters are not
        assert len(capped.firings) <= 50
        assert capped.firing_total == len(naive.trace.firings)
        for task in ff.simulation.tasks:
            key = task.producer_key()
            assert capped.task_firing_count(key) == naive.trace.task_firing_count(key)
            assert capped.task_throughput(key) == naive.trace.task_throughput(key)

    def test_multiple_jumps_across_repeated_horizon_extensions(self):
        naive, ff = naive_and_auto(oil_fleets.sdf(fig2_task_graph(), iterations=50), 400)
        assert ff.fast_forwarded
        assert ff.completed_firings == naive.completed_firings
        assert_traces_identical(naive.trace, ff.trace)


@st.composite
def generated_rings(draw):
    """Ring shape plus a policy: 3-12 tasks, 1..n-1 tokens, a stagger, a
    capacity, and one of the three policy families with 1-3 processors."""
    task_count = draw(st.integers(3, 12))
    shape = {
        "tokens": draw(st.integers(1, task_count - 1)),
        "stagger": draw(st.integers(1, 3)),
        "capacity": draw(st.integers(2, 4)),
    }
    family = draw(st.sampled_from(["self-timed", "bounded", "list-scheduled"]))
    processors = draw(st.integers(1, 3))
    return task_count, shape, family, processors


def _policy(family, processors):
    if family == "self-timed":
        return SelfTimedUnbounded()
    if family == "bounded":
        return BoundedProcessors(processors)
    return ListScheduledPlatform(Platform.homogeneous(processors))


def _held_tokens(simulation):
    """The values each buffer holds at the end, oldest first, read through
    the consumer windows (not the raw storage ring, whose slot alignment a
    jump may rotate)."""
    held = {}
    for task in simulation.tasks:
        for access in task.task.reads:
            buffer = task.buffers[access.buffer]
            held[buffer.name] = buffer.peek(task.producer_key(), buffer.tokens_available)
    return held


@given(generated_rings())
@settings(max_examples=25, deadline=None)
def test_auto_equals_naive_on_generated_rings(case):
    task_count, shape, family, processors = case
    # Long enough for every ring the strategy can draw to recur and jump:
    # the slowest (11-12 tasks, nearly full of staggered tokens) first jump
    # past half a second.
    horizon = Fraction(1)
    ring = oil_fleets.ring(task_count, **shape)
    naive = ring.run(horizon, scheduler=_policy(family, processors), fast_forward=False)
    auto = ring.run(horizon, scheduler=_policy(family, processors))
    # the property must not pass vacuously: every generated ring jumps
    assert auto.fast_forwarded
    assert auto.warnings == []
    assert auto.trace.firings == naive.trace.firings
    assert auto.simulation.queue.processed == naive.simulation.queue.processed
    assert auto.makespan == naive.makespan
    assert auto.processor_busy == naive.processor_busy
    assert _held_tokens(auto.simulation) == _held_tokens(naive.simulation)


# ---------------------------------------------------------------------------
# The one dispatch loop, bound at wire time
# ---------------------------------------------------------------------------

class TestCompiledKernel:
    def test_kernel_active_once_wired_under_every_policy(self):
        # Every policy runs the one loop the wiring binds; ``kernel_active``
        # stays readable and reports the wiring.
        ring = oil_fleets.ring(10, tokens=2)
        platform_run = ring.run(
            Fraction(1, 20), scheduler=ListScheduledPlatform(Platform.homogeneous(2))
        )
        assert platform_run.completed_firings >= 50
        assert platform_run.simulation.engine.kernel_active
        with fraction_time_base():
            fraction_run = ring.run(Fraction(1, 20))
        assert fraction_run.simulation.engine.kernel_active

    def test_kernel_composes_with_fast_forward(self):
        naive, combined = naive_and_auto(oil_fleets.ring(16, tokens=3), Fraction(100))
        assert combined.fast_forwarded and combined.simulation.engine.kernel_active
        assert combined.completed_firings == naive.completed_firings
        assert_traces_identical(naive.trace, combined.trace)


# ---------------------------------------------------------------------------
# Refusals: configurations that must fall back to naive execution
# ---------------------------------------------------------------------------

class TestRefusals:
    """Engine-level refusals, on fleets that qualify -- so the refusal, not
    qualification, is what keeps the detector out.  They are silent: the
    run steps naively and records no warning, while
    :func:`fast_forward_refusal` still names the stable reason."""

    def test_speed_migrating_preemptive_policy_refuses(self):
        run = oil_fleets.ring(10, tokens=2).run(
            Fraction(1, 10), scheduler=FixedPriorityPreemptive(Platform.heterogeneous([1, 2]))
        )
        engine = run.simulation.engine
        assert engine.steady_state is None
        assert not run.fast_forwarded
        assert run.warnings == []
        refusal = fast_forward_refusal(engine.policy, engine.queue.timebase)
        assert warning_code(refusal) == "speed-migrating-policy"
        assert run.completed_firings >= 100

    def test_fraction_time_base_refuses(self):
        with fraction_time_base():
            run = oil_fleets.ring(10, tokens=2).run(Fraction(1, 10))
        engine = run.simulation.engine
        assert engine.steady_state is None
        assert run.warnings == []
        refusal = fast_forward_refusal(engine.policy, engine.queue.timebase)
        assert warning_code(refusal) == "fraction-time-base"

    def test_policy_without_steady_state_key_refuses(self):
        class OpaquePolicy:
            """The scheduling protocol without ``steady_state_key``: every
            task starts at once on one shared processor name."""

            platform = None
            processors = (Processor("p0"),)

            def bind(self, tasks):
                pass

            def decide_start(self, task):
                return PlatformDecision(self.processors[0])

            def decide_resume(self, task):
                return None

            def on_start(self, task, processor):
                pass

            def on_preempt(self, task, processor):
                pass

            def on_resume(self, task, processor):
                pass

            def on_complete(self, task, processor):
                pass

            def reset(self):
                pass

        run = oil_fleets.ring(10, tokens=2).run(Fraction(1, 10), scheduler=OpaquePolicy())
        engine = run.simulation.engine
        assert engine.steady_state is None
        assert run.warnings == []
        refusal = fast_forward_refusal(engine.policy, engine.queue.timebase)
        assert warning_code(refusal) == "no-steady-state-key"

    def test_refused_run_matches_naive(self):
        with fraction_time_base():
            naive, refused = naive_and_auto(oil_fleets.ring(10, tokens=2), Fraction(1, 5))
        assert refused.simulation.engine.steady_state is None
        assert naive.completed_firings >= 200
        assert_traces_identical(naive.trace, refused.trace)


# ---------------------------------------------------------------------------
# API layer: Simulation / Analysis.run / Sweep
# ---------------------------------------------------------------------------

class TestApiFastForward:
    @pytest.mark.parametrize("app", APPS)
    def test_default_signal_metrics_exact(self, app):
        # Whatever "auto" decides -- a value-exact jump, or naive stepping
        # for apps whose default stimulus is aperiodic -- every metric is
        # exactly the naive one.
        duration = Fraction(1, 2)
        naive = Program.from_app(app).analyze().run(duration, fast_forward=False)
        ff = Program.from_app(app).analyze().run(duration)
        metrics_naive, metrics_ff = naive.metrics(), ff.metrics()
        metrics_naive.pop("fast_forwarded")
        metrics_ff.pop("fast_forwarded")
        assert metrics_naive == metrics_ff

    def test_short_horizon_traces_bit_identical_with_default_signals(self):
        # Inside the transient no jump fires, so the traces are
        # bit-identical whatever the stimulus.
        duration = Fraction(1, 400)
        naive = Program.from_app("quickstart").analyze().run(duration, fast_forward=False)
        ff = Program.from_app("quickstart").analyze().run(duration)
        assert not ff.fast_forwarded
        assert_traces_identical(naive.trace, ff.trace)
        for sink in naive.simulation.sinks:
            assert naive.sink(sink) == ff.sink(sink)

    def test_duration_and_horizon_are_exclusive(self):
        # duration is the one required positional argument; the removed
        # horizon= spelling is rejected.
        analysis = Program.from_app("quickstart").analyze()
        with pytest.raises(TypeError):
            analysis.run(Fraction(1), horizon=Fraction(1))
        with pytest.raises(TypeError):
            analysis.run()

    def test_trace_retention_through_api(self):
        signals = _constant_signals("quickstart")
        run = Program.from_app("quickstart").analyze().run(
            Fraction(2), signals=signals, trace_retention=100
        )
        assert run.fast_forwarded
        assert len(run.trace.firings) <= 100
        naive = Program.from_app("quickstart").analyze().run(
            Fraction(2), signals=signals, fast_forward=False
        )
        assert run.completed_firings == naive.completed_firings
        assert run.sink_counts == naive.sink_counts
        assert run.deadline_misses == naive.deadline_misses

    def test_sweep_fast_forward_axis_matches_naive_rows(self):
        report = (
            Sweep(
                "quickstart",
                duration=Fraction(1, 2),
                base={"signal": ConstantStimulus(1.0)},
            )
            .add_axis("fast_forward", [False, "auto"])
            .run()
        )
        assert report.ok
        rows = report.rows()
        assert rows[0]["fast_forwarded"] is False
        assert rows[1]["fast_forwarded"] is True
        for key, value in rows[0].items():
            if key in ("point", "fast_forward", "fast_forwarded"):
                continue
            assert rows[1][key] == value, key


class TestFastForwardModes:
    """``fast_forward`` accepts exactly ``"auto"`` and ``False``; anything
    else -- the removed timing-exact ``True``, a stray ``"off"`` -- raises
    instead of silently picking a detector."""

    @pytest.mark.parametrize("mode", ["off", True])
    def test_run_tasks_rejects(self, mode):
        # a simulation of a printed ring, built without running it
        with pytest.raises(ValueError, match="fast_forward"):
            oil_fleets.ring(5, tokens=2).simulation(fast_forward=mode)

    @pytest.mark.parametrize("mode", ["off", True])
    def test_analysis_run_rejects(self, mode):
        analysis = Program.from_app("quickstart").analyze()
        with pytest.raises(ValueError, match="fast_forward"):
            analysis.run(Fraction(1, 100), fast_forward=mode)

    def test_true_points_to_auto(self):
        with pytest.raises(ValueError, match='"auto"'):
            Program.from_app("quickstart").run(Fraction(1, 100), fast_forward=True)

    @pytest.mark.parametrize("mode", ["off", True])
    def test_sweep_point_fails_with_the_error(self, mode):
        report = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("fast_forward", [mode, False])
            .run()
        )
        failed, fine = report.results
        assert not failed.ok and fine.ok
        assert failed.error.startswith("ValueError: ")
        assert "fast_forward" in failed.error


# ---------------------------------------------------------------------------
# Value-exact fast-forward (fast_forward="auto", the default)
# ---------------------------------------------------------------------------

class TestValueExactAuto:
    @pytest.mark.parametrize("app", VALUE_EXACT_APPS)
    def test_auto_jump_is_value_exact_with_constant_stimuli(self, app):
        duration = JUMP_SECONDS.get(app, Fraction(1, 2))
        naive = Program.from_app(app).analyze().run(
            duration, signals=_constant_signals(app), fast_forward=False
        )
        ff = Program.from_app(app).analyze().run(
            duration, signals=_constant_signals(app)  # "auto" is the default
        )
        steady = ff.simulation.engine.steady_state
        assert ff.fast_forwarded and steady.jumps >= 1
        assert ff.warnings == []
        assert_traces_identical(naive.trace, ff.trace)
        assert_sink_values_identical(naive, ff)
        assert_metrics_identical(naive, ff)

    def test_pal_decoder_million_events_bit_identical(self):
        # Acceptance horizon: >= 1e6 queue events through a value-exact jump.
        # The declared RF stimulus is one exact period of the composite
        # signal (repro.dsp.pal.periodic_composite_stimulus) and every
        # filter/mixer/resampler exposes get_state, so the sink samples of
        # the jumped run are bit-identical to naive.
        duration = Fraction(21)
        analysis = Program.from_app("pal_decoder").analyze()
        ff = analysis.run(duration, trace="off")
        steady = ff.simulation.engine.steady_state
        assert ff.fast_forwarded and steady.jumps >= 1
        assert ff.warnings == []
        assert ff.simulation.engine.queue.processed >= 1_000_000
        naive = analysis.run(duration, trace="off", fast_forward=False)
        assert ff.simulation.engine.queue.processed == naive.simulation.engine.queue.processed
        assert_sink_values_identical(naive, ff)

    def test_modal_two_mode_million_events_bit_identical(self):
        # Same acceptance horizon for the mode-switching app: the jump must
        # preserve the mode-schedule position and the ring-buffer rotation
        # of values resident across it.
        duration = Fraction(63)
        analysis = Program.from_app("modal_two_mode").analyze()
        ff = analysis.run(duration, trace="off")
        steady = ff.simulation.engine.steady_state
        assert ff.fast_forwarded and steady.jumps >= 1
        assert ff.warnings == []
        assert ff.simulation.engine.queue.processed >= 1_000_000
        naive = analysis.run(duration, trace="off", fast_forward=False)
        assert ff.simulation.engine.queue.processed == naive.simulation.engine.queue.processed
        assert_sink_values_identical(naive, ff)

    def test_aperiodic_declared_stimulus_falls_back_silently(self):
        # The quickstart default signal is a declared ramp: aperiodic, so
        # auto cannot prove a value period -- it steps naively, with *no*
        # warning (the user declared exactly what the stream is).
        duration = Fraction(1, 2)
        naive = Program.from_app("quickstart").analyze().run(
            duration, fast_forward=False
        )
        auto = Program.from_app("quickstart").analyze().run(duration)
        assert not auto.fast_forwarded
        assert auto.warnings == []
        assert_traces_identical(naive.trace, auto.trace)
        assert_sink_values_identical(naive, auto)

    def test_rate_converter_auto_matches_naive_without_value_period(self):
        # rate_converter's ``f`` emits an ever-growing value stream: the
        # detector arms (all declarations are in place) but never observes a
        # repeat, and the run remains naive-identical.
        duration = Fraction(1, 2)
        naive = Program.from_app("rate_converter").analyze().run(
            duration, signals=_constant_signals("rate_converter"), fast_forward=False
        )
        auto = Program.from_app("rate_converter").analyze().run(
            duration, signals=_constant_signals("rate_converter")
        )
        steady = auto.simulation.engine.steady_state
        assert steady is not None
        assert not auto.fast_forwarded and auto.warnings == []
        assert_traces_identical(naive.trace, auto.trace)
        assert_sink_values_identical(naive, auto)


class TestAutoRefusalWarningCodes:
    def test_undeclared_function_warns_with_stable_code(self):
        run = _undeclared_quickstart().analyze().run(Fraction(1, 100))
        assert not run.fast_forwarded
        codes = [warning_code(w) for w in run.warnings]
        assert codes == ["undeclared-function"]
        assert "average2" in run.warnings[0]
        # the free-text message is still an ordinary string
        assert isinstance(run.warnings[0], str)

    def test_sweep_hoists_warning_codes(self):
        report = (
            Sweep(program=_undeclared_quickstart(), duration=Fraction(1, 100))
            .add_axis("scheduler", [None, BoundedProcessors(1)])
            .run()
        )
        assert report.ok
        assert len(report.warnings) == 2
        assert all(warning_code(w) == "undeclared-function" for w in report.warnings)


class _PeriodicGenerator(GeneratorStimulus):
    """A generator-backed stream that *declares* an exact value period, so
    the value-exact detector qualifies it -- but whose ``advance()`` still
    replays draws one by one (``advance_linear`` stays True)."""

    value_periodic = True

    def __init__(self, values):
        self._values = list(values)
        super().__init__(lambda: itertools.cycle(self._values))
        self.period = len(self._values)

    def state(self):
        return self.draws % self.period

    def fresh(self):
        return _PeriodicGenerator(self._values)


class TestGeneratorAdvanceWarning:
    def test_jump_through_generator_stimulus_warns_past_threshold(self, monkeypatch):
        monkeypatch.setattr(steady_state_module, "GENERATOR_ADVANCE_THRESHOLD", 0)
        result = Program.from_app("quickstart").analyze().run(
            Fraction(1, 2), signals={"samples": _PeriodicGenerator([0.5, -0.25])}
        )
        steady = result.simulation.engine.steady_state
        assert result.fast_forwarded and steady.jumps >= 1
        codes = [warning_code(w) for w in result.warnings]
        assert "generator-advance" in codes

    def test_no_warning_below_threshold_or_for_closed_form(self):
        generator = Program.from_app("quickstart").analyze().run(
            Fraction(1, 2), signals={"samples": _PeriodicGenerator([0.5, -0.25])}
        )
        assert generator.fast_forwarded
        constant = Program.from_app("quickstart").analyze().run(
            Fraction(1, 2), signals={"samples": ConstantStimulus(1.0)}
        )
        assert constant.fast_forwarded
        for result in (generator, constant):
            assert "generator-advance" not in [
                warning_code(w) for w in result.warnings
            ]


# ---------------------------------------------------------------------------
# The sampling grid: one sample per endpoint hyperperiod
# ---------------------------------------------------------------------------

#: (app, horizon, constant signals): every value-exact app with constant
#: signals, and the PAL decoder with its default signals
GRID_CASES = [
    pytest.param(app, Fraction(1), True, id=f"{app}-constant") for app in VALUE_EXACT_APPS
] + [pytest.param("pal_decoder", Fraction(4), False, id="pal_decoder-default")]

#: A 6-stage decimate-by-2 chain, 256 Hz in and 4 Hz out (grid 1/4 s), fed
#: a 33,024-value stimulus: one value period is 129 s, in which the first
#: stage completes 16,512 times -- more states than the table holds
#: (MAX_STATES) when every anchor completion is sampled.
CHAIN_STAGES, CHAIN_BASE_HZ, CHAIN_VALUES = 6, 256, 33_024


def _mean(window):
    return sum(window) / len(window)


def _long_value_period_chain():
    registry = FunctionRegistry()
    wcets = {}
    for stage in range(CHAIN_STAGES):
        # utilisation 1/2: half the stage's firing period
        wcets[f"dec{stage}"] = Fraction(2 ** (stage + 1), CHAIN_BASE_HZ) / 2
        registry.register(f"dec{stage}", _mean, stateless=True)
    rng = random.Random(0)
    values = [rng.uniform(-1.0, 1.0) for _ in range(CHAIN_VALUES)]
    return Program.from_source(
        decimation_pipeline_source(CHAIN_STAGES, rate=2, base_hz=CHAIN_BASE_HZ),
        name="long-value-period-chain",
        function_wcets=wcets,
        registry=registry,
        signals={"input": PeriodicStimulus(values)},
    )


def _detected(steady):
    """The instant (in ticks) the detector first saw a repeat."""
    return steady.transient_ticks + steady.period_ticks


class TestSamplingGrid:
    @pytest.mark.parametrize("app, duration, constant", GRID_CASES)
    def test_grid_finds_the_every_completion_period(self, app, duration, constant):
        def run(**kwargs):
            signals = _constant_signals(app) if constant else None
            return Program.from_app(app).analyze().run(
                duration, trace="off", signals=signals, **kwargs
            )

        naive = run(fast_forward=False)
        gated = run()
        with every_completion():
            ungated = run()
        for ff in (gated, ungated):
            assert ff.fast_forwarded and ff.simulation.engine.steady_state.jumps >= 1
            assert ff.warnings == []
            assert ff.simulation.queue.processed == naive.simulation.queue.processed
            assert_sink_values_identical(naive, ff)
            assert_metrics_identical(naive, ff)
        steady = gated.simulation.engine.steady_state
        reference = ungated.simulation.engine.steady_state
        grid = steady.grid
        assert grid is not None and reference.grid is None
        assert (steady.period_ticks, steady.period_firings) == (
            reference.period_ticks,
            reference.period_firings,
        )
        assert 0 <= _detected(steady) - _detected(reference) < grid
        assert len(steady._seen) <= len(reference._seen)

    def test_pal_decoder_samples_once_per_grid_step(self):
        # The PAL decoder's endpoints run at 6400, 4000 and 32 Hz, so the
        # grid is 1/32 s: over 4 s the detector stores at most one state per
        # grid step (sampling every anchor completion stores 12,289).
        result = Program.from_app("pal_decoder").analyze().run(Fraction(4), trace="off")
        steady = result.simulation.engine.steady_state
        assert result.fast_forwarded and steady.jumps >= 1
        assert len(steady._seen) <= 4 * 32 + 1
        assert steady.grid == result.simulation.queue.to_internal(Fraction(1, 32))

    def test_long_value_period_jumps_instead_of_overflowing(self):
        duration = Fraction(645, 2)  # 2.5 value periods, 247,675 events
        naive = _long_value_period_chain().analyze().run(
            duration, trace="off", fast_forward=False
        )
        auto = _long_value_period_chain().analyze().run(duration, trace="off")
        steady = auto.simulation.engine.steady_state
        assert auto.warnings == []
        assert auto.fast_forwarded and steady.jumps >= 1
        assert steady.grid == auto.simulation.queue.to_internal(Fraction(1, 4))
        assert auto.simulation.queue.processed == naive.simulation.queue.processed
        assert_sink_values_identical(naive, auto)
        assert_metrics_identical(naive, auto)

    def test_fleet_without_drivers_samples_every_completion(self, monkeypatch):
        counts = {"completions": 0, "samples": 0}
        detector = steady_state_module.SteadyState
        on_anchor_completion, state_key = detector.on_anchor_completion, detector.state_key

        def completion(self):
            counts["completions"] += 1
            on_anchor_completion(self)

        def sample(self):
            counts["samples"] += 1
            return state_key(self)

        monkeypatch.setattr(detector, "on_anchor_completion", completion)
        monkeypatch.setattr(detector, "state_key", sample)
        run = oil_fleets.ring(12, tokens=2).run(Fraction(1))
        steady = run.simulation.engine.steady_state
        assert steady.grid is None and steady.jumps >= 1
        assert counts["samples"] == counts["completions"] > 1


# ---------------------------------------------------------------------------
# Cross-check against the offline state-space analysis
# ---------------------------------------------------------------------------

class TestOfflineCrossCheck:
    @pytest.mark.parametrize("graph_factory", [fig2_task_graph], ids=["fig2"])
    def test_online_period_matches_statespace_throughput(self, graph_factory):
        graph = graph_factory()
        offline = self_timed_statespace(graph)
        assert offline.iteration_period is not None and not offline.deadlocked

        run = oil_fleets.sdf(graph, iterations=64).run(500)
        steady = run.simulation.engine.steady_state
        assert run.fast_forwarded and steady.period_ticks is not None

        # The online anchor-period spans an integer number of graph
        # iterations, so firings-per-second must agree exactly with the
        # offline periodic phase: period_firings / period_seconds ==
        # sum(repetition vector) / iteration_period.
        q = repetition_vector(graph)
        period_seconds = run.simulation.queue.to_time(steady.period_ticks)
        assert (
            Fraction(steady.period_firings) * offline.iteration_period
            == Fraction(q.total_firings()) * period_seconds
        )

    def test_online_transient_is_finite_and_period_positive(self):
        graph = fig2_task_graph()
        run = oil_fleets.sdf(graph, iterations=64).run(500)
        steady = run.simulation.engine.steady_state
        assert steady.transient_ticks >= 0
        assert steady.period_ticks > 0
        assert steady.skipped_events > 0
