"""Tests for the pluggable scheduler engine (ready set, policies, dispatch).

The load-bearing guarantee of the engine refactor is *observational
equivalence*: indexed ready-set dispatch must produce bit-identical traces to
the brute-force polling reference (the seed implementation, kept as the
oracle in tests/dispatch_oracle.py) on every application, while the policies
reshape timing in exactly the documented ways (bounded processors serialise,
static order replays the sequential baseline's schedule).
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dispatch_oracle import polling_dispatch
from timebase_oracle import fraction_time_base
from repro.api import Analysis, Program
from repro.apps.producer_consumer import quickstart_program, quickstart_registry
from repro.apps.rate_converter import fig2_task_graph
from repro.baselines.sequential_schedule import (
    generate_sequential_program,
    rate_conversion_graph,
    static_order_policy,
)
from repro.engine import (
    BoundedProcessors,
    ReadySet,
    SelfTimedUnbounded,
    StaticOrder,
    fork_join_program,
    ring_program,
    run_tasks,
    tasks_from_sdf,
)
from repro.graph.circular_buffer import CircularBuffer
from repro.graph.taskgraph import Access, Task
from repro.platform import ListScheduledPlatform, PartitionedHeterogeneous, Platform
from repro.runtime.functions import FunctionRegistry
from repro.runtime.simulator import Simulation
from repro.runtime.tasks import RuntimeTask
from repro.runtime.trace import TraceRecorder
from test_fastforward import generated_rings


def assert_traces_identical(a, b):
    """Bit-identical traces: same firings in the same order, same endpoint
    events, same violations, same occupancy high-water marks."""
    assert a.firings == b.firings
    assert a.endpoint_events == b.endpoint_events
    assert a.violations == b.violations
    assert a.buffer_high_water == b.buffer_high_water


# ---------------------------------------------------------------------------
# Ready set ordering
# ---------------------------------------------------------------------------

class TestReadySet:
    def test_orders_by_index(self):
        ready = ReadySet()
        for index in (3, 1, 2):
            ready.push(index)
        assert [ready.pop(), ready.pop(), ready.pop(), ready.pop()] == [1, 2, 3, None]

    def test_duplicate_push_is_ignored(self):
        ready = ReadySet()
        ready.push(1)
        ready.push(1)
        assert len(ready) == 1
        assert ready.pop() == 1
        assert ready.pop() is None

    def test_wake_behind_cursor_goes_to_next_pass(self):
        # Polling pass order: a task woken at-or-before the scan cursor is
        # only reached in the next pass, one woken ahead still in this pass.
        ready = ReadySet()
        ready.push(2)
        assert ready.pop() == 2  # cursor now 2
        ready.push(1)  # behind the cursor -> next pass
        ready.push(3)  # ahead of the cursor -> this pass
        assert ready.pop() == 3
        assert ready.pop() == 1  # next pass starts after this one drains
        assert ready.pop() is None

    def test_cursor_resets_between_dispatches(self):
        ready = ReadySet()
        ready.push(5)
        assert ready.pop() == 5
        assert ready.pop() is None  # dispatch ends, cursor reset
        ready.push(1)
        assert ready.pop() == 1


# ---------------------------------------------------------------------------
# Circular-buffer cached aggregates
# ---------------------------------------------------------------------------

class TestBufferCaching:
    def brute_force(self, buffer):
        producers = [w for w in buffer._producers.values() if w.active] or list(
            buffer._producers.values()
        )
        consumers = [w for w in buffer._consumers.values() if w.active] or list(
            buffer._consumers.values()
        )
        produced = min((w.released for w in producers), default=buffer._initial)
        consumed = min((w.released for w in consumers), default=0) if buffer._consumers else 0
        return produced - consumed

    def test_cached_tokens_track_mutations(self):
        buffer = CircularBuffer("b", 8, initial_values=[1, 2])
        buffer.register_producer("p1")
        buffer.register_producer("p2")
        buffer.register_consumer("c")
        assert buffer.tokens_available == self.brute_force(buffer)
        buffer.produce("p1", [10, 11], 2)
        assert buffer.tokens_available == self.brute_force(buffer)  # p2 lags
        buffer.produce("p2", None, 2)
        # 2 initial values + 2 released past by every producer
        assert buffer.tokens_available == self.brute_force(buffer) == 4
        buffer.consume("c", 1)
        assert buffer.tokens_available == self.brute_force(buffer) == 3

    def test_cache_invalidated_on_activation_change(self):
        buffer = CircularBuffer("b", 8)
        buffer.register_producer("fast")
        buffer.register_producer("slow")
        buffer.register_consumer("c")
        buffer.produce("fast", [1, 2, 3], 3)
        assert buffer.tokens_available == 0  # slow producer holds the floor
        buffer.set_producer_active("slow", False)
        assert buffer.tokens_available == 3  # floor recomputed without it
        buffer.set_producer_active("slow", True)
        assert buffer.tokens_available == 0

    def test_cache_invalidated_on_window_advance(self):
        buffer = CircularBuffer("b", 8)
        buffer.register_producer("p")
        buffer.register_consumer("a")
        buffer.register_consumer("b")
        buffer.produce("p", [1, 2, 3, 4], 4)
        buffer.consume("a", 4)
        assert buffer.space_available == 4  # consumer b pins the space floor
        buffer.advance_consumer_to("b", 4)
        assert buffer.space_available == 8

    def test_watchers_fire_exactly_on_floor_change(self):
        buffer = CircularBuffer("b", 8)
        buffer.register_producer("p1")
        buffer.register_producer("p2")
        buffer.register_consumer("c")
        events = []
        buffer.watch_tokens(lambda: events.append("tokens"))
        buffer.watch_space(lambda: events.append("space"))

        buffer.produce("p1", [1], 1)
        assert events == []  # p2 still at 0: the floor did not move
        buffer.produce("p2", None, 1)
        assert events == ["tokens"]  # now every producer released past 0
        buffer.consume("c", 1)
        assert events == ["tokens", "space"]

    def test_can_produce_no_consumer_bound_by_capacity(self):
        # The cleaned-up arithmetic: without consumers the bound is capacity.
        buffer = CircularBuffer("b", 2)
        buffer.register_producer("p")
        assert buffer.can_produce("p", 2)
        assert not buffer.can_produce("p", 3)
        buffer.produce("p", [1, 2], 2)
        assert not buffer.can_produce("p", 1)


# ---------------------------------------------------------------------------
# Scheduler equivalence: the engine vs the brute-force polling oracle
# ---------------------------------------------------------------------------

def engine_and_oracle(run):
    """``run()`` once on the engine's own loop and once under the polling
    oracle (tests/dispatch_oracle.py)."""
    candidate = run()
    with polling_dispatch():
        reference = run()
    return reference, candidate


class TestDispatcherEquivalence:
    def test_quickstart_traces_identical(self):
        analysis = Program.from_app("quickstart").analyze()
        traces = [
            result.trace for result in engine_and_oracle(lambda: analysis.run(Fraction(1, 5)))
        ]
        assert len(traces[0].firings) > 100
        assert_traces_identical(*traces)

    def test_rate_converter_traces_identical(self):
        # The Fig. 2 rate-conversion task graph, executed self-timed.
        a, b = engine_and_oracle(
            lambda: run_tasks(tasks_from_sdf(fig2_task_graph(), iterations=40),
                              stop_after_firings=150)
        )
        assert len(a.trace.firings) >= 150
        assert_traces_identical(a.trace, b.trace)

    def test_pal_decoder_traces_identical(self):
        analysis = Program.from_app("pal_decoder", scale=1000).analyze()
        traces = [
            result.trace for result in engine_and_oracle(lambda: analysis.run(Fraction(1, 20)))
        ]
        assert len(traces[0].firings) > 500
        assert_traces_identical(*traces)

    def test_modal_mode_switching_traces_identical(self):
        # Mode switches (de)activate whole loops: the ready-set dispatcher
        # must re-examine tasks whose eligibility changed without any buffer
        # floor moving.
        analysis = Program.from_app("modal_two_mode").analyze()
        traces = [
            result.trace for result in engine_and_oracle(lambda: analysis.run(Fraction(1, 5)))
        ]
        assert len(traces[0].firings) > 100
        assert_traces_identical(*traces)

    def test_ring_traces_identical(self):
        a, b = engine_and_oracle(
            lambda: run_tasks(ring_program(60, tokens=5, stagger=7), stop_after_firings=600)
        )
        assert a.engine.completed_firings == b.engine.completed_firings == 600
        assert_traces_identical(a.trace, b.trace)

    def test_bounded_processors_traces_identical(self):
        # A gating policy: eligible-but-denied tasks stall and re-queue.
        a, b = engine_and_oracle(
            lambda: run_tasks(ring_program(10, tokens=2), policy=BoundedProcessors(2),
                              stop_after_firings=500)
        )
        assert a.engine.completed_firings == b.engine.completed_firings == 500
        assert_traces_identical(a.trace, b.trace)

    def test_static_order_traces_identical(self):
        # The SDF sequential baseline: a single processor replaying the
        # generated program's schedule.
        graph = rate_conversion_graph(3, 2)
        program = generate_sequential_program(graph)
        a, b = engine_and_oracle(
            lambda: run_tasks(tasks_from_sdf(graph, iterations=3),
                              policy=static_order_policy(graph),
                              stop_after_firings=len(program.schedule) * 3)
        )
        assert a.firing_sequence() == b.firing_sequence() == program.schedule * 3
        assert_traces_identical(a.trace, b.trace)

    def test_fraction_time_base_traces_identical(self):
        # The dispatch loop runs on both time bases; Fraction timestamps
        # must not change what it dispatches.
        with fraction_time_base():
            a, b = engine_and_oracle(
                lambda: run_tasks(ring_program(30, tokens=4, stagger=2),
                                  stop_after_firings=2000)
            )
        assert b.queue.timebase is None and b.engine.kernel_active
        assert a.engine.completed_firings == b.engine.completed_firings == 2000
        assert_traces_identical(a.trace, b.trace)


@st.composite
def fleet_shapes(draw):
    """A fleet factory: a ring of the shapes ``generated_rings`` draws, or a
    fork-join diamond of width 1-6."""
    if draw(st.booleans()):
        task_count, shape, _, _ = draw(generated_rings())
        return functools.partial(ring_program, task_count, **shape)
    return functools.partial(
        fork_join_program,
        draw(st.integers(1, 6)),
        worker_wcet=Fraction(draw(st.integers(1, 5)), 1000),
        overhead_wcet=Fraction(draw(st.integers(1, 3)), 1000),
    )


@st.composite
def generated_fleets(draw):
    """A fleet factory (``fleet_shapes``) and a policy factory:
    ``SelfTimedUnbounded``, ``BoundedProcessors(n)``, or
    ``ListScheduledPlatform`` / ``PartitionedHeterogeneous`` on 1-3
    processors of speeds 1 and 2 (homogeneous or mixed)."""
    build = draw(fleet_shapes())
    family = draw(st.sampled_from(["self-timed", "bounded", "list-scheduled", "partitioned"]))
    processors = draw(st.integers(1, 3))
    if family == "self-timed":
        return build, SelfTimedUnbounded
    if family == "bounded":
        return build, functools.partial(BoundedProcessors, processors)
    speeds = draw(st.lists(st.sampled_from([1, 2]), min_size=processors, max_size=processors))
    policy = ListScheduledPlatform if family == "list-scheduled" else PartitionedHeterogeneous
    return build, functools.partial(policy, Platform.heterogeneous(speeds))


@given(generated_fleets())
@settings(max_examples=60, deadline=None)
def test_engine_equals_polling_oracle_on_generated_fleets(case):
    build, make_policy = case

    def run():
        policy = make_policy()
        return run_tasks(build(), policy=policy, stop_after_firings=400, fast_forward=False)

    reference, candidate = engine_and_oracle(run)
    assert candidate.engine.completed_firings == reference.engine.completed_firings == 400
    assert_traces_identical(reference.trace, candidate.trace)
    assert candidate.queue.processed == reference.queue.processed


# ---------------------------------------------------------------------------
# The wake rule: only tasks that can fire are queued
# ---------------------------------------------------------------------------

@pytest.fixture
def pushes(monkeypatch):
    """Every ``ReadySet.push`` call's index, recorded by a test-side wrapper
    (the engine keeps no such counter)."""
    calls = []
    original = ReadySet.push

    def push(self, index):
        calls.append(index)
        original(self, index)

    monkeypatch.setattr(ReadySet, "push", push)
    return calls


class TestWakeRule:
    @pytest.mark.parametrize(
        "app, started, processed",
        [
            ("pal_decoder", 17_479, 48_670),
            ("quickstart", 1_000, 8_000),
            ("modal_two_mode", 2_000, 16_000),
        ],
    )
    def test_every_push_starts_a_firing(self, pushes, app, started, processed):
        # Self-timed, naive, 1 s: a task is queued only when it can fire, so
        # no pushed task is popped and skipped, and no wake queues a task
        # twice.  The event count does not depend on which wakes pushed.
        result = Program.from_app(app).analyze().run(
            Fraction(1), fast_forward=False, trace="off"
        )
        simulation = result.simulation
        assert simulation.engine.started_firings == started
        assert len(pushes) == started
        assert simulation.queue.processed == processed


# ---------------------------------------------------------------------------
# StaticOrder: the sequential baseline as a policy
# ---------------------------------------------------------------------------

class TestStaticOrderPolicy:
    @pytest.mark.parametrize("produce,consume", [(3, 2), (5, 3), (4, 7)])
    def test_matches_generated_sequential_program(self, produce, consume):
        graph = rate_conversion_graph(produce, consume)
        program = generate_sequential_program(graph)
        iterations = 3
        run = run_tasks(
            tasks_from_sdf(graph, iterations=iterations),
            policy=static_order_policy(graph),
            stop_after_firings=len(program.schedule) * iterations,
        )
        assert run.firing_sequence() == program.schedule * iterations

    def test_static_order_is_serial(self):
        graph = rate_conversion_graph(3, 2)
        run = run_tasks(
            tasks_from_sdf(graph, iterations=3),
            policy=static_order_policy(graph),
            stop_after_firings=10,
        )
        firings = sorted(run.trace.firings, key=lambda f: (f.start, f.end))
        for earlier, later in zip(firings, firings[1:]):
            assert earlier.end <= later.start

    def test_non_cyclic_schedule_stops_after_one_iteration(self):
        graph = rate_conversion_graph(3, 2)
        program = generate_sequential_program(graph)
        run = run_tasks(
            tasks_from_sdf(graph, iterations=3),
            policy=StaticOrder(program.schedule, cyclic=False),
            stop_after_firings=100,
        )
        assert run.firing_sequence() == program.schedule

    def test_deadlocking_graph_rejected(self):
        from repro.dataflow.sdf import SDFGraph

        graph = SDFGraph("dead")
        graph.add_actor("a")
        graph.add_actor("b")
        graph.add_edge("ab", "a", "b")
        graph.add_edge("ba", "b", "a")  # no initial tokens: deadlock
        with pytest.raises(ValueError):
            static_order_policy(graph)

    def _init_plus_loop_program(self):
        """A 2-task steady-state ring plus a one-shot init task that is
        eligible at t = 0 alongside the first steady-state firing."""
        registry = FunctionRegistry()
        registry.register("fa", lambda value: value)
        registry.register("fb", lambda value: value)
        registry.register("fi", lambda: 1.0)

        def make(name, reads, writes, *, one_shot=False):
            task = Task(name=name, kind="call", function=f"f{name}",
                        firing_duration=Fraction(1))
            task.reads = [Access(buffer.name, 1) for buffer in reads]
            task.writes = [Access(buffer.name, 1) for buffer in writes]
            runtime = RuntimeTask(
                name=name,
                task=task,
                instance="so",
                registry=registry,
                buffers={buffer.name: buffer for buffer in (*reads, *writes)},
                wcet=Fraction(1),
                one_shot=one_shot,
            )
            key = runtime.producer_key()
            for buffer in reads:
                buffer.register_consumer(key)
            for buffer in writes:
                buffer.register_producer(key)
            return runtime

        ring_in = CircularBuffer("so/ring_in", 2, initial_values=[0.0])
        ring_out = CircularBuffer("so/ring_out", 2)
        seed = CircularBuffer("so/seed", 2)
        # init first: extraction orders one-shots before the loop tasks
        return [
            make("i", [], [seed], one_shot=True),
            make("a", [ring_in], [ring_out]),
            make("b", [ring_out], [ring_in]),
        ]

    def test_stale_completion_does_not_corrupt_schedule_position(self):
        # Mirror of the BoundedProcessors hardening: a stale completion
        # arriving after reset() must not advance the schedule position or
        # clear an in-flight flag it does not own.
        policy = StaticOrder(["a", "b"])
        (processor,) = policy.processors

        class _Steady:
            one_shot = False

        task = _Steady()
        policy.on_start(task, processor)
        policy.reset()  # run stopped mid-flight, engine resets the policy
        policy.on_complete(task, processor)  # stale completion of the old run
        assert policy.position == 0
        assert policy.current() == "a"
        policy.on_start(task, processor)
        policy.on_complete(task, processor)
        assert policy.position == 1

    def test_default_key_policy_is_picklable(self):
        # Process-parallel sweeps ship scheduler instances to worker
        # processes; the default schedule key must therefore be a module
        # level function, not a lambda.  A pickled copy keeps behaving.
        import pickle

        policy = StaticOrder(["a", "b"], cyclic=False)
        revived = pickle.loads(pickle.dumps(policy))
        assert revived.order == ["a", "b"]
        assert revived.current() == "a"

        class _Steady:
            one_shot = False
            name = "a"

        assert revived.decide_start(_Steady()) is not None

    def test_one_shot_cannot_overlap_in_flight_firing(self):
        # Regression: one-shot init tasks were admitted unconditionally, so
        # an init firing could start while a steady-state firing was in
        # flight -- two firings on the supposedly single processor.
        run = run_tasks(
            self._init_plus_loop_program(),
            policy=StaticOrder(["a", "b"]),
            stop_after_firings=5,
        )
        firings = sorted(run.trace.firings, key=lambda f: (f.start, f.end))
        assert any(f.task == "so:i" for f in firings)  # the init did fire
        for earlier, later in zip(firings, firings[1:]):
            assert earlier.end <= later.start, (
                f"{earlier.task} (ends {earlier.end}) overlaps "
                f"{later.task} (starts {later.start})"
            )


# ---------------------------------------------------------------------------
# BoundedProcessors: Fig. 4 speedup scenarios
# ---------------------------------------------------------------------------

class TestBoundedProcessors:
    def test_one_processor_serialises(self):
        run = run_tasks(
            fork_join_program(4), policy=BoundedProcessors(1), stop_after_firings=30
        )
        firings = sorted(run.trace.firings, key=lambda f: (f.start, f.end))
        for earlier, later in zip(firings, firings[1:]):
            assert earlier.end <= later.start

    def test_speedup_curve_is_monotone(self):
        makespans = {}
        for processors in (1, 2, 4, 8):
            run = run_tasks(
                fork_join_program(8),
                policy=BoundedProcessors(processors),
                stop_after_firings=50,
            )
            assert run.engine.completed_firings == 50
            makespans[processors] = run.makespan
        assert makespans[1] >= makespans[2] >= makespans[4] >= makespans[8]
        # near-linear scaling on the embarrassingly parallel rounds
        assert makespans[1] / makespans[8] > 4

    def test_matches_unbounded_when_processors_exceed_tasks(self):
        tasks_bounded = ring_program(20, tokens=4)
        tasks_unbounded = ring_program(20, tokens=4)
        a = run_tasks(tasks_bounded, policy=BoundedProcessors(64),
                      stop_after_firings=200)
        b = run_tasks(tasks_unbounded, policy=SelfTimedUnbounded(),
                      stop_after_firings=200)
        assert_traces_identical(a.trace, b.trace)

    def test_invalid_processor_count_rejected(self):
        with pytest.raises(ValueError):
            BoundedProcessors(0)

    def test_policy_instance_reusable_across_runs(self):
        # A run stopped mid-flight leaves in-flight firings whose completions
        # never ran; the next engine must reset the processor accounting or
        # the policy would refuse every start forever.
        policy = BoundedProcessors(1)
        first = run_tasks(fork_join_program(4), policy=policy, stop_after_firings=7)
        assert first.engine.completed_firings >= 7
        second = run_tasks(fork_join_program(4), policy=policy, stop_after_firings=12)
        assert second.engine.completed_firings >= 12

    def test_stale_completion_cannot_over_admit(self):
        # A run stopped mid-flight leaves completions that never fired; when
        # the policy is reset (or reused) and such a stale completion still
        # arrives, it must not free the processor a later firing occupies,
        # or the policy would over-admit starts ever after.
        policy = BoundedProcessors(1)
        (processor,) = policy.processors
        old, current = object(), object()
        policy.on_start(old, processor)
        policy.reset()  # the engine resets between runs
        policy.on_complete(old, processor)  # stale completion of the old run
        assert policy.decide_start(current) is not None
        policy.on_start(current, processor)
        policy.on_complete(old, processor)  # stale again, while current runs
        assert policy.decide_start(object()) is None

    def test_makespan_available_with_tracing_off(self):
        run = run_tasks(
            ring_program(20, tokens=4),
            policy=BoundedProcessors(2),
            stop_after_firings=100,
            trace=TraceRecorder(level="off"),
        )
        assert run.trace.firings == []
        assert run.makespan > 0


# ---------------------------------------------------------------------------
# Double-start regression
# ---------------------------------------------------------------------------

class TestDriverStartIdempotence:
    def test_run_twice_does_not_duplicate_periodic_events(self, quickstart_sized):
        result, sizing = quickstart_sized
        simulation = Simulation(
            result,
            quickstart_registry(),
            source_signals={"samples": [float(i) for i in range(10000)]},
            capacities=sizing.capacities,
        )
        simulation.run(Fraction(1, 100))
        trace = simulation.run(Fraction(2, 100))  # continues to t = 2/100
        source = simulation.sources["samples"]
        # 2 kHz source over 20 ms: 41 ticks (t=0 inclusive) -- a duplicated
        # tick chain would produce roughly twice that.
        assert source.produced <= 41
        assert trace.deadline_miss_count() == 0

    def test_double_start_matches_single_run_trace(self, quickstart_sized):
        result, sizing = quickstart_sized
        signal = [float(i) for i in range(10000)]

        def build():
            return Simulation(
                result,
                quickstart_registry(),
                source_signals={"samples": list(signal)},
                capacities=sizing.capacities,
            )

        reference = build()
        reference.run(Fraction(2, 100))
        restarted = build()
        restarted.run(Fraction(1, 100))
        restarted.run(Fraction(2, 100))
        assert_traces_identical(reference.trace, restarted.trace)


# ---------------------------------------------------------------------------
# Trace levels
# ---------------------------------------------------------------------------

class TestTraceLevels:
    def test_off_records_nothing(self, quickstart_sized):
        result, sizing = quickstart_sized
        run = Analysis(quickstart_program(), result, sizing=sizing).run(
            Fraction(1, 20), trace="off"
        )
        simulation, trace = run.simulation, run.trace
        assert trace.firings == []
        assert trace.endpoint_events == []
        assert trace.violations == []
        # the buffers keep their own marks: every level reports them
        full = Analysis(quickstart_program(), result, sizing=sizing).run(Fraction(1, 20)).trace
        assert full.buffer_high_water
        assert trace.buffer_high_water == full.buffer_high_water
        # the simulation itself still ran
        assert len(simulation.sinks["averages"].consumed) > 0

    def test_endpoints_level_skips_firings_keeps_measurements(self, quickstart_sized):
        result, sizing = quickstart_sized
        trace = Analysis(quickstart_program(), result, sizing=sizing).run(
            Fraction(1, 20), trace="endpoints"
        ).trace
        full = Analysis(quickstart_program(), result, sizing=sizing).run(Fraction(1, 20)).trace
        assert trace.firings == []
        assert full.buffer_high_water
        assert trace.buffer_high_water == full.buffer_high_water
        assert len(trace.endpoint_events) > 0
        assert trace.measured_rate("averages") is not None

    def test_full_level_unchanged(self, quickstart_sized):
        result, sizing = quickstart_sized
        trace = Analysis(quickstart_program(), result, sizing=sizing).run(
            Fraction(1, 20), trace="full"
        ).trace
        assert len(trace.firings) > 0
        assert len(trace.buffer_high_water) > 0

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(level="verbose")

    def test_sink_values_identical_across_levels(self, quickstart_sized):
        result, sizing = quickstart_sized
        consumed = {}
        for level in ("off", "endpoints", "full"):
            simulation = Analysis(quickstart_program(), result, sizing=sizing).run(
                Fraction(1, 20), trace=level
            ).simulation
            consumed[level] = list(simulation.sinks["averages"].consumed)
        assert consumed["off"] == consumed["endpoints"] == consumed["full"]
