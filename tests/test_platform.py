"""Tests for the platform subsystem (processors, platform policies, engine
suspend/resume) and its plumbing through the facade.

The two load-bearing guarantees:

* **Degenerate equivalence** -- the engine's built-in policies
  (self-timed, bounded processors, static order) and their twins on a
  described platform produce *bit-identical* traces on all four packaged
  applications and on the synthetic scheduler workloads.
* **Exact preemption accounting** -- a preempted firing is suspended with
  its exact remaining work (native tick arithmetic, no drift), resumes --
  possibly on a different-speed processor -- and completes at the exactly
  predicted instant, with per-processor busy time adding up.
"""

from fractions import Fraction

import pytest

from repro.api import Program
from repro.api.program import Analysis
from repro.api.sweep import Sweep
from repro.apps.modal_audio import two_mode_program
from repro.apps.pal_decoder import PalDecoderApp
from repro.apps.producer_consumer import quickstart_program
from repro.apps.rate_converter import fig2_program
from repro.baselines.sequential_schedule import (
    generate_sequential_program,
    rate_conversion_graph,
)
from repro.engine import (
    BoundedProcessors,
    ExecutionEngine,
    SelfTimedUnbounded,
    StaticOrder,
    fork_join_program,
    ring_program,
    run_tasks,
    tasks_from_sdf,
)
from repro.graph.circular_buffer import CircularBuffer
from repro.graph.taskgraph import Access, Task
from repro.platform import (
    FixedPriorityPreemptive,
    ListScheduledPlatform,
    PartitionedHeterogeneous,
    Platform,
    Processor,
    SelfTimedPlatform,
    StaticOrderPlatform,
)
from repro.runtime.events import EventQueue
from repro.runtime.functions import FunctionRegistry
from repro.runtime.tasks import RuntimeTask
from repro.runtime.trace import TraceRecorder
from repro.util.rational import TimeBase


def assert_traces_identical(a, b):
    assert a.firings == b.firings
    assert a.endpoint_events == b.endpoint_events
    assert a.violations == b.violations
    assert a.buffer_high_water == b.buffer_high_water


# ---------------------------------------------------------------------------
# Platform model
# ---------------------------------------------------------------------------

class TestPlatformModel:
    def test_processor_speed_is_exact_rational(self):
        processor = Processor("p0", speed=0.5)
        assert processor.speed == Fraction(1, 2)
        assert processor.duration_of(Fraction(1, 100)) == Fraction(1, 50)

    def test_processor_rejects_non_positive_speed(self):
        with pytest.raises(ValueError):
            Processor("p0", speed=0)
        with pytest.raises(ValueError):
            Processor("p0", speed=-1)

    def test_duplicate_processor_names_rejected(self):
        with pytest.raises(ValueError):
            Platform([Processor("p0"), Processor("p0")])

    def test_mapping_to_unknown_processor_rejected(self):
        with pytest.raises(ValueError):
            Platform([Processor("p0")], mapping={"t": "p9"})

    def test_homogeneous_builder(self):
        platform = Platform.homogeneous(3)
        assert [p.name for p in platform] == ["p0", "p1", "p2"]
        assert platform.speeds == (1, 1, 1)
        assert not platform.is_unbounded

    def test_heterogeneous_builder_and_scaled_durations(self):
        platform = Platform.heterogeneous([2, 1, 1])
        wcet = Fraction(1, 100)
        scaled = set(platform.scaled_durations([wcet]))
        assert scaled == {Fraction(1, 100), Fraction(1, 200)}

    def test_unbounded_platform(self):
        platform = Platform.unbounded()
        assert platform.is_unbounded
        assert len(platform) == 0
        assert isinstance(platform.policy(), SelfTimedPlatform)

    def test_default_policy_selection(self):
        assert isinstance(Platform.homogeneous(2).policy(), ListScheduledPlatform)
        mapped = Platform.heterogeneous([2, 1], mapping={"a": "p0"})
        assert isinstance(mapped.policy(), PartitionedHeterogeneous)

    def test_platform_is_picklable_and_value_equal(self):
        import pickle

        platform = Platform.heterogeneous([2, 1], mapping={"a": "p0"}, name="pal")
        revived = pickle.loads(pickle.dumps(platform))
        assert revived == platform
        assert hash(revived) == hash(platform)
        assert revived.processor("p0").speed == 2


# ---------------------------------------------------------------------------
# Degenerate equivalence on the packaged applications
# ---------------------------------------------------------------------------

#: (built-in policy factory, described-platform twin factory) pairs that
#: must be observationally indistinguishable.
DEGENERATE_PAIRS = [
    ("self-timed", lambda: SelfTimedUnbounded(), lambda: SelfTimedPlatform()),
    *[
        (
            f"bounded-{n}",
            (lambda n=n: BoundedProcessors(n)),
            (lambda n=n: ListScheduledPlatform(Platform.homogeneous(n))),
        )
        for n in (1, 2, 4)
    ],
]


@pytest.fixture(scope="module")
def app_analyses(pal_sized, quickstart_sized, two_mode_sized):
    """(name, analysis, duration) per packaged application, reusing the
    session-cached compilations."""
    pal_result, pal_sizing = pal_sized
    quick_result, quick_sizing = quickstart_sized
    two_result, two_sizing = two_mode_sized
    rc_program = fig2_program()
    entries = [
        ("quickstart", Analysis(quickstart_program(), quick_result, sizing=quick_sizing), Fraction(1, 10)),
        ("pal_decoder", Analysis(PalDecoderApp(scale=1000).program(), pal_result, sizing=pal_sizing), Fraction(1, 20)),
        ("modal_two_mode", Analysis(two_mode_program(), two_result, sizing=two_sizing), Fraction(1, 5)),
        ("rate_converter", rc_program.analyze(), Fraction(1, 5)),
    ]
    return entries


class TestDegenerateEquivalenceOnApps:
    @pytest.mark.parametrize(
        "label,legacy,platform", DEGENERATE_PAIRS, ids=[p[0] for p in DEGENERATE_PAIRS]
    )
    def test_traces_bit_identical_on_all_four_apps(
        self, app_analyses, label, legacy, platform
    ):
        for name, analysis, duration in app_analyses:
            reference = analysis.run(duration, scheduler=legacy())
            candidate = analysis.run(duration, scheduler=platform())
            assert len(reference.trace.firings) > 0, name
            assert_traces_identical(reference.trace, candidate.trace)
            for sink in reference.simulation.sinks:
                assert reference.sink(sink) == candidate.sink(sink), (name, label, sink)

    def test_platform_runs_account_busy_time(self, app_analyses):
        _, analysis, duration = app_analyses[0]
        run = analysis.run(duration, scheduler=ListScheduledPlatform(Platform.homogeneous(2)))
        busy = run.processor_busy
        assert set(busy) == {"p0", "p1"}
        assert sum(busy.values()) > 0
        utilisation = run.processor_utilisation()
        assert all(0.0 <= value <= 1.0 for value in utilisation.values())


class TestDegenerateEquivalenceSynthetic:
    def test_self_timed_ring_traces_identical(self):
        a = run_tasks(ring_program(60, tokens=5, stagger=7), policy=SelfTimedUnbounded(),
                      stop_after_firings=600)
        b = run_tasks(ring_program(60, tokens=5, stagger=7), policy=SelfTimedPlatform(),
                      stop_after_firings=600)
        assert a.engine.completed_firings == b.engine.completed_firings == 600
        assert_traces_identical(a.trace, b.trace)

    @pytest.mark.parametrize("processors", [1, 2, 4])
    def test_bounded_fork_join_traces_identical(self, processors):
        a = run_tasks(fork_join_program(8), policy=BoundedProcessors(processors),
                      stop_after_firings=50)
        b = run_tasks(
            fork_join_program(8),
            policy=ListScheduledPlatform(Platform.homogeneous(processors)),
            stop_after_firings=50,
        )
        assert_traces_identical(a.trace, b.trace)

    @pytest.mark.parametrize("produce,consume", [(3, 2), (5, 3), (4, 7)])
    def test_static_order_matches_legacy_policy(self, produce, consume):
        graph = rate_conversion_graph(produce, consume)
        program = generate_sequential_program(graph)
        iterations = 3
        firings = len(program.schedule) * iterations
        a = run_tasks(
            tasks_from_sdf(graph, iterations=iterations),
            policy=StaticOrder(program.schedule),
            stop_after_firings=firings,
        )
        b = run_tasks(
            tasks_from_sdf(graph, iterations=iterations),
            policy=StaticOrderPlatform(program.schedule),
            stop_after_firings=firings,
        )
        assert a.firing_sequence() == b.firing_sequence() == program.schedule * iterations
        assert_traces_identical(a.trace, b.trace)

    def test_run_tasks_accepts_platform_shorthand(self):
        run = run_tasks(
            ring_program(20, tokens=4),
            platform=Platform.homogeneous(2),
            stop_after_firings=100,
        )
        assert run.engine.completed_firings == 100
        assert set(run.engine.processor_busy_time) == {"p0", "p1"}

    def test_run_tasks_rejects_policy_and_platform_together(self):
        with pytest.raises(ValueError):
            run_tasks(
                ring_program(10, tokens=2),
                policy=SelfTimedUnbounded(),
                platform=Platform.homogeneous(2),
            )


# ---------------------------------------------------------------------------
# Preemption: suspend / resume with exact tick accounting
# ---------------------------------------------------------------------------

def _black_box_task(name, registry, reads, writes, wcet, one_shot=False):
    task = Task(name=name, kind="call", function=name, firing_duration=wcet)
    task.reads = [Access(buffer.name, count) for buffer, count in reads]
    task.writes = [Access(buffer.name, count) for buffer, count in writes]
    buffers = {buffer.name: buffer for buffer, _ in (*reads, *writes)}
    runtime = RuntimeTask(
        name=name,
        task=task,
        instance="fp",
        registry=registry,
        buffers=buffers,
        wcet=Fraction(wcet),
        one_shot=one_shot,
    )
    key = runtime.producer_key()
    for buffer, _ in reads:
        buffer.register_consumer(key)
    for buffer, _ in writes:
        buffer.register_producer(key)
    return runtime


class TestFixedPriorityPreemption:
    def _high_low_scenario(self):
        """A single processor: low-priority task L fires [0, 10]; an external
        token at t = 3 makes high-priority H eligible mid-firing."""
        registry = FunctionRegistry()
        registry.register("h", lambda value: value)
        registry.register("l", lambda value: value + 1.0)
        h_in = CircularBuffer("fp/h_in", 4)
        h_in.register_producer("ext")
        h_out = CircularBuffer("fp/h_out", 8)
        loop = CircularBuffer("fp/l_loop", 2, initial_values=[0.0])
        # registration order is the default priority order: H outranks L
        high = _black_box_task("h", registry, reads=[(h_in, 1)], writes=[(h_out, 1)], wcet=2)
        low = _black_box_task("l", registry, reads=[(loop, 1)], writes=[(loop, 1)], wcet=10)
        return registry, h_in, high, low

    def test_high_priority_task_preempts_mid_firing_exact_ticks(self):
        _, h_in, high, low = self._high_low_scenario()
        queue = EventQueue(TimeBase(1))  # 1-second ticks: all wcets integral
        trace = TraceRecorder()
        engine = ExecutionEngine(
            queue, trace, policy=FixedPriorityPreemptive(Platform.homogeneous(1))
        )
        engine.register_task(high)
        engine.register_task(low)
        engine.wire_buffers()
        engine.wake_all()
        engine.schedule_dispatch()
        queue.schedule(3, lambda: h_in.produce("ext", [1.0], 1), label="ext-token")
        queue.run_until(100, stop=lambda: engine.completed_firings >= 2)

        # H fired [3, 5]; L started at 0, lost [3, 5] to H, finished at 12.
        assert [(f.task, f.start, f.end) for f in trace.firings] == [
            ("fp:h", Fraction(3), Fraction(5)),
            ("fp:l", Fraction(0), Fraction(12)),
        ]
        assert engine.preemptions == 1
        assert engine.resumes == 1
        assert low.preemptions == 1
        assert not low.suspended  # resumed and completed
        # the single processor was busy the whole [0, 12] window
        assert engine.processor_busy_time == {"p0": Fraction(12)}

    def test_suspension_state_is_observable_mid_flight(self):
        _, h_in, high, low = self._high_low_scenario()
        queue = EventQueue(TimeBase(1))
        engine = ExecutionEngine(
            queue, TraceRecorder(), policy=FixedPriorityPreemptive(Platform.homogeneous(1))
        )
        engine.register_task(high)
        engine.register_task(low)
        engine.wire_buffers()
        engine.wake_all()
        engine.schedule_dispatch()
        queue.schedule(3, lambda: h_in.produce("ext", [1.0], 1), label="ext-token")
        queue.run_until(4)  # H has preempted L, neither completed
        assert low.suspended and low.busy
        assert engine.suspended_tasks == [low]
        # the preempted completion event sits cancelled in the heap
        assert queue.cancelled_pending == 1
        queue.run_until(20, stop=lambda: engine.completed_firings >= 2)
        assert engine.suspended_tasks == []
        assert queue.cancelled_pending == 0

    def test_preempted_firing_migrates_and_rescales_remaining_work(self):
        """L2 is preempted on the half-speed p1 and resumes on the full-speed
        p0: the remaining work must be rescaled by the exact speed ratio."""
        registry = FunctionRegistry()
        registry.register("h", lambda value: value)
        registry.register("l1", lambda value: value)
        registry.register("l2", lambda value: value)
        h_in = CircularBuffer("fp/h_in", 4)
        h_in.register_producer("ext")
        h_out = CircularBuffer("fp/h_out", 8)
        loop1 = CircularBuffer("fp/loop1", 2, initial_values=[0.0])
        loop2 = CircularBuffer("fp/loop2", 2, initial_values=[0.0])
        high = _black_box_task("h", registry, reads=[(h_in, 1)], writes=[(h_out, 1)], wcet=4)
        low1 = _black_box_task(
            "l1", registry, reads=[(loop1, 1)], writes=[(loop1, 1)], wcet=6, one_shot=True
        )
        low2 = _black_box_task("l2", registry, reads=[(loop2, 1)], writes=[(loop2, 1)], wcet=8)

        platform = Platform(
            [Processor("p0", speed=1), Processor("p1", speed=Fraction(1, 2))]
        )
        queue = EventQueue()  # fraction mode: migration rescale always exact
        trace = TraceRecorder()
        engine = ExecutionEngine(queue, trace, policy=FixedPriorityPreemptive(platform))
        for task in (high, low1, low2):
            engine.register_task(task)
        engine.wire_buffers()
        engine.wake_all()
        engine.schedule_dispatch()
        queue.schedule(Fraction(2), lambda: h_in.produce("ext", [1.0], 1), label="ext")
        queue.run_until(Fraction(40), stop=lambda: engine.completed_firings >= 3)

        first = {}
        for firing in trace.firings:
            first.setdefault(firing.task, (firing.start, firing.end))
        # l1 (one-shot) takes p0 at full speed: [0, 6].  l2 takes the
        # half-speed p1 (8 s of work = 16 s of occupancy).  H arrives at
        # t = 2, preempts the lowest-priority running firing (l2) and runs
        # on p1 at half speed: [2, 10].  l1 frees p0 at 6, so the suspended
        # l2 migrates there: 14 s of p1-time owed = 7 s of work = 7 s on
        # the full-speed p0 -> completes at 13.
        assert first["fp:l1"] == (Fraction(0), Fraction(6))
        assert first["fp:h"] == (Fraction(2), Fraction(10))
        assert first["fp:l2"] == (Fraction(0), Fraction(13))
        assert engine.preemptions == 1 and engine.resumes == 1

    def test_migrating_policy_runs_on_the_derived_grid(self):
        """A remainder accrued at speed s1 and resumed at s2 need not be a
        whole number of ticks.  The run still derives the gcd grid of the
        wcets and every ``wcet / speed``, and posts such a completion at an
        exact fractional tick -- only that instant, and those that follow
        from it, leave the grid."""
        policy = FixedPriorityPreemptive(Platform.heterogeneous([2, 3]))
        assert policy.migrates_across_speeds
        run = run_tasks(
            ring_program(8, tokens=5, wcet=Fraction(1), stagger=3),
            policy=policy,
            stop_after_firings=60,
        )
        resolution = run.queue.timebase.resolution
        assert resolution == Fraction(1, 6)  # wcets 1-3 s at speeds 2 and 3
        assert run.engine.completed_firings >= 60
        assert run.engine.resumes > 0
        # t3 (1 s of work) starts at 1/2 s (tick 3) on the speed-2 p0, is
        # preempted at tick 4 and resumes at tick 8 on the speed-3 p1: the 2
        # ticks owed at speed 2 are 4/3 ticks at speed 3, so it completes
        # at tick 28/3, 14/9 s.
        firings = [(f.task, f.start, f.end) for f in run.trace.firings]
        assert ("ring:t3", Fraction(1, 2), Fraction(14, 9)) in firings
        off_grid = [end for _, _, end in firings if (end / resolution).denominator > 1]
        assert 0 < len(off_grid) < len(firings)
        # same-speed platforms never leave the grid
        homogeneous = FixedPriorityPreemptive(Platform.homogeneous(2))
        assert not homogeneous.migrates_across_speeds
        ticked = run_tasks(
            ring_program(10, tokens=5, wcet=Fraction(1), stagger=3),
            policy=homogeneous,
            stop_after_firings=60,
        )
        assert ticked.queue.timebase is not None
        assert all(
            (firing.end / ticked.queue.timebase.resolution).denominator == 1
            for firing in ticked.trace.firings
        )

    def test_undeclared_migration_runs(self):
        """A policy that resumes firings across speeds without declaring
        :attr:`migrates_across_speeds` runs like the declared one: its
        off-grid remainders are fractional ticks too, not a
        ``TimeBaseError`` (19/320000 s is not a multiple of 1/160000 s)."""

        class Undeclared(FixedPriorityPreemptive):
            @property
            def migrates_across_speeds(self):
                return False

        analysis = Program.from_app("pal_decoder", utilisation=0.8).analyze()
        platform = Platform.heterogeneous([2, 1])
        run = analysis.run(Fraction(1, 8), scheduler=Undeclared(platform))
        declared = analysis.run(Fraction(1, 8), scheduler=FixedPriorityPreemptive(platform))
        assert run.simulation.queue.now_time == Fraction(1, 8)
        assert (run.metrics()["preemptions"], run.deadline_misses) == (803, 370)
        assert (declared.metrics()["preemptions"], declared.deadline_misses) == (803, 370)
        assert run.trace.firings == declared.trace.firings

    def test_busy_time_includes_segment_cut_by_the_horizon(self):
        """A firing still running when the horizon ends the run must count
        its executed segment, or saturated processors under-report -- up to
        the exact horizon, although the derived 10 s tick floors it to 0."""
        registry = FunctionRegistry()
        registry.register("l", lambda value: value)
        loop = CircularBuffer("fp/l_loop", 2, initial_values=[0.0])
        task = _black_box_task("l", registry, reads=[(loop, 1)], writes=[(loop, 1)], wcet=10)
        run = run_tasks(
            [task],
            policy=ListScheduledPlatform(Platform.homogeneous(1)),
            horizon=Fraction(4),
        )
        assert run.queue.timebase.resolution == Fraction(10)
        assert run.queue.now == 0 and run.queue.now_time == Fraction(4)
        assert run.engine.completed_firings == 0  # cut mid-firing
        assert run.engine.processor_busy_time == {"p0": Fraction(4)}

    def test_preemptive_run_preserves_data_semantics(self, quickstart_sized):
        """Preemption reshapes timing only: sink values match the default
        self-timed run value-for-value."""
        result, sizing = quickstart_sized
        analysis = Analysis(quickstart_program(), result, sizing=sizing)
        reference = analysis.run(Fraction(1, 10))
        preemptive = analysis.run(
            Fraction(1, 10),
            scheduler=FixedPriorityPreemptive(Platform.homogeneous(2)),
        )
        assert preemptive.sink("averages") == reference.sink("averages")
        assert preemptive.deadline_misses == 0


# ---------------------------------------------------------------------------
# Partitioned heterogeneous scheduling
# ---------------------------------------------------------------------------

class TestPartitionedHeterogeneous:
    def test_firing_duration_scales_with_pinned_processor_speed(self):
        registry = FunctionRegistry()
        registry.register("a", lambda value: value)
        registry.register("b", lambda value: value)
        loop_a = CircularBuffer("ph/a", 2, initial_values=[0.0])
        loop_b = CircularBuffer("ph/b", 2, initial_values=[0.0])
        task_a = _black_box_task("a", registry, reads=[(loop_a, 1)], writes=[(loop_a, 1)], wcet=2)
        task_b = _black_box_task("b", registry, reads=[(loop_b, 1)], writes=[(loop_b, 1)], wcet=2)
        platform = Platform.heterogeneous([2, 1], mapping={"a": "p0", "b": "p1"})
        run = run_tasks(
            [task_a, task_b],
            policy=PartitionedHeterogeneous(platform),
            stop_after_firings=4,
        )
        by_task = {}
        for firing in run.trace.firings:
            by_task.setdefault(firing.task, []).append(firing.end - firing.start)
        assert by_task["fp:a"][0] == Fraction(1)  # wcet 2 at speed 2
        assert by_task["fp:b"][0] == Fraction(2)  # wcet 2 at speed 1

    def test_round_robin_fallback_pins_every_task(self):
        tasks = ring_program(6, tokens=2)
        policy = PartitionedHeterogeneous(Platform.homogeneous(2))
        run = run_tasks(tasks, policy=policy, stop_after_firings=30)
        assert run.engine.completed_firings == 30
        pinned = {policy.processor_of(task).name for task in tasks}
        assert pinned == {"p0", "p1"}

    def test_partitioned_serialises_per_processor(self):
        """Two tasks pinned to one processor never overlap; tasks on
        different processors may."""
        tasks = ring_program(4, tokens=2)
        mapping = {task.name: "p0" for task in tasks}
        platform = Platform.homogeneous(2, name="pin-all")
        policy = PartitionedHeterogeneous(platform, mapping=mapping)
        run = run_tasks(tasks, policy=policy, stop_after_firings=20)
        firings = sorted(run.trace.firings, key=lambda f: (f.start, f.end))
        for earlier, later in zip(firings, firings[1:]):
            assert earlier.end <= later.start  # everything shares p0

    def test_power_weights_yield_energy_estimate(self, quickstart_sized):
        result, sizing = quickstart_sized
        analysis = Analysis(quickstart_program(), result, sizing=sizing)
        platform = Platform(
            [
                Processor("big", speed=2, power_active=4.0, power_idle=1.0),
                Processor("little", speed=1, power_active=1.0),
                Processor("unmetered"),
            ]
        )
        run = analysis.run(Fraction(1, 10), platform=platform)
        energy = run.processor_energy()
        assert set(energy) == {"big", "little"}  # unmetered omitted
        busy = run.processor_busy
        expected_big = float(busy["big"]) * 4.0 + float(Fraction(1, 10) - busy["big"]) * 1.0
        assert energy["big"] == pytest.approx(expected_big)
        assert energy["little"] == pytest.approx(float(busy["little"]) * 1.0)
        # legacy runs have no platform, hence no energy estimate
        assert analysis.run(Fraction(1, 100)).processor_energy() == {}

    def test_heterogeneous_speedup_is_visible(self, quickstart_sized):
        """The same program finishes the same firings with higher utilisation
        headroom on a faster platform."""
        result, sizing = quickstart_sized
        analysis = Analysis(quickstart_program(), result, sizing=sizing)
        slow = analysis.run(Fraction(1, 10), platform=Platform.homogeneous(1, speed=1))
        fast = analysis.run(Fraction(1, 10), platform=Platform.homogeneous(1, speed=4))
        assert slow.completed_firings == fast.completed_firings
        assert sum(fast.processor_busy.values()) == sum(slow.processor_busy.values()) / 4


# ---------------------------------------------------------------------------
# Facade plumbing: Program / spec / sweep axis
# ---------------------------------------------------------------------------

class TestFacadePlumbing:
    def test_program_default_platform_flows_into_runs(self, quickstart_sized):
        result, sizing = quickstart_sized
        program = quickstart_program()
        program.platform = Platform.homogeneous(2)
        analysis = Analysis(program, result, sizing=sizing)
        run = analysis.run(Fraction(1, 20))
        assert run.platform == Platform.homogeneous(2)
        assert set(run.processor_busy) == {"p0", "p1"}
        # an explicit scheduler overrides the program default
        legacy = analysis.run(Fraction(1, 20), scheduler=SelfTimedUnbounded())
        assert legacy.platform is None
        assert legacy.processor_busy == {}

    def test_report_contract_of_every_policy(self, quickstart_sized):
        """Each policy's repr and metric-row keys, in order: the bytes a
        sweep report renders.  Policies on anonymous processors report no
        platform columns, SelfTimedPlatform reports preemptions alone, and
        a concrete platform adds one util[...] column per processor."""
        result, sizing = quickstart_sized
        analysis = Analysis(quickstart_program(), result, sizing=sizing)
        common = [
            "deadline_misses",
            "completed_firings",
            "makespan",
            "occupancy_ok",
            "time_base",
            "fast_forwarded",
            "sink_count[averages]",
            "rate[averages]",
            "rate[samples]",
        ]
        cases = [
            (SelfTimedUnbounded(), "SelfTimedUnbounded()", []),
            (BoundedProcessors(2), "BoundedProcessors(2)", []),
            (SelfTimedPlatform(), "SelfTimedPlatform()", ["preemptions"]),
            (
                ListScheduledPlatform(Platform.heterogeneous([2, 1, 1])),
                "ListScheduledPlatform('3p-hetero')",
                ["preemptions", "util[p0]", "util[p1]", "util[p2]"],
            ),
            (
                FixedPriorityPreemptive(Platform.heterogeneous([2, 1])),
                "FixedPriorityPreemptive('2p-hetero', 0 explicit priorities)",
                ["preemptions", "util[p0]", "util[p1]"],
            ),
        ]
        for policy, text, platform_columns in cases:
            assert repr(policy) == text
            run = analysis.run(Fraction(1, 50), scheduler=policy)
            assert list(run.metrics()) == common + platform_columns, text

    def test_summary_names_the_policy_that_actually_ran(self, quickstart_sized):
        result, sizing = quickstart_sized
        analysis = Analysis(quickstart_program(), result, sizing=sizing)
        platform_run = analysis.run(Fraction(1, 20), platform=Platform.homogeneous(2))
        header = platform_run.summary().splitlines()[0]
        assert "ListScheduledPlatform" in header  # not mislabelled self-timed
        assert "busy" in platform_run.summary()  # concrete platform: util lines
        # unbounded virtual processors must not flood the summary
        self_timed = analysis.run(Fraction(1, 20), scheduler=SelfTimedPlatform())
        assert "busy" not in self_timed.summary()
        # the legacy default header is unchanged
        legacy = analysis.run(Fraction(1, 20))
        assert "scheduler SelfTimedUnbounded()" in legacy.summary().splitlines()[0]

    def test_spec_round_trips_platform(self):
        platform = Platform.heterogeneous([2, 1])
        program = Program.from_source(
            quickstart_program().source, name="qs", platform=platform
        )
        spec = program.spec()
        assert spec.platform == platform
        assert spec.ensure_picklable()
        rebuilt = spec.build()
        assert rebuilt.platform == platform

    def test_platform_axis_sweeps_serial_identical_to_process(self):
        """The acceptance tripwire: a heterogeneous-platform grid runs on
        the process backend with a report bit-identical to serial."""
        def grid():
            return Sweep("quickstart", duration=Fraction(1, 20)).add_axis(
                "platform",
                [
                    Platform.homogeneous(1),
                    Platform.heterogeneous([2, 1]),
                    Platform.heterogeneous([1, Fraction(1, 2)]),
                ],
            )

        serial = grid().run(workers=1)
        assert serial.ok, [failure.error for failure in serial.failures]
        process = grid().run(executor="process", workers=2)
        assert process.ok, [failure.error for failure in process.failures]
        assert not process.warnings, process.warnings
        assert serial.rows() == process.rows()
        assert serial.to_json() == process.to_json()
        # the heterogeneous points report per-processor utilisation columns
        assert "util[p0]" in serial.rows()[1]

    def test_sweep_rejects_platform_plus_scheduler_axes_up_front(self):
        from repro.api.spec import SweepConfigError
        from repro.engine import BoundedProcessors as Bounded

        sweep = (
            Sweep("quickstart", duration=Fraction(1, 100))
            .add_axis("platform", [Platform.homogeneous(2)])
            .add_axis("scheduler", [Bounded(1)])
        )
        with pytest.raises(SweepConfigError, match="scheduler.*platform"):
            sweep.run()  # fails before any compilation, not per point

    def test_platform_and_scheduler_together_rejected(self, quickstart_sized):
        result, sizing = quickstart_sized
        analysis = Analysis(quickstart_program(), result, sizing=sizing)
        with pytest.raises(Exception):
            analysis.run(
                Fraction(1, 100),
                scheduler=SelfTimedUnbounded(),
                platform=Platform.homogeneous(1),
            )


# ---------------------------------------------------------------------------
# EventQueue cancelled-entry accounting (used by the preemption re-post path)
# ---------------------------------------------------------------------------

class TestCancelledPendingCount:
    def test_counts_cancel_and_lazy_prune(self):
        queue = EventQueue()
        events = [queue.schedule(Fraction(i), lambda: None) for i in range(4)]
        assert queue.cancelled_pending == 0
        queue.cancel(events[0])
        queue.cancel(events[2])
        queue.cancel(events[2])  # double-cancel counts once
        assert queue.cancelled_pending == 2
        assert not queue.empty()  # prunes the cancelled head (event 0)
        assert queue.cancelled_pending == 1
        queue.run_until(Fraction(10))  # skips the cancelled event 2
        assert queue.cancelled_pending == 0
        assert queue.processed == 2
