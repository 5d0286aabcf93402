"""Tests for the discrete-event runtime (events, tasks, drivers, simulator)."""

from fractions import Fraction

import pytest

import oil_fleets
from repro.graph.circular_buffer import CircularBuffer
from repro.graph.taskgraph import Access, Task
from repro.lang import ast
from repro.runtime import (
    EventQueue,
    FunctionRegistry,
    RuntimeTask,
    Simulation,
    SinkDriver,
    SourceDriver,
    TraceRecorder,
    default_registry,
    evaluate_expression,
)
from repro.apps.producer_consumer import quickstart_registry
from repro.util.rational import TimeBase


class TestEventQueue:
    def test_ordering(self):
        queue = EventQueue()
        seen = []
        queue.schedule(Fraction(2), lambda: seen.append("b"))
        queue.schedule(Fraction(1), lambda: seen.append("a"))
        queue.schedule(Fraction(1), lambda: seen.append("a2"))
        queue.run_until(Fraction(10))
        assert seen == ["a", "a2", "b"]

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        queue.schedule(Fraction(1), lambda: queue.schedule(Fraction(0), lambda: None))
        with pytest.raises(ValueError):
            queue.run_until(Fraction(2))

    def test_cancel(self):
        queue = EventQueue()
        seen = []
        event = queue.schedule(Fraction(1), lambda: seen.append("x"))
        queue.cancel(event)
        queue.run_until(Fraction(2))
        assert seen == []

    def test_run_until_advances_time(self):
        queue = EventQueue()
        queue.run_until(Fraction(5))
        assert queue.now == 5

    def test_peek_time_skips_cancelled_and_prunes(self):
        queue = EventQueue()
        events = [queue.schedule(Fraction(i), lambda: None) for i in range(1, 6)]
        for event in events[:3]:
            queue.cancel(event)
        assert queue.peek_time() == Fraction(4)
        # cancelled heads were physically popped, not re-scanned per call
        assert len(queue._heap) == 2
        assert not queue.empty()

    def test_empty_is_true_once_all_events_cancelled(self):
        queue = EventQueue()
        events = [queue.schedule(Fraction(i), lambda: None) for i in range(1, 4)]
        assert not queue.empty()
        for event in events:
            queue.cancel(event)
        assert queue.empty()
        assert queue._heap == []
        assert queue.peek_time() is None

    @pytest.mark.parametrize("timebase", [None, TimeBase(Fraction(1, 10))])
    def test_shift_pending_carries_cancelled_entries(self, timebase):
        # A jump shifts cancelled entries with the live ones; each event's
        # own time moves with its heap entry (preemption reads it), and
        # the cancelled ones are still dropped lazily, exactly once.
        queue = EventQueue(timebase)
        seen = []
        events = [
            queue.schedule(queue.to_internal(Fraction(i, 10)), lambda i=i: seen.append(i))
            for i in (1, 2, 3, 4)
        ]
        queue.cancel(events[0])
        queue.cancel(events[2])
        shift = queue.to_internal(Fraction(5))
        queue.shift_pending(shift)
        assert queue.now_time == 5
        assert [queue.to_time(event.time) for event in events] == [
            5 + Fraction(i, 10) for i in (1, 2, 3, 4)
        ]
        assert sorted(time for time, _, _ in queue._heap) == sorted(e.time for e in events)
        assert queue.cancelled_pending == 2
        assert queue.peek_time() == Fraction(52, 10)  # the cancelled head dropped
        assert queue.cancelled_pending == 1
        queue.cancel(events[3])  # cancelling after the shift still holds
        queue.run_until(queue.to_internal(Fraction(10)))
        assert seen == [2]
        assert queue.cancelled_pending == 0
        assert queue.empty() and queue.peek_time() is None
        assert queue.processed == 1

    def test_peek_time_and_empty_follow_the_earliest_live_entry(self):
        queue = EventQueue(TimeBase(Fraction(1, 4)))
        late = queue.schedule(8, lambda: None)
        early = queue.schedule(2, lambda: None)
        tie = queue.schedule(2, lambda: None)
        assert queue.peek_time() == Fraction(1, 2)
        queue.cancel(early)
        assert queue.peek_time() == Fraction(1, 2)  # the same-instant tie
        queue.cancel(tie)
        assert queue.peek_time() == 2 and not queue.empty()
        queue.cancel(late)
        assert queue.empty() and queue.peek_time() is None
        assert queue.cancelled_pending == 0


class TestExpressionEvaluator:
    def test_arithmetic(self):
        expr = ast.BinaryOp("+", ast.NumberLiteral(2), ast.BinaryOp("*", ast.VarRef("x"), ast.NumberLiteral(3)))
        assert evaluate_expression(expr, {"x": 4}) == 14

    def test_comparisons_and_logic(self):
        expr = ast.BinaryOp(
            "and",
            ast.BinaryOp(">", ast.VarRef("x"), ast.NumberLiteral(0)),
            ast.UnaryOp("!", ast.BinaryOp("==", ast.VarRef("x"), ast.NumberLiteral(5))),
        )
        assert evaluate_expression(expr, {"x": 3}) is True
        assert evaluate_expression(expr, {"x": 5}) is False

    def test_var_ref_of_list_uses_last(self):
        assert evaluate_expression(ast.VarRef("x"), {"x": [1, 2, 3]}) == 3

    def test_stream_read_returns_list(self):
        assert evaluate_expression(ast.StreamRead("x", 2), {"x": [1, 2]}) == [1, 2]

    def test_function_expression(self):
        registry = default_registry({"double": lambda v: 2 * v})
        expr = ast.FunctionExpr("double", (ast.InArgument(ast.VarRef("x")),))
        assert evaluate_expression(expr, {"x": 21}, registry) == 42

    def test_missing_value(self):
        with pytest.raises(Exception):
            evaluate_expression(ast.VarRef("ghost"), {})


class TestFunctionRegistry:
    def test_register_and_call(self):
        registry = FunctionRegistry()
        registry.register("add", lambda a, b: a + b, wcet="0.001")
        assert registry.call("add", 2, 3) == 5
        assert registry.wcets()["add"] == Fraction(1, 1000)

    def test_decorator(self):
        registry = FunctionRegistry()

        @registry.function(wcet=Fraction(1, 500))
        def triple(value):
            return 3 * value

        assert registry.call("triple", 2) == 6
        assert "triple" in registry

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            FunctionRegistry().get("nope")

    def test_side_effect_check(self):
        registry = FunctionRegistry()
        registry.register("pure", lambda xs: sum(xs))
        assert registry.verify_side_effect_free("pure", [1, 2, 3])

        state = {"calls": 0}

        def impure(xs):
            state["calls"] += 1
            return state["calls"]

        registry.register("impure", impure, side_effect_free=False)
        assert not registry.verify_side_effect_free("impure", [1])


class TestRuntimeTask:
    def make_task(self, guard=None):
        statement = ast.FunctionCall(
            "work",
            (
                ast.InArgument(ast.VarRef("a")),
                ast.OutArgument("b", 1),
            ),
        )
        task = Task(name="t_work", kind="call", statement=statement, function="work", guard=guard)
        task.reads = [Access("a", 1)]
        task.writes = [Access("b", 1)]
        buffers = {"a": CircularBuffer("a", 4), "b": CircularBuffer("b", 4)}
        registry = FunctionRegistry()
        registry.register("work", lambda value: value + 100)
        runtime = RuntimeTask(
            name="t_work", task=task, instance="inst", registry=registry, buffers=buffers
        )
        buffers["a"].register_consumer(runtime.producer_key())
        buffers["a"].register_producer("env")
        buffers["b"].register_producer(runtime.producer_key())
        buffers["b"].register_consumer("env")
        runtime.bind_windows()  # the engine does this in wire_buffers
        return runtime, buffers

    def test_fire_executes_function(self):
        runtime, buffers = self.make_task()
        buffers["a"].produce("env", [1], 1)
        assert runtime.can_fire()
        values = runtime.start_firing()
        assert runtime.busy
        executed = runtime.finish_firing(values)
        assert executed
        assert buffers["b"].consume("env", 1) == [101]

    def test_guard_false_releases_without_writing(self):
        guard = ast.BinaryOp(">", ast.VarRef("a"), ast.NumberLiteral(10))
        runtime, buffers = self.make_task(guard=guard)
        buffers["a"].produce("env", [1], 1)
        values = runtime.start_firing()
        executed = runtime.finish_firing(values)
        assert not executed
        # A token is released (the consumer can advance) but holds no new value.
        assert buffers["b"].can_consume("env", 1)

    def test_cannot_fire_without_input(self):
        runtime, _ = self.make_task()
        assert not runtime.can_fire()

    def test_cannot_fire_when_busy(self):
        runtime, buffers = self.make_task()
        buffers["a"].produce("env", [1, 2], 2)
        runtime.start_firing()
        assert not runtime.can_fire()


class TestDrivers:
    def test_source_produces_periodically(self):
        queue = EventQueue()
        trace = TraceRecorder()
        buffer = CircularBuffer("b", 8)
        buffer.register_consumer("c")
        driver = SourceDriver(
            name="src", buffer=buffer, period=Fraction(1, 10), values=lambda: iter(range(100)),
            trace=trace, queue=queue,
        )
        driver.start()
        queue.run_until(Fraction(1))
        assert driver.produced == 8  # buffer capacity reached
        assert driver.dropped >= 1
        assert trace.measured_rate("src") == 10

    def test_sink_underflow_recorded(self):
        queue = EventQueue()
        trace = TraceRecorder()
        buffer = CircularBuffer("b", 4, initial_values=[1])
        driver = SinkDriver(
            name="snk", buffer=buffer, period=Fraction(1, 10), trace=trace, queue=queue,
            start_time=Fraction(0),
        )
        driver.start()
        queue.run_until(Fraction(1, 2))
        assert driver.consumed == [1]
        assert driver.misses >= 1
        assert any(v.kind == "sink-underflow" for v in trace.violations)


@pytest.fixture
def sink_notifications(monkeypatch):
    """Every ``SinkDriver.notify_data_available`` call, as (sink name,
    started before the call), recorded by a test-side wrapper."""
    calls = []
    original = SinkDriver.notify_data_available

    def notify(self):
        calls.append((self.name, self.started))
        original(self)

    monkeypatch.setattr(SinkDriver, "notify_data_available", notify)
    return calls


class TestSinkNotification:
    """Firings offer data only to the delayed-start sinks that have not
    started yet; a started sink never needs another notification."""

    FIRST_OUTPUT = {"screen": Fraction(581, 160000), "speakers": Fraction(1947, 32000)}

    def test_only_waiting_sinks_are_notified(self, sink_notifications):
        from repro.api import Program

        result = Program.from_app("pal_decoder").analyze().run(
            Fraction(1), fast_forward=False, trace="endpoints"
        )
        # The seed notified every sink after every firing: 34,950 calls on
        # PAL over 1 s, of which these 825 found their sink not started.
        assert len(sink_notifications) == 825
        assert not any(started for _, started in sink_notifications)
        trace = result.simulation.trace
        for name, first in self.FIRST_OUTPUT.items():
            assert trace.first_output_time(name) == first
        assert result.simulation.queue.processed == 48_670

    def test_resumed_run_keeps_waiting_sinks(self, sink_notifications):
        from repro.api import Program

        simulation = Program.from_app("pal_decoder").analyze().simulation(
            fast_forward=False, trace="endpoints"
        )
        simulation.run(Fraction(1, 1000))
        assert not any(sink.started for sink in simulation.sinks.values())
        simulation.run(Fraction(1, 10))
        for name, first in self.FIRST_OUTPUT.items():
            assert simulation.trace.first_output_time(name) == first
        assert len(sink_notifications) == 825


class TestSimulation:
    def test_quickstart_simulation_behaviour(self, quickstart_sized):
        result, sizing = quickstart_sized
        simulation = Simulation(
            result,
            quickstart_registry(),
            source_signals={"samples": [float(i) for i in range(10000)]},
            capacities=sizing.capacities,
        )
        trace = simulation.run(Fraction(1, 4))
        assert trace.deadline_miss_count() == 0
        # 2:1 averaging of 0,1,2,3,... gives 0.5, 2.5, 4.5, ...
        values = simulation.sinks["averages"].consumed
        assert values[:3] == [0.5, 2.5, 4.5]
        assert trace.measured_rate("averages") == 1000
        # Measured occupancy never exceeds the analysed capacities.
        for name, mark in trace.buffer_high_water.items():
            assert mark <= simulation.buffers[name].capacity

    def test_default_capacity_used_without_analysis(self, quickstart_compiled):
        simulation = Simulation(
            quickstart_compiled,
            quickstart_registry(),
            source_signals={"samples": [float(i) for i in range(1000)]},
            capacities={},
            default_capacity=8,
        )
        trace = simulation.run(Fraction(1, 20))
        assert len(simulation.sinks["averages"].consumed) > 0

    def test_trace_summary_renders(self, quickstart_sized):
        result, sizing = quickstart_sized
        simulation = Simulation(
            result,
            quickstart_registry(),
            source_signals={"samples": [0.0] * 1000},
            capacities=sizing.capacities,
        )
        trace = simulation.run(Fraction(1, 20))
        text = trace.summary()
        assert "endpoint events" in text
        assert "samples" in text


class TestRunParameterErrors:
    """Bad run parameters raise a ValueError naming what is wrong, instead
    of running something else silently."""

    def test_negative_duration_raises(self):
        from repro.api import Program, Sweep

        program = Program.from_app("quickstart")
        ring = oil_fleets.ring(4, tokens=1)
        with pytest.raises(ValueError, match="-1"):
            program.run(-1)
        with pytest.raises(ValueError, match="-1/100"):
            program.analyze().simulation().run(Fraction(-1, 100))
        with pytest.raises(ValueError, match="-3"):
            ring.run(-3)
        report = Sweep("quickstart").add_axis("duration", [Fraction(-1, 2)]).run()
        assert not report.ok and "-1/2" in report.results[0].error
        # zero is a valid (empty) horizon: only the instantaneous init fires
        assert program.run(0).deadline_misses == 0
        assert [f.task for f in ring.run(0).trace.firings] == ["Ring/R3:t_init"]

    def test_run_tasks_horizon_is_in_seconds(self):
        # An integer duration means seconds on every time base (a tick count
        # would make the end depend on the derived resolution).
        run = oil_fleets.ring(3, tokens=1, wcet=Fraction(1, 2)).run(2)
        queue = run.simulation.queue
        assert queue.timebase.resolution == Fraction(1, 2)
        assert queue.now_time == 2
        assert run.completed_firings == 1 + 4  # the init, then a step per 1/2 s

    def test_mode_schedule_with_unknown_loop_raises(self):
        from repro.api import Program

        analysis = Program.from_app("modal_two_mode").analyze()
        with pytest.raises(ValueError, match=r"\['nope'\].*\['loop0', 'loop1'\]"):
            analysis.run(Fraction(1, 2), mode_schedules={"TwoMode": [("nope", 1)]})

    def test_mode_schedule_for_unknown_instance_raises(self):
        from repro.api import Program

        analysis = Program.from_app("modal_two_mode").analyze()
        with pytest.raises(ValueError, match=r"NoSuchInstance.*TwoMode"):
            analysis.run(Fraction(1, 2), mode_schedules={"NoSuchInstance": [("x", 1)]})
        # a single-loop module accepts a schedule over its one top-level loop
        Program.from_app("quickstart").run(
            Fraction(1, 100), mode_schedules={"Downsample": [("loop0", 1)]}
        )

    def test_packaged_mode_schedules_stay_valid(self):
        from repro.api import Program

        analysis = Program.from_app("modal_two_mode").analyze()
        for schedule in ([("loop0", 1), ("loop1", 1)], [("loop0", 7), ("loop1", 2)]):
            run = analysis.run(Fraction(1, 10), mode_schedules={"TwoMode": schedule})
            assert run.completed_firings > 0


class TestRepeatedInstances:
    """Two calls of one module are two runtime instances: each runs under
    the instance name the compiler gave it (``Dec``, ``Dec_2``) and reads
    the capacities the analysis sized under that name."""

    SOURCE = """
mod seq Dec(sample x, out sample y){
  loop{ dec(x:4, out y); } while(1);
}
mod par Top(){
  source sample a = cap() @ 4 kHz;
  source sample b = cap() @ 16 kHz;
  sink sample c = emit() @ 1 kHz;
  sink sample d = emit() @ 4 kHz;
  Dec(a, out c) || Dec(b, out d)
}
"""

    @pytest.fixture(scope="class")
    def analysis(self):
        from repro.api import Program

        registry = FunctionRegistry()
        registry.register("dec", lambda window: sum(window) / len(window), stateless=True)
        program = Program.from_source(
            self.SOURCE, function_wcets={"dec": Fraction(1, 5000)}, registry=registry
        )
        return program.analyze()

    def test_each_call_is_its_own_instance(self, analysis):
        from repro.platform import SelfTimedPlatform

        assert analysis.capacities["Top/b"] == 4
        assert analysis.capacities["Dec_2/loop0/x.access0"] == 7
        run = analysis.run(Fraction(1, 2), scheduler=SelfTimedPlatform())
        simulation = run.simulation
        assert [task.producer_key() for task in simulation.tasks] == [
            "Top/Dec:t_dec",
            "Top/Dec_2:t_dec",
        ]
        # 4 kHz / 4 and 16 kHz / 4 over half a second (the last Dec_2
        # firing is still in flight at the end)
        assert run.trace.task_firing_count("Top/Dec:t_dec") == 500
        assert run.trace.task_firing_count("Top/Dec_2:t_dec") == 1999
        # one virtual processor per task
        assert set(run.processor_busy) == {"Top/Dec:t_dec", "Top/Dec_2:t_dec"}
        # Top/b feeds Dec_2: its own capacity plus Dec_2's access buffer
        assert simulation.buffers["Top/b"].capacity == 4 + 7
        assert simulation.buffers["Top/a"].capacity == 4 + 4
        assert run.deadline_misses == 0
