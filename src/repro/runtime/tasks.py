"""Runtime tasks: data-driven execution of extracted task-graph tasks.

Each task of an extracted task graph becomes a :class:`RuntimeTask` bound to
the circular buffers of its module instance.  The runtime semantics follow the
paper's execution model:

* a task is *eligible* when its loop is active, all buffers it reads hold
  enough values, all buffers it writes have enough space and no previous
  firing of the same task is still in flight (tasks are sequential code
  fragments),
* at the start of a firing the task atomically acquires its inputs, evaluates
  its guard on the values just read and -- only if the guard holds -- executes
  the coordinated function / assignment,
* the outputs are released after ``wcet`` worth of execution -- ``wcet``
  seconds later on a unit-speed processor, ``wcet / speed`` on a scaled one,
  and later still when a platform policy preempts the firing (the engine
  parks the remaining work and the task stays busy-but-``suspended`` until
  it resumes); when the guard was false the output locations are released
  *without writing*, so consumers observe the previous values (the
  overlapping-window semantics of the circular buffer),
* statements outside any loop (initialisation) fire exactly once at start-up.

The module also contains the small expression evaluator used for guards,
assignment right-hand sides and function-call arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.graph.circular_buffer import CircularBuffer
from repro.graph.taskgraph import Task
from repro.lang import ast
from repro.runtime.functions import FunctionRegistry
from repro.util.rational import Rat


class OilRuntimeError(RuntimeError):
    """Raised for runtime execution problems (missing functions, bad values)."""


# --------------------------------------------------------------------------
# Expression evaluation
# --------------------------------------------------------------------------

def evaluate_expression(
    expression: ast.Expression,
    values: Dict[str, Any],
    registry: Optional[FunctionRegistry] = None,
) -> Any:
    """Evaluate an OIL expression given the values read this firing.

    ``values`` maps names (variables / streams) to either a scalar or the list
    of values read; a :class:`~repro.lang.ast.VarRef` of a multi-value read
    yields the last (most recent) value, a
    :class:`~repro.lang.ast.StreamRead` yields the full list.
    """
    if isinstance(expression, ast.NumberLiteral):
        return expression.value
    if isinstance(expression, ast.VarRef):
        if expression.name not in values:
            raise OilRuntimeError(f"no value available for {expression.name!r}")
        value = values[expression.name]
        if isinstance(value, list):
            return value[-1] if value else None
        return value
    if isinstance(expression, ast.StreamRead):
        if expression.name not in values:
            raise OilRuntimeError(f"no value available for stream {expression.name!r}")
        value = values[expression.name]
        return value if isinstance(value, list) else [value]
    if isinstance(expression, ast.FunctionExpr):
        if registry is None:
            raise OilRuntimeError(
                f"cannot evaluate function {expression.name!r} without a registry"
            )
        args = [
            evaluate_expression(argument.expression, values, registry)
            for argument in expression.arguments
            if isinstance(argument, ast.InArgument)
        ]
        return registry.call(expression.name, *args)
    if isinstance(expression, ast.UnaryOp):
        operand = evaluate_expression(expression.operand, values, registry)
        if expression.op == "-":
            return -operand
        if expression.op == "!":
            return not operand
        raise OilRuntimeError(f"unknown unary operator {expression.op!r}")
    if isinstance(expression, ast.BinaryOp):
        left = evaluate_expression(expression.left, values, registry)
        right = evaluate_expression(expression.right, values, registry)
        op = expression.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            return left % right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "and":
            return bool(left) and bool(right)
        if op == "or":
            return bool(left) or bool(right)
        raise OilRuntimeError(f"unknown binary operator {op!r}")
    raise OilRuntimeError(f"cannot evaluate expression node {type(expression).__name__}")


# --------------------------------------------------------------------------
# Runtime task
# --------------------------------------------------------------------------

@dataclass(eq=False)
class RuntimeTask:
    """One executable task instance bound to its buffers.

    ``eq=False`` keeps identity semantics (and hashability): a runtime task
    is a unique piece of simulation state, and the execution engine indexes
    tasks in dictionaries for O(1) task -> instance / priority lookups.

    The producer key and the (name, count, buffer) access bindings are
    immutable for the lifetime of the task, so they are resolved once at
    construction, and the window objects once every window is registered
    (:meth:`bind_windows`): ``can_fire`` / ``start_firing`` /
    ``finish_firing`` run on every single firing of a simulation and must
    not rebuild strings or chase dictionary lookups per access.
    """

    name: str
    task: Task
    instance: str
    registry: FunctionRegistry
    #: buffer name (task-graph local) -> runtime circular buffer
    buffers: Dict[str, CircularBuffer]
    wcet: Rat = Fraction(0)
    #: set by the owning module instance: whether the task's loop is active
    active: bool = True
    #: True while a firing is in flight
    busy: bool = False
    #: True while the in-flight firing is preempted (platform policies):
    #: inputs are consumed, remaining work is parked in the engine, and the
    #: task stays ``busy`` until the firing resumes and completes
    suspended: bool = False
    #: number of times a firing of this task was preempted
    preemptions: int = 0
    #: number of completed firings (total and within the current phase)
    completed_firings: int = 0
    phase_firings: int = 0
    #: one-shot tasks (initialisation) fire at most once
    one_shot: bool = False
    fired_once: bool = False

    def __post_init__(self) -> None:
        self._key = f"{self.instance}:{self.name}"
        #: wcet in the event queue's native time units; overwritten by the
        #: engine (ExecutionEngine.wire_buffers) with the tick count when the
        #: queue runs on an integer time base, so the firing hot path never
        #: converts
        self.wcet_internal = self.wcet
        self._reads = [
            (access.buffer, access.count, self.buffers[access.buffer])
            for access in self.task.reads
        ]
        self._writes = [
            (access.buffer, access.count, self.buffers[access.buffer])
            for access in self.task.writes
        ]
        #: completion-event label; unique per task instance so the pending
        #: events of the queue identify the firing in the steady-state key
        self._complete_label = f"complete:{self._key}"
        # _read_windows / _write_windows are set by bind_windows(), once the
        # windows exist; an unbound task fails loudly instead of firing
        # without its accesses.
        #: the input values of the in-flight firing (None while idle); the
        #: value-exact fast-forward key folds them in -- a busy task's
        #: pending body runs on exactly these values after a jump
        self.inflight_values: Optional[Dict[str, Any]] = None
        self._function_names: Optional[frozenset] = None

    def producer_key(self) -> str:
        return self._key

    def function_names(self) -> frozenset:
        """Names of every registry function this task can invoke: the
        statement body, the guard expression, and the synthetic black-box
        fallback.  The value-exact fast-forward qualification checks the
        jump declarations of exactly this set."""
        if self._function_names is not None:
            return self._function_names
        names: set = set()

        def walk(expression: ast.Expression) -> None:
            if isinstance(expression, ast.FunctionExpr):
                names.add(expression.name)
                for argument in expression.arguments:
                    if isinstance(argument, ast.InArgument):
                        walk(argument.expression)
            elif isinstance(expression, ast.UnaryOp):
                walk(expression.operand)
            elif isinstance(expression, ast.BinaryOp):
                walk(expression.left)
                walk(expression.right)

        statement = self.task.statement
        if isinstance(statement, ast.Assignment):
            walk(statement.expression)
        elif isinstance(statement, ast.FunctionCall):
            names.add(statement.name)
            for argument in statement.arguments:
                if isinstance(argument, ast.InArgument):
                    walk(argument.expression)
        else:
            # Synthetic / black-box tasks call one registered function.
            names.add(self.task.function or self.name)
        if self.task.guard is not None:
            walk(self.task.guard)
        self._function_names = frozenset(names)
        return self._function_names

    def bind_windows(self) -> None:
        """Resolve this task's window objects once.

        Called by the engine (``ExecutionEngine.wire_buffers``) after every
        window is registered, and required before the task fires:
        eligibility and firings then use the :class:`WindowState` objects
        directly instead of looking them up by producer key in the buffer's
        dicts.
        """
        key = self._key
        self._read_windows = [
            (name, count, buffer, buffer.window_of_consumer(key))
            for name, count, buffer in self._reads
        ]
        self._write_windows = [
            (name, count, buffer, buffer.window_of_producer(key))
            for name, count, buffer in self._writes
        ]

    # ------------------------------------------------------------ eligibility
    def can_fire(self) -> bool:
        """The eligibility rule every dispatch loop applies: loop active, no
        firing in flight (or a completed one-shot), enough tokens on every
        read window and enough space on every write window -- reads before
        writes, first failure wins.

        The window checks are ``CircularBuffer.can_consume_window`` /
        ``can_produce_window`` inlined: they compare integers on the
        buffers' current floors, with no call per window."""
        if self.busy or not self.active or (self.one_shot and self.fired_once):
            return False
        for _, count, buffer, window in self._read_windows:
            if window.acquired + count > buffer.produced_floor:
                return False
        for _, count, buffer, window in self._write_windows:
            if window.acquired + count - buffer.freed > buffer.capacity:
                return False
        return True

    # --------------------------------------------------------------- execution
    def start_firing(self) -> Dict[str, Any]:
        """Atomically consume the inputs and return the values read (call
        only while :meth:`can_fire` holds; the reads are unchecked)."""
        values: Dict[str, Any] = {}
        for name, count, buffer, window in self._read_windows:
            data = buffer.consume_window(window, count)
            values[name] = data if count > 1 else data[0]
        self.busy = True
        self.inflight_values = values
        return values

    def finish_firing(self, values: Dict[str, Any]) -> bool:
        """Execute the (guarded) body and release the outputs.

        Returns True when the guarded body actually executed.
        """
        execute = True
        if self.task.guard is not None:
            execute = bool(evaluate_expression(self.task.guard, values, self.registry))

        outputs: Optional[Dict[str, List[Any]]] = self._run_body(values) if execute else None

        for name, count, buffer, window in self._write_windows:
            produced = outputs.get(name) if outputs is not None else None
            if produced is not None and len(produced) != count:
                raise OilRuntimeError(
                    f"task {self.name!r}: function produced {len(produced)} values for "
                    f"{name!r}, expected {count}"
                )
            buffer.produce_window(window, produced, count)

        self.busy = False
        self.inflight_values = None
        self.completed_firings += 1
        self.phase_firings += 1
        if self.one_shot:
            self.fired_once = True
            # A completed initialisation retires its windows: the floors it
            # would otherwise pin forever are handed over to the loop tasks
            # of the same module instance, which continue the streams (see
            # CircularBuffer.retire_producer); windows of other instances
            # and of sink/source drivers are left untouched.
            key = self._key
            scope = f"{self.instance}:"
            for _, _, buffer, _ in self._write_windows:
                buffer.retire_producer(key, scope=scope)
            for _, _, buffer, _ in self._read_windows:
                buffer.retire_consumer(key, scope=scope)
        return execute

    def _run_body(self, values: Dict[str, Any]) -> Dict[str, List[Any]]:
        """Run the assignment / function call and collect produced values."""
        statement = self.task.statement
        outputs: Dict[str, List[Any]] = {}

        if isinstance(statement, ast.Assignment):
            result = evaluate_expression(statement.expression, values, self.registry)
            outputs[statement.target] = [result]
            return outputs

        if isinstance(statement, ast.FunctionCall):
            call_args: List[Any] = []
            out_accesses: List[ast.OutArgument] = []
            for argument in statement.arguments:
                if isinstance(argument, ast.InArgument):
                    call_args.append(
                        evaluate_expression(argument.expression, values, self.registry)
                    )
                else:
                    out_accesses.append(argument)
            result = self.registry.call(statement.name, *call_args)

            if not out_accesses:
                return outputs
            if len(out_accesses) == 1:
                results: Sequence[Any] = (result,)
            else:
                if not isinstance(result, tuple) or len(result) != len(out_accesses):
                    raise OilRuntimeError(
                        f"function {statement.name!r} must return a tuple with "
                        f"{len(out_accesses)} entries (one per out argument)"
                    )
                results = result
            for out_arg, produced in zip(out_accesses, results):
                if out_arg.count == 1 and not isinstance(produced, list):
                    outputs[out_arg.name] = [produced]
                else:
                    produced_list = list(produced)
                    outputs[out_arg.name] = produced_list
            return outputs

        # Synthetic tasks (black boxes) carry no statement: treat all reads as
        # inputs and all writes as outputs of a single registered function.
        call_args = []
        for access in self.task.reads:
            value = values[access.buffer]
            call_args.append(value)
        result = self.registry.call(self.task.function or self.name, *call_args)
        writes = self.task.writes
        if len(writes) == 1:
            results = (result,)
        else:
            results = result
        for access, produced in zip(writes, results):
            if access.count == 1 and not isinstance(produced, list):
                outputs[access.buffer] = [produced]
            else:
                outputs[access.buffer] = list(produced)
        return outputs
