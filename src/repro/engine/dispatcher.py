"""Event-driven ready-set dispatch of runtime tasks.

The seed simulator validated the paper's claims with an O(all-tasks) polling
dispatcher: every buffer change scheduled a dispatch event that re-scanned the
whole task fleet (repeatedly, until a fixpoint).  That is fine for the paper's
small figures and fatal for large programs.  The :class:`ExecutionEngine`
replaces it with dependency-indexed dispatch:

* every :class:`~repro.graph.circular_buffer.CircularBuffer` carries a reverse
  index of the tasks reading and writing it (wired by :meth:`wire_buffers`);
  when the buffer's produced floor moves, those of its *readers* that can
  fire are pushed onto the ready set, when its consumed floor moves, those
  of its *writers* -- nothing else is ever re-examined,
* the ready set (:class:`ReadySet`) is *pass-structured*: it hands out tasks
  in static (registration) order and defers tasks woken at-or-before the
  cursor to the next pass, which reproduces the exact fixpoint iteration
  order of the polling dispatcher -- self-timed traces are bit-identical to
  the seed implementation,
* a pluggable policy (the one protocol,
  :class:`~repro.platform.policies.PlatformPolicy`) decides where and whether
  each eligible task starts: a processor, and at most one in-flight firing
  to preempt.  The engine keeps one :class:`FiringRecord` per task for the
  in-flight firing (start, processor, segment start, remaining work and the
  speed it accrued at), cancels and re-posts completion events on
  preemption with the exact remaining work, scales durations by processor
  speed, and accounts busy time per processor.

So there is one dispatch loop (:meth:`ExecutionEngine._dispatch`), one
start (:meth:`ExecutionEngine._start`) and one completion
(:meth:`ExecutionEngine._complete`, bound once per task at wire time), for
every policy on both time bases.  The default
:class:`~repro.engine.policies.SelfTimedUnbounded` is recognised by its type
and never asked: its firings start on no processor, with no policy call and
no busy accounting.  Every firing goes through the windows bound at
:meth:`ExecutionEngine.wire_buffers` time and the one eligibility rule,
:meth:`RuntimeTask.can_fire <repro.runtime.tasks.RuntimeTask.can_fire>`.
The polling dispatcher survives only in the test suite
(``tests/dispatch_oracle.py``), as the brute-force reference the
equivalence tests and the dispatch microbenchmark compare against.

Starting a task only *consumes* tokens (outputs are released at completion),
and consuming can only enable other tasks -- a producer gains space, no
consumer loses tokens (windows are private).  Eligibility is therefore
monotone within a dispatch, which is what makes the ready-set fixpoint equal
to the polling fixpoint.

Wakes push only tasks that can fire (:meth:`ExecutionEngine.wake_task`).  A
task's eligibility rises only through a floor move its buffer's waker
watches or through an explicit wake -- the completion's self-wake (``busy``
clears) or a mode activation (``active`` rises) -- and falls only through
its own start or a deactivation.  A task that cannot fire when woken would
only be popped and skipped; leaving it out keeps the pass order of every
task that starts.  Every floor move outside a dispatch is followed by a
:meth:`~ExecutionEngine.schedule_dispatch` from its caller (the completion,
a driver's ``on_change``, the activation), so the dispatch events, and with
them the event count, do not depend on which wakes pushed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.engine.policies import SelfTimedUnbounded
from repro.graph.circular_buffer import CircularBuffer
from repro.util.rational import Rat, TimeBase, as_rational
from repro.util.validation import check_non_negative

if TYPE_CHECKING:  # imports only for annotations: runtime.simulator imports us
    from repro.engine.steady_state import SteadyState
    from repro.platform.model import Platform, Processor
    from repro.platform.policies import PlatformPolicy
    from repro.runtime.events import Event, EventQueue
    from repro.runtime.sources import SinkDriver, SourceDriver
    from repro.runtime.tasks import RuntimeTask
    from repro.runtime.trace import TraceRecorder


class ReadySet:
    """An ordered ready set that replays the polling dispatcher's pass order.

    The polling reference repeatedly scans all tasks in registration order
    until a whole pass starts nothing.  Its ordering rule, restated per task:
    a task woken at an index *greater* than the scan cursor is reached later
    in the same pass; a task woken at-or-before the cursor has to wait for
    the next pass.  :meth:`push`/:meth:`pop` implement exactly that rule over
    only the woken tasks, so the dispatch order (and with it the trace) is
    identical while the work per dispatch shrinks from O(all tasks) to
    O(woken tasks).
    """

    def __init__(self) -> None:
        self._current: List[int] = []  # min-heap of indices > cursor (this pass)
        self._deferred: List[int] = []  # indices <= cursor (next pass)
        self._queued: set[int] = set()
        self._cursor = -1

    def __len__(self) -> int:
        return len(self._queued)

    def push(self, index: int) -> None:
        if index in self._queued:
            return
        self._queued.add(index)
        if index > self._cursor:
            heapq.heappush(self._current, index)
        else:
            self._deferred.append(index)

    def pop(self) -> Optional[int]:
        """Next index in pass order; ``None`` (and cursor reset) when empty."""
        if not self._current:
            if not self._deferred:
                self._cursor = -1
                return None
            self._current = self._deferred
            heapq.heapify(self._current)
            self._deferred = []
            self._cursor = -1
        index = heapq.heappop(self._current)
        self._queued.discard(index)
        self._cursor = index
        return index


class FiringRecord:
    """The firing record of one task, made once at wire time.

    It holds the state of the task's in-flight (or suspended) firing: the
    start instant, the processor it occupies (``None`` while idle,
    suspended, or under the self-timed short-circuit), the start of the
    current uninterrupted segment (busy accounting), the pending completion
    event, and after a preemption the native-unit time still owed
    (``remaining``, exact in both tick and fraction modes) with the
    ``speed`` it was accrued at, so a resume -- possibly on a
    different-speed processor -- re-posts exactly the outstanding work.
    ``complete`` is the task's completion callback, bound once; the
    in-flight input values live on the task (``inflight_values``).
    """

    __slots__ = (
        "task",
        "start",
        "processor",
        "segment_start",
        "event",
        "remaining",
        "speed",
        "durations",
        "complete",
    )

    def __init__(self, task: "RuntimeTask", complete: Callable[["FiringRecord"], None]) -> None:
        self.task = task
        self.start: Union[int, Fraction] = 0
        self.processor: Optional["Processor"] = None
        self.segment_start: Union[int, Fraction] = 0
        self.event: Optional["Event"] = None
        self.remaining: Optional[Union[int, Fraction]] = None
        self.speed: Optional[Fraction] = None
        #: native-unit duration per processor name (``wcet / speed``), kept
        #: at the first firing on each processor
        self.durations: Dict[str, Union[int, Fraction]] = {}
        self.complete: Callable[[], None] = partial(complete, self)


class ExecutionEngine:
    """Dispatches runtime tasks over an event queue under a scheduling policy.

    The engine owns the hot path of a simulation: deciding which task starts
    when.  It is independent of the OIL module hierarchy --
    :class:`~repro.runtime.simulator.Simulation` instantiates that hierarchy
    and registers the resulting tasks here; benchmarks and scheduler tests
    drive the engine directly on synthetic task sets
    (:mod:`repro.engine.synthetic`).

    Parameters
    ----------
    queue, trace:
        The discrete-event queue and trace recorder shared with the drivers.
    policy:
        A scheduling policy (:class:`~repro.platform.policies.PlatformPolicy`);
        default :class:`~repro.engine.policies.SelfTimedUnbounded`, which the
        engine never asks (module docstring).

    :meth:`wire_buffers` specialises the per-program hot path: wcets
    pre-converted to the queue's native units, window objects pre-bound per
    task, dependent indices pre-resolved per buffer, one :class:`FiringRecord`
    and one bound completion per task -- the firing path then allocates no
    closure and no record per firing.
    """

    def __init__(
        self,
        queue: EventQueue,
        trace: TraceRecorder,
        *,
        policy: Optional["PlatformPolicy"] = None,
    ) -> None:
        self.queue = queue
        self.trace = trace
        # The trace stores native-unit timestamps and converts them when read.
        trace.to_time = queue.to_time
        self.policy: "PlatformPolicy" = policy if policy is not None else SelfTimedUnbounded()
        #: the self-timed short-circuit: the default policy's answer is
        #: always "start now, on a processor of its own", so the engine
        #: starts its firings without asking and accounts no processor
        self._self_timed = type(self.policy) is SelfTimedUnbounded
        self.tasks: List[RuntimeTask] = []
        self._index: Dict[RuntimeTask, int] = {}
        #: one firing record per task, aligned with ``tasks`` (wire_buffers)
        self._firings: List[FiringRecord] = []
        self._ready = ReadySet()
        self._dispatch_pending = False
        self._in_dispatch = False
        self.started_firings = 0
        self.completed_firings = 0
        #: suspended firings (task -> index), in suspension order, and the
        #: per-processor busy-time accumulators (native units)
        self._suspended: Dict[RuntimeTask, int] = {}
        self._busy_internal: Dict[str, Union[int, Fraction]] = {}
        self.preemptions = 0
        self.resumes = 0
        #: completion time of the last finished firing in the queue's native
        #: units; maintained independently of the trace so makespans survive
        #: ``trace_level="off"``.  Read via :attr:`last_completion_time`.
        self._last_completion: Union[int, Fraction] = 0
        #: True once :meth:`wire_buffers` bound the firing path
        self.kernel_active = False
        #: steady-state fast-forward detector (enable_fast_forward)
        self._steady: Optional["SteadyState"] = None
        # A fresh engine is a fresh execution: drop any processor accounting
        # a previous (possibly mid-flight-stopped) run left in the policy.
        if not self._self_timed:
            self.policy.reset()
        #: optional hook run at the end of every completion (the simulator
        #: advances mode-schedule phases and notifies waiting sinks here)
        self.on_complete: Optional[Callable[[RuntimeTask], None]] = None

    @property
    def last_completion_time(self) -> Rat:
        """Completion time of the last finished firing as exact rational
        seconds (correct at every trace level and in both time
        representations)."""
        return self.queue.to_time(self._last_completion)

    @property
    def processor_busy_time(self) -> Dict[str, Rat]:
        """Accumulated busy time per processor as exact rational seconds
        (empty under the self-timed short-circuit, which accounts no
        processor).  Busy time of a suspended firing stops at the preemption
        instant and continues at the resume, and a still-running firing
        counts its executed segment up to the current instant -- so the sum
        over processors equals the sum of actually executed segments even
        when a run horizon cuts firings mid-flight (up to the exact end
        instant, :attr:`~repro.runtime.events.EventQueue.now_time`, also
        between two ticks)."""
        queue = self.queue
        busy = {name: queue.to_time(value) for name, value in self._busy_internal.items()}
        now = queue.now_time
        for firing in self._firings:
            if firing.processor is not None:
                name = firing.processor.name
                busy[name] = busy.get(name, 0) + now - queue.to_time(firing.segment_start)
        return dict(sorted(busy.items()))

    @property
    def suspended_tasks(self) -> List["RuntimeTask"]:
        """Tasks whose current firing is preempted (awaiting resume)."""
        return list(self._suspended)

    @property
    def steady_state(self) -> Optional["SteadyState"]:
        """The installed fast-forward detector (None when disabled/refused)."""
        return self._steady

    def enable_fast_forward(
        self,
        horizon,
        *,
        extra_state=None,
        sources: Sequence["SourceDriver"] = (),
        sinks: Sequence["SinkDriver"] = (),
        firing_target: Optional[int] = None,
        functions=None,
    ) -> Optional[str]:
        """Install the steady-state detector for a run up to *horizon*.

        *horizon* is in native units or rational seconds (floored to the
        tick grid like :meth:`~repro.runtime.events.EventQueue.run_until`).
        Returns a refusal message (and leaves the engine naive) when the
        configuration cannot fast-forward -- see
        :func:`repro.engine.steady_state.fast_forward_refusal`.  Calling
        again (a second ``run`` on the same simulation) refreshes the
        horizon and firing target but keeps the learned state table.

        The detector folds buffer contents, stimulus state and the state of
        the *functions* mapping (name -> ``FunctionSpec`` with
        ``get_state``) into the periodicity key, making jumps exact for data
        values too; callers must have qualified the configuration first
        (every stimulus declared periodic, every function ``jump_exact``).
        """
        from repro.engine.steady_state import SteadyState, fast_forward_refusal

        refusal = fast_forward_refusal(self.policy, self.queue.timebase)
        if refusal is not None:
            self._steady = None
            return refusal
        if not isinstance(horizon, int):
            horizon = self.queue.timebase.ticks_floor(as_rational(horizon))
        if self._steady is not None:
            self._steady.horizon = horizon
            self._steady.firing_target = firing_target
            return None
        self._steady = SteadyState(
            self,
            horizon=horizon,
            extra_state=extra_state,
            sources=sources,
            sinks=sinks,
            firing_target=firing_target,
            functions=functions,
        )
        return None

    # ------------------------------------------------------------------ build
    def derive_time_base(self, durations: Iterable[Rat] = ()) -> Optional[TimeBase]:
        """Attach the run's integer-tick base to the pristine queue and
        return it; ``None`` leaves the queue on exact fractions.

        The one derivation every run gets its time base from, for every
        policy.  The grid is the gcd (:meth:`TimeBase.for_durations`) of
        *durations* (the callers' driver periods and offsets), every
        registered task's wcet and, on the policy's platform, every
        ``wcet / speed`` a firing can take: event times are sums of these,
        so all of them lie on the grid -- except after a resume that
        rescales a remainder by a speed ratio, which no finite grid closes;
        :meth:`_resume` carries such an instant as an exact fractional tick
        count.  ``None`` means no grid exists (no positive duration, or a
        resolution past :data:`~repro.util.rational.MAX_TICK_DENOMINATOR`).
        Call after the fleet is registered and before any event is
        scheduled.
        """
        wcets = [task.wcet for task in self.tasks]
        durations = [*durations, *wcets]
        platform = self.policy.platform
        if platform is not None:
            durations.extend(platform.scaled_durations(wcets))
        timebase = TimeBase.for_durations(durations)
        self.queue.set_timebase(timebase)
        return timebase

    def register_task(self, task: RuntimeTask) -> None:
        """Add *task* to the fleet; registration order is the static priority
        order (it matches the extraction order the seed dispatcher scanned)."""
        self._index[task] = len(self.tasks)
        self.tasks.append(task)

    def wire_buffers(self) -> None:
        """Build the reverse dependency index: subscribe one waker per buffer
        so that a moved produced floor wakes the buffer's readers and a moved
        consumed floor wakes its writers.  Call once, after all tasks are
        registered and the queue's time base (if any) is set -- response
        times are pre-converted to the queue's native units, every task's
        windows, firing record and completion are bound, and the policy is
        bound to the fleet here, so the firing hot path only adds and looks
        nothing up."""
        queue = self.queue
        for task in self.tasks:
            task.wcet_internal = queue.to_internal(task.wcet)
            task.bind_windows()
        self._firings = [FiringRecord(task, self._complete) for task in self.tasks]
        if not self._self_timed:
            self.policy.bind(self.tasks)
            # Seed the busy accumulators so idle processors report 0 busy
            # time instead of being absent from the accounting.
            for processor in self.policy.processors:
                self._busy_internal.setdefault(processor.name, 0)
        self.kernel_active = True
        readers: Dict[CircularBuffer, List[RuntimeTask]] = {}
        writers: Dict[CircularBuffer, List[RuntimeTask]] = {}
        for task in self.tasks:
            for access in task.task.reads:
                dependents = readers.setdefault(task.buffers[access.buffer], [])
                if task not in dependents:
                    dependents.append(task)
            for access in task.task.writes:
                dependents = writers.setdefault(task.buffers[access.buffer], [])
                if task not in dependents:
                    dependents.append(task)
        for buffer, dependents in readers.items():
            buffer.watch_tokens(self._index_waker(dependents))
        for buffer, dependents in writers.items():
            buffer.watch_space(self._index_waker(dependents))
            self.trace.track_buffer(buffer)

    def _index_waker(self, dependents: Sequence[RuntimeTask]) -> Callable[[], None]:
        """A buffer's waker: dependent indices pre-resolved, ready-set pushes
        inlined.  Wake-for-wake identical to calling :meth:`wake_task` per
        dependent -- only dependents that can fire are pushed, and the
        dispatch event is scheduled exactly when one was (and
        :meth:`schedule_dispatch` is idempotent anyway)."""
        pairs = [(task, self._index[task]) for task in dependents]
        ready = self._ready

        def wake() -> None:
            woke = False
            for task, index in pairs:
                if task.can_fire():
                    ready.push(index)
                    woke = True
            if woke and not self._in_dispatch:
                self.schedule_dispatch()

        return wake

    # ------------------------------------------------------------------ wakes
    def wake_task(self, task: RuntimeTask) -> None:
        """Queue *task* for the next dispatch if it can fire now.

        A task that cannot fire is not queued: its eligibility can only
        rise through a moved floor its buffer's waker watches, or through
        another explicit wake, and either re-examines it then (module
        docstring)."""
        if task.can_fire():
            self._ready.push(self._index[task])
            if not self._in_dispatch:
                self.schedule_dispatch()

    def wake_tasks(self, tasks: Iterable[RuntimeTask]) -> None:
        for task in tasks:
            self.wake_task(task)

    def wake_all(self) -> None:
        """Wake the whole fleet (start-up, or after an external change):
        every task that can fire is queued."""
        self.wake_tasks(self.tasks)

    # -------------------------------------------------------------- dispatch
    def schedule_dispatch(self) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self.queue.post(self.queue.now, self._dispatch, "dispatch")

    def _dispatch(self) -> None:
        """The dispatch loop: examine only woken tasks, in the polling
        dispatcher's pass order, and ask the policy where each one starts.

        A popped task may be a *suspended* firing (queued by a freed
        processor), in which case the policy decides a resume instead of a
        start, and any decision may name a lower-priority victim to preempt.
        Tasks the policy keeps waiting (all processors busy, not next in the
        static order) stay queued for the next dispatch, which the releasing
        completion always schedules.  Under the self-timed short-circuit
        every task that can fire starts, unasked.
        """
        self._dispatch_pending = False
        self._in_dispatch = True
        ready = self._ready
        firings = self._firings
        policy = None if self._self_timed else self.policy
        start = self._start
        stalled: Optional[List[int]] = None
        try:
            while True:
                index = ready.pop()
                if index is None:
                    break
                firing = firings[index]
                task = firing.task
                if task.suspended:
                    decision = policy.decide_resume(task)
                elif not task.can_fire():
                    continue  # fell since its wake; the wake restoring it re-queues it
                elif policy is None:
                    start(firing, None)
                    continue
                else:
                    decision = policy.decide_start(task)
                if decision is None:
                    if stalled is None:
                        stalled = []
                    stalled.append(index)
                    continue
                processor, victim = decision
                if victim is not None:
                    self._preempt(victim)
                if task.suspended:
                    self._resume(firing, processor)
                else:
                    start(firing, processor)
            if stalled:
                for index in stalled:
                    ready.push(index)
        finally:
            self._in_dispatch = False

    # -------------------------------------------------------------- execution
    def _start(self, firing: FiringRecord, processor: Optional["Processor"]) -> None:
        """Start a firing on *processor* (``None``: the self-timed
        short-circuit, unaccounted) and post its completion."""
        task = firing.task
        queue = self.queue
        now = queue.now
        task.start_firing()
        self.started_firings += 1
        firing.start = now
        if processor is None:
            duration = task.wcet_internal
        else:
            self.policy.on_start(task, processor)
            firing.processor = processor
            firing.segment_start = now
            duration = firing.durations.get(processor.name)
            if duration is None:
                # exact: raises TimeBaseError should wcet / speed fall off
                # the tick grid (derive_time_base puts it on the grid)
                duration = queue.to_internal(task.wcet / processor.speed)
                firing.durations[processor.name] = duration
        firing.event = queue.post(now + duration, firing.complete, task._complete_label)

    def _complete(self, firing: FiringRecord) -> None:
        """The completion of *firing*'s task: run the body, release the
        outputs, account the processor, and wake what it enabled."""
        task = firing.task
        now = self.queue.now
        executed = task.finish_firing(task.inflight_values)
        self.completed_firings += 1
        self._last_completion = now
        trace = self.trace
        if trace.firings_enabled:
            trace.record_firing(task._key, firing.start, now, executed)
        processor = firing.processor
        if processor is not None:
            firing.processor = None
            name = processor.name
            busy = self._busy_internal
            busy[name] = busy.get(name, 0) + now - firing.segment_start
            self.policy.on_complete(task, processor)
        if self.on_complete is not None:
            self.on_complete(task)
        self.wake_task(task)
        if self._suspended:
            self._wake_suspended()
        self.schedule_dispatch()
        steady = self._steady
        if steady is not None and task is steady.anchor:
            steady.on_anchor_completion()

    def _preempt(self, victim: RuntimeTask) -> None:
        """Suspend the in-flight firing of *victim*: cancel its completion
        event and record the exact native-unit time still owed."""
        index = self._index[victim]
        firing = self._firings[index]
        queue = self.queue
        processor = firing.processor
        queue.cancel(firing.event)
        firing.remaining = firing.event.time - queue.now
        firing.speed = processor.speed
        firing.processor = None
        name = processor.name
        self._busy_internal[name] = (
            self._busy_internal.get(name, 0) + queue.now - firing.segment_start
        )
        victim.suspended = True
        victim.preemptions += 1
        self._suspended[victim] = index
        self.preemptions += 1
        self.policy.on_preempt(victim, processor)

    def _resume(self, firing: FiringRecord, processor: "Processor") -> None:
        """Continue a suspended firing on *processor*, re-posting the
        completion with exactly the remaining work.

        When the firing migrates across speeds the remainder is rescaled
        in native units, ``remaining * old_speed / new_speed``.  On ticks
        that need not be a whole number: the completion instant stays an
        ``int`` when it lands on the grid and is otherwise posted as an
        exact :class:`~fractions.Fraction` tick count, so only the instants
        a migration pushes between ticks (and those that follow from them)
        carry a fraction."""
        task = firing.task
        del self._suspended[task]
        task.suspended = False
        queue = self.queue
        now = queue.now
        remaining = firing.remaining
        if processor.speed != firing.speed:
            # the work still owed (remaining time x old speed) at the new speed
            remaining = remaining * firing.speed / processor.speed
        end = now + remaining
        if queue.timebase is not None and end.denominator == 1:
            end = int(end)  # back on the grid: keep the heap on int ticks
        firing.processor = processor
        firing.segment_start = now
        firing.remaining = None
        firing.speed = None
        firing.event = queue.post(end, firing.complete, task._complete_label)
        self.resumes += 1
        self.policy.on_resume(task, processor)

    def _wake_suspended(self) -> None:
        """Queue every suspended firing for a resume decision.  Suspended
        tasks are ``busy`` (their inputs are consumed), so :meth:`wake_task`
        would skip them; they are pushed directly."""
        for index in self._suspended.values():
            self._ready.push(index)


@dataclass
class EngineRun:
    """Outcome of a standalone engine execution (no module hierarchy)."""

    engine: ExecutionEngine
    queue: EventQueue
    trace: TraceRecorder
    #: fast-forward fallbacks and give-ups (empty when disabled or clean)
    warnings: List[str] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.warnings is None:
            self.warnings = []

    @property
    def fast_forwarded(self) -> bool:
        """True when at least one steady-state jump skipped simulated work."""
        steady = self.engine.steady_state
        return steady is not None and steady.jumps > 0

    @property
    def makespan(self):
        """Completion time of the last finished firing (engine-tracked, so
        it is correct at every trace level, including ``"off"``)."""
        return self.engine.last_completion_time

    def firing_sequence(self) -> List[str]:
        """Task names in completion order (with one-processor policies this
        equals the start order, i.e. the executed schedule).  Requires the
        default ``"full"`` trace level -- the sequence is read off the
        recorded firings."""
        return [task.rsplit(":", 1)[-1] for task in self.trace.firing_tasks()]


def run_tasks(
    tasks: Sequence[RuntimeTask],
    *,
    policy: Optional["PlatformPolicy"] = None,
    platform: Optional["Platform"] = None,
    stop_after_firings: Optional[int] = None,
    horizon=Fraction(10**9),
    trace: Optional[TraceRecorder] = None,
    fast_forward: Union[bool, str] = "auto",
) -> EngineRun:
    """Execute *tasks* data-driven on a fresh event queue.

    Runs until the queue drains, *horizon* is reached, or (when
    *stop_after_firings* is given) at least that many firings completed --
    whichever comes first.  This is the entry point for scheduler experiments
    and benchmarks that need the execution layer without compiling an OIL
    program.

    ``platform`` is a :class:`~repro.platform.model.Platform` shorthand for
    ``policy=platform.policy()`` (its natural default policy); pass a
    platform policy via ``policy=`` directly for preemptive / partitioned
    variants.  Mutually exclusive with ``policy``.

    The queue's time base is derived, as for every simulation, by
    :meth:`ExecutionEngine.derive_time_base`: integer ticks on the gcd of
    the tasks' response times (and their speed-scaled variants on every
    platform processor), exact fractions when no grid exists.  A remainder
    a migration rescales between two ticks is posted as an exact fractional
    tick count.  *horizon* is in seconds; a negative one raises
    :class:`ValueError`.

    ``fast_forward`` selects the steady-state detector
    (:mod:`repro.engine.steady_state`):

    * ``"auto"`` (the default) installs the value-exact detector when every
      function the fleet invokes declares jump-exact behaviour
      (``stateless``, ``jump_invariant`` or ``get_state`` -- see
      :class:`~repro.runtime.functions.FunctionSpec`); the run is then
      bit-identical to naive execution, data values included.  Fleets with
      undeclared functions run naively, recording an
      ``undeclared-function`` :class:`~repro.util.runwarnings.RunWarning`;
      engine-level refusals fall back silently (auto never promised a
      jump).
    * ``False`` runs naively.

    Any other value raises :class:`ValueError`.

    Every policy runs through the engine's one dispatch loop, on either
    time base.
    """
    from repro.engine.steady_state import check_fast_forward, function_qualification
    from repro.runtime.events import EventQueue
    from repro.runtime.trace import TraceRecorder

    check_fast_forward(fast_forward)
    horizon = check_non_negative(as_rational(horizon), "horizon")
    if platform is not None:
        if policy is not None:
            raise ValueError("pass either policy= or platform=, not both")
        policy = platform.policy()
    queue = EventQueue()
    trace = trace if trace is not None else TraceRecorder()
    engine = ExecutionEngine(queue, trace, policy=policy)
    for task in tasks:
        engine.register_task(task)
    engine.derive_time_base()
    engine.wire_buffers()
    engine.wake_all()
    engine.schedule_dispatch()
    warnings: List[str] = []
    if fast_forward == "auto":
        qualified, specs, warning = function_qualification(tasks)
        if warning is not None:
            warnings.append(warning)
        if qualified:
            # Refusals are silent: "auto" never promised a jump.
            engine.enable_fast_forward(
                horizon, firing_target=stop_after_firings, functions=specs
            )
    if stop_after_firings is None:
        queue.run_until(horizon)
    else:
        target = stop_after_firings
        queue.run_until(horizon, stop=lambda: engine.completed_firings >= target)
    if engine.steady_state is not None:
        warnings.extend(engine.steady_state.warnings)
    return EngineRun(engine=engine, queue=queue, trace=trace, warnings=warnings)
