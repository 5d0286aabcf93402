"""Scheduling policies: decisions are (task, processor, action).

The execution engine (:mod:`repro.engine.dispatcher`) decides *when* a task
is eligible -- enough tokens on every read buffer, enough space on every
write buffer, loop active, no firing in flight.  A policy decides *where*
an eligible task runs and whether it runs now.  :class:`PlatformPolicy` is
the one scheduling protocol: every policy answers with a
:class:`PlatformDecision` -- which processor the firing occupies, and
optionally which in-flight firing is preempted to make room -- or ``None``
to keep the task queued.  The engine performs the mechanics (cancelling
and re-posting completion events, tracking remaining work, per-processor
busy accounting); the policy only decides.

Policies
--------
* :class:`SelfTimedPlatform` -- one virtual processor per task; the
  accounted form of :class:`~repro.engine.policies.SelfTimedUnbounded`
  (bit-identical traces).
* :class:`ListScheduledPlatform` -- greedy list scheduling: first free
  processor in platform order.  On a homogeneous platform this is
  :class:`~repro.engine.policies.BoundedProcessors`; on a heterogeneous
  platform it is speed-aware greedy scheduling (fastest-first when the
  platform lists fast processors first).
* :class:`StaticOrderPlatform` -- a fixed (cyclic) firing sequence on a
  single processor; :class:`~repro.engine.policies.StaticOrder` on a
  described (optionally scaled) processor.
* :class:`FixedPriorityPreemptive` -- preemptive fixed-priority scheduling:
  an eligible task preempts the lowest-priority running firing when no
  processor is free and that firing's priority is strictly lower.  Priorities
  default to registration (extraction) order; lower value = higher priority.
* :class:`PartitionedHeterogeneous` -- non-migrating partitioned scheduling:
  every task is pinned to one processor (explicit mapping, the platform's
  affinity table, or round-robin by default) and runs to completion there at
  the processor's speed.

Every policy is picklable before binding (module-level key functions, plain
data), so policies travel as sweep axes to worker processes; the engine
binds them to the task fleet in ``wire_buffers``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple, Optional, Protocol, Sequence, Tuple, runtime_checkable

from repro.platform.model import Platform, Processor
from repro.util.validation import require

if TYPE_CHECKING:  # annotations only
    from repro.runtime.tasks import RuntimeTask


def _task_name(task: "RuntimeTask") -> str:
    """Default schedule / priority / mapping key: the bare task name.

    A module-level function (not a lambda) so a default-keyed policy pickles
    by reference -- process-parallel sweeps ship policy instances to worker
    processes.
    """
    return task.name


class PlatformDecision(NamedTuple):
    """One scheduling decision: start (or resume) on *processor*, after
    suspending *preempt* (when set, an in-flight lower-priority firing whose
    remaining work the engine re-posts on resume).  A plain tuple, so the
    engine unpacks it without a call and a policy can keep one per
    processor instead of building one per firing."""

    processor: Processor
    preempt: Optional["RuntimeTask"] = None


@runtime_checkable
class PlatformPolicy(Protocol):
    """The scheduling protocol every policy speaks.

    ``processors`` is the processor set busy time is accounted on (virtual
    ones exist after :meth:`bind`); ``platform`` is the
    :class:`~repro.platform.model.Platform` a run reports, or ``None`` for
    policies that schedule anonymous processors.  ``steady_state_key()``
    is a hashable summary of every state that influences future decisions;
    the steady-state fast-forward detector folds it into its periodicity
    key, and a policy without it opts out of fast-forward.
    """

    platform: Optional[Platform]
    processors: Tuple[Processor, ...]

    def bind(self, tasks: Sequence["RuntimeTask"]) -> None:
        """Resolve task-dependent state (priorities, affinity, virtual
        processors).  Called by the engine once the fleet is registered."""
        ...

    def decide_start(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        """Where may this *eligible* task start a fresh firing right now?
        ``None`` keeps it queued."""
        ...

    def decide_resume(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        """Where may this *suspended* firing continue right now?"""
        ...

    def on_start(self, task: "RuntimeTask", processor: Processor) -> None: ...

    def on_preempt(self, task: "RuntimeTask", processor: Processor) -> None: ...

    def on_resume(self, task: "RuntimeTask", processor: Processor) -> None: ...

    def on_complete(self, task: "RuntimeTask", processor: Processor) -> None: ...

    def reset(self) -> None:
        """Drop run-scoped state.  The engine calls this when it is
        constructed, so one policy object can be reused across runs."""
        ...

    def steady_state_key(self) -> tuple: ...


class PlatformPolicyBase:
    """Shared bookkeeping: which task occupies which processor.

    Subclasses implement :meth:`decide_start` (and, for preemptive policies,
    :meth:`decide_resume`); the engine drives the ``on_*`` notifications,
    which maintain the occupancy table here.  A completion or preemption
    that names a processor the task does not occupy (a stale event of a run
    stopped mid-flight, after :meth:`reset`) changes nothing, so it can
    never free a processor twice and over-admit starts.
    """

    def __init__(self, platform: Platform) -> None:
        self.platform: Optional[Platform] = platform
        #: the processors scheduling runs on (virtual platforms make theirs
        #: at bind)
        self.processors: Tuple[Processor, ...] = platform.processors
        #: processor name -> the task whose firing currently occupies it
        self._running: Dict[str, "RuntimeTask"] = {}
        self._tasks: Tuple["RuntimeTask", ...] = ()
        #: (name, start decision) per processor in platform order: the
        #: first-free scan returns a kept decision instead of building one
        self._starts = tuple((p.name, PlatformDecision(p)) for p in self.processors)

    # ------------------------------------------------------------------ bind
    @property
    def migrates_across_speeds(self) -> bool:
        """True when a suspended firing may resume on a different-speed
        processor.  A rescaled remainder (``remaining * s1 / s2``) is closed
        under no finite tick grid: the run keeps its derived grid and the
        engine posts an instant that falls between two ticks as an exact
        fractional tick count (``ExecutionEngine._resume``), whether or not
        the policy declares it.  The declaration makes
        ``RunResult.time_base`` read ``"fraction"`` (instants may fall
        between ticks and are carried as exact fractions) and refuses
        steady-state fast-forward (``speed-migrating-policy``)."""
        return False

    def bind(self, tasks: Sequence["RuntimeTask"]) -> None:
        self._tasks = tuple(tasks)
        self._bound()

    def _bound(self) -> None:
        """Subclass hook run after :meth:`bind` stored the fleet."""

    # -------------------------------------------------------------- decisions
    def first_free(self) -> Optional[PlatformDecision]:
        """A start on the first free processor in platform order (None when
        every processor is occupied)."""
        running = self._running
        for name, decision in self._starts:
            if name not in running:
                return decision
        return None

    def decide_start(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        raise NotImplementedError

    def decide_resume(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        """Non-preemptive policies never suspend, so a resume request can
        only be a protocol misuse."""
        raise RuntimeError(
            f"{type(self).__name__} never preempts; there is no firing to resume"
        )

    # ---------------------------------------------------------- notifications
    def on_start(self, task: "RuntimeTask", processor: Processor) -> None:
        self._running[processor.name] = task

    def on_preempt(self, task: "RuntimeTask", processor: Processor) -> None:
        if self._running.get(processor.name) is task:
            del self._running[processor.name]

    def on_resume(self, task: "RuntimeTask", processor: Processor) -> None:
        self._running[processor.name] = task

    def on_complete(self, task: "RuntimeTask", processor: Processor) -> None:
        if self._running.get(processor.name) is task:
            del self._running[processor.name]

    def reset(self) -> None:
        self._running.clear()

    def steady_state_key(self) -> tuple:
        """Hashable occupancy summary for the steady-state detector.

        The *insertion order* of the occupancy table is part of the key, not
        just its contents: :class:`FixedPriorityPreemptive` scans the table
        in that order when selecting a preemption victim, so two states with
        equal contents but different order can schedule differently.
        """
        return tuple((name, task.producer_key()) for name, task in self._running.items())


class SelfTimedPlatform(PlatformPolicyBase):
    """Self-timed execution on virtually unbounded hardware: every task owns
    its own processor, so an eligible task always starts immediately.

    The accounted form of :class:`~repro.engine.policies.SelfTimedUnbounded`
    -- traces are bit-identical (regression-asserted).  Per-task processors
    are materialised at bind time and named by the task's producer key, so
    the per-processor busy accounting doubles as per-task busy accounting.
    """

    def __init__(self, platform: Optional[Platform] = None) -> None:
        platform = platform if platform is not None else Platform.unbounded()
        require(platform.is_unbounded, "SelfTimedPlatform runs on Platform.unbounded()")
        super().__init__(platform)
        self._decision_of: Dict["RuntimeTask", PlatformDecision] = {}

    def _bound(self) -> None:
        self._decision_of = {
            task: PlatformDecision(Processor(task.producer_key())) for task in self._tasks
        }
        self.processors = tuple(self._decision_of[task].processor for task in self._tasks)

    def decide_start(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        return self._decision_of[task]

    def steady_state_key(self) -> tuple:
        # One virtual processor per task: the occupancy table mirrors the
        # tasks' busy flags, which the detector's state key already covers.
        return ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SelfTimedPlatform()"


class ListScheduledPlatform(PlatformPolicyBase):
    """Greedy list scheduling: an eligible task takes the first free
    processor in platform order (tasks are offered in static order, the
    classical list-scheduling priority).

    On ``Platform.homogeneous(n)`` this is
    :class:`~repro.engine.policies.BoundedProcessors` with bit-identical
    traces; on a heterogeneous platform the processor *order* becomes the
    allocation preference (list fast processors first to keep them busy).
    """

    def __init__(self, platform: Platform) -> None:
        require(not platform.is_unbounded, "ListScheduledPlatform needs concrete processors")
        super().__init__(platform)

    def decide_start(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        return self.first_free()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ListScheduledPlatform({self.platform.name!r})"


class StaticOrderPlatform(PlatformPolicyBase):
    """A fixed (cyclic) firing sequence on one processor.

    *order* lists one entry per firing; when *cyclic* (the default) the
    sequence repeats indefinitely, which is the ``loop{...} while(1)``
    wrapper of a generated sequential program.  One-shot (initialisation)
    tasks are outside the steady-state schedule and start whenever the
    processor is free -- but, like every firing on this single processor,
    never while another firing is in flight.  Only steady-state completions
    advance the schedule, and a stale completion (one whose task does not
    occupy the processor) advances nothing.

    Schedule entries are matched against ``key(task)`` -- bare ``task.name``
    by default, which is unambiguous for SDF-derived and synthetic task sets
    (one task per actor).  For compiled OIL programs, where distinct module
    instances may contain same-named tasks, pass ``key=lambda t:
    t.producer_key()`` and spell the schedule in ``"instance:name"`` form.
    A *platform* of one (possibly scaled) processor runs the schedule on
    slower or faster silicon.
    """

    def __init__(
        self,
        order: Sequence[str],
        *,
        cyclic: bool = True,
        key: Optional[Callable[["RuntimeTask"], str]] = None,
        platform: Optional[Platform] = None,
    ) -> None:
        platform = platform if platform is not None else Platform.homogeneous(1)
        require(len(platform) == 1, "StaticOrderPlatform schedules a single processor")
        require(len(order) > 0, "a static-order schedule needs at least one entry")
        super().__init__(platform)
        self.order: List[str] = list(order)
        self.cyclic = cyclic
        self.position = 0
        self._key = key if key is not None else _task_name

    def current(self) -> Optional[str]:
        """Schedule entry the policy admits next (None when exhausted)."""
        if not self.cyclic and self.position >= len(self.order):
            return None
        return self.order[self.position % len(self.order)]

    def decide_start(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        decision = self.first_free()
        if decision is None:
            return None
        if task.one_shot or self._key(task) == self.current():
            return decision
        return None

    def on_complete(self, task: "RuntimeTask", processor: Processor) -> None:
        if self._running.get(processor.name) is not task:
            return  # stale: do not advance past entries that never ran
        super().on_complete(task, processor)
        if not task.one_shot:
            self.position += 1

    def reset(self) -> None:
        super().reset()
        self.position = 0

    def steady_state_key(self) -> tuple:
        # A cyclic schedule only cares about the position modulo its length
        # (the absolute one grows forever and would make every state
        # unique); a finite schedule keeps the absolute position.
        position = self.position % len(self.order) if self.cyclic else self.position
        return super().steady_state_key() + (position,)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticOrderPlatform({len(self.order)} firings, cyclic={self.cyclic})"


class FixedPriorityPreemptive(PlatformPolicyBase):
    """Preemptive fixed-priority scheduling on a shared processor set.

    Every task has a static priority (lower value = higher priority;
    unlisted tasks default to their registration index, which is the
    extraction order -- the engine's documented static priority order).  An
    eligible task takes a free processor when one exists; otherwise it
    preempts the lowest-priority running firing *iff* that firing's priority
    is strictly lower than its own.  Preempted firings keep their consumed
    inputs and resume -- possibly on a different processor -- with exactly
    the remaining work re-posted by the engine; a suspended high-priority
    firing may itself preempt a lower-priority one to resume.

    On heterogeneous platforms a migrated resume rescales the remaining
    work by the speed ratio.  A rescaled remainder need not be a whole
    number of ticks, so on multi-speed platforms this policy reports
    :attr:`migrates_across_speeds`.  Its runs still derive the tick grid;
    only the instants a migration pushes between two ticks are exact
    fractional tick counts (observationally identical to a run on
    fractions), and ``RunResult.time_base`` reads ``"fraction"``.
    """

    def __init__(
        self,
        platform: Platform,
        *,
        priorities: Optional[Mapping[str, int]] = None,
        key: Optional[Callable[["RuntimeTask"], str]] = None,
    ) -> None:
        require(not platform.is_unbounded, "FixedPriorityPreemptive needs concrete processors")
        super().__init__(platform)
        self.priorities: Dict[str, int] = dict(priorities or {})
        self._key = key if key is not None else _task_name
        #: task -> (priority value, registration index): total order, ties
        #: broken by registration so victim selection is deterministic
        self._rank: Dict["RuntimeTask", Tuple[int, int]] = {}

    def _bound(self) -> None:
        self._rank = {
            task: (self.priorities.get(self._key(task), index), index)
            for index, task in enumerate(self._tasks)
        }

    def rank_of(self, task: "RuntimeTask") -> Tuple[int, int]:
        return self._rank[task]

    @property
    def migrates_across_speeds(self) -> bool:
        return len(set(self.platform.speeds)) > 1

    def _decide(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        decision = self.first_free()
        if decision is not None:
            return decision
        victim_name = None
        victim_rank = self.rank_of(task)
        for name, running in self._running.items():
            rank = self.rank_of(running)
            if rank > victim_rank:
                victim_name, victim_rank = name, rank
        if victim_name is None:
            return None
        return PlatformDecision(
            self.platform.processor(victim_name), preempt=self._running[victim_name]
        )

    decide_start = _decide
    decide_resume = _decide

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FixedPriorityPreemptive({self.platform.name!r}, "
            f"{len(self.priorities)} explicit priorities)"
        )


class PartitionedHeterogeneous(PlatformPolicyBase):
    """Non-migrating partitioned scheduling on a (possibly heterogeneous)
    processor set: every task is pinned to one processor and its firings run
    there to completion at the processor's speed.

    The pin comes from *mapping* (task key -> processor name), falling back
    to the platform's affinity table, falling back to round-robin over the
    processors in registration order.  This is the classical partitioned
    model: a firing never migrates, so heterogeneous speeds stay exact under
    integer-tick time bases (each task only ever schedules
    ``wcet / speed(pin)``).
    """

    def __init__(
        self,
        platform: Platform,
        *,
        mapping: Optional[Mapping[str, str]] = None,
        key: Optional[Callable[["RuntimeTask"], str]] = None,
    ) -> None:
        require(not platform.is_unbounded, "PartitionedHeterogeneous needs concrete processors")
        super().__init__(platform)
        self.mapping: Dict[str, str] = dict(mapping if mapping is not None else platform.mapping)
        for task_key, processor_name in self.mapping.items():
            platform.processor(processor_name)  # raises KeyError with context
        self._key = key if key is not None else _task_name
        self._decision_of: Dict["RuntimeTask", PlatformDecision] = {}

    def _bound(self) -> None:
        processors = self.platform.processors
        self._decision_of = {}
        for index, task in enumerate(self._tasks):
            pinned = self.mapping.get(self._key(task))
            if pinned is None:
                pinned = self.mapping.get(task.producer_key())
            if pinned is not None:
                processor = self.platform.processor(pinned)
            else:
                processor = processors[index % len(processors)]
            self._decision_of[task] = PlatformDecision(processor)

    def processor_of(self, task: "RuntimeTask") -> Processor:
        """The processor *task* is pinned to (after bind)."""
        return self._decision_of[task].processor

    def decide_start(self, task: "RuntimeTask") -> Optional[PlatformDecision]:
        decision = self._decision_of[task]
        if decision.processor.name in self._running:
            return None
        return decision

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedHeterogeneous({self.platform.name!r}, "
            f"{len(self.mapping)} pinned)"
        )
