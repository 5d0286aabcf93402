"""Online steady-state detection and O(1) fast-forward.

Self-timed executions of consistent programs converge to a *periodic regime*
-- the paper's core observation, computed offline by
:func:`repro.dataflow.statespace.self_timed_statespace` via state-space
exploration.  This module detects the same periodicity *online*, while the
engine simulates, and exploits it: once the execution state repeats, the
remaining horizon is covered in O(1) per period batch instead of O(events).

How it works
------------
At the first completion of the *anchor* task (the first steady-state task of
the fleet) at or after each multiple of the *sampling grid* (see below), the
detector captures a canonical key of the entire execution state:

* per buffer: the window positions of every producer/consumer relative to
  the buffer's least-advanced window (absolute positions grow forever; the
  *relative* layout is what repeats) and the stored values, read from the
  least-advanced producer on,
* the pending event multiset in execution order, as ``(time - now, rank,
  label)`` -- completion events, driver ticks and the dispatch event, with
  same-instant ties kept in their sequence order (ties execute in that
  order, so it is part of the state),
* per task, read off its firing record: busy/suspended/active flags, phase
  progress, and the occupied processor with the elapsed segment time
  (running on an accounted processor) or the exact remaining work and
  accrual speed (suspended),
* the ready set's queued indices, the policy's
  ``steady_state_key()`` and any simulator-supplied extra state (mode
  schedule phases),
* every source stimulus's position, every declared stateful function's
  state and the input values of in-flight firings.

The components are canonicalised through the same
:func:`~repro.dataflow.statespace.canonical_state_key` helper as the offline
analysis, so both notions of "state" agree (cross-checked by tests).  All
components are *shift-invariant*: translating the whole execution in time
does not change the key.

When a key repeats, the time between the two occurrences is (a multiple of)
the steady-state period ``delta`` and the counter differences are exact
per-``delta`` increments.  The detector then *jumps* ``K`` periods at once:

* every pending event and the clock advance rigidly by ``K * delta``
  (:meth:`~repro.runtime.events.EventQueue.shift_pending`),
* engine counters, per-task firing/preemption counters, per-processor busy
  time, driver production/consumption counters and the trace's streaming
  statistics advance by ``K`` times their per-period delta, and every
  in-flight firing record's start (and segment start) moves with the clock,
* every buffer window advances by ``K`` times its buffer's per-period
  advance and the storage ring rotates with it (floors translated, no
  watcher fires: relative state is unchanged, so nothing new is enabled),
* every source stimulus advances by the skipped draw count,
* with unbounded trace retention, the stored trace records and sink values
  of the canonical period are replayed ``K`` times with shifted timestamps,
  keeping even the stored trace bit-identical to a naive run.

Afterwards the simulation resumes naively; further samples hit the same
(shift-invariant) keys and trigger further jumps until the horizon is within
one period.

Sampling grid
-------------
Every source and sink is time-triggered at its declared rate, and the key
holds every driver's next tick relative to ``now``.  Two equal keys are
therefore a whole number of every driver period apart: any recurrence spans
a multiple of ``H``, the lcm of the endpoint periods in ticks (1/32 s on the
PAL decoder, whose anchor completes 6,400 times per simulated second).  So
the detector samples only at the first anchor completion at or after each
multiple of ``H``.  That loses no recurrence and detects it less than one
``H`` later; exactness does not depend on where the samples fall, because
key equality still proves each jump.  A jump moves the next grid instant
with the clock (a jump spans whole periods, so the grid stays aligned).
Fleets without drivers (:func:`~repro.engine.dispatcher.run_tasks` rings)
have no grid and sample at every anchor completion.  The key is recomputed
from scratch at each sample, which on the grid is a small fraction of the
naive stepping between two samples.

Exactness contract
------------------
Timing in this engine is value-independent (guards gate *data*, never token
counts or durations), so every timing-derived quantity -- completion times,
deadline misses, measured rates, busy/utilisation/energy accounting,
buffer high-water marks -- is *exactly* equal to a naive simulation.  Data
values are exact too: the key folds in every buffer's stored values
(rotation-anchored, so the fold is shift-invariant), every source
stimulus's ``state()``, the ``get_state()`` of every declared stateful
function, and the in-flight input values of busy tasks.  A repeat of this
key proves the skipped periods are exact copies *including data*, so the
replay machinery (ring rotation of resident buffer values, sink-value
replay, trace replay) reproduces a naive run bit-for-bit; at the jump each
stimulus is advanced by ``K * per-period draws`` (an exact O(1) index move
for declared-periodic stimuli -- a semantic no-op modulo their period,
which the key repeat guarantees).  Declared function state needs no
touching at all: the fold guarantees the live state *is* the canonical
state on both sides of the jump.  The key is folded down to a single
:func:`value_digest` (buffer contents would make exact tuples large), and
the state table holds up to :data:`MAX_STATES` sampled states.  The
callers only install the detector once the run qualifies (every stimulus
``value_periodic``, every used function ``jump_exact``); a run that does
not qualify steps naively, which is exact by definition.

Refusals
--------
:func:`fast_forward_refusal` reports (as a :class:`RunWarning` with a
stable ``warning_code``) why a configuration cannot fast-forward:
speed-migrating preemptive platform policies (rescaled remainders are not
closed under a tick grid, so their instants may fall between ticks),
fraction-mode queues (durations that admit no tick grid), and
policies that do not expose ``steady_state_key()``.  Refused runs fall back silently to naive
simulation.  The *value-exact qualification* (every stimulus
``value_periodic``, every used function ``jump_exact``) is checked by the
callers (:mod:`repro.engine.dispatcher`, :mod:`repro.runtime.simulator`)
through :func:`function_qualification`, whose ``undeclared-function``
warning they record on the fallback path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dataflow.statespace import canonical_state_key
from repro.util.runwarnings import RunWarning

if TYPE_CHECKING:  # annotations only
    from repro.engine.dispatcher import ExecutionEngine
    from repro.graph.circular_buffer import CircularBuffer
    from repro.runtime.functions import FunctionSpec
    from repro.runtime.sources import SinkDriver, SourceDriver
    from repro.runtime.tasks import RuntimeTask


#: A jump that replays more than this many draws through an O(k)
#: ``Stimulus.advance`` (generator-backed streams) emits a structured
#: ``generator-advance`` warning: the jump still happens, but its cost is
#: linear in the skipped horizon, which defeats the point of fast-forward.
GENERATOR_ADVANCE_THRESHOLD = 10_000

#: The detector gives up (``state-table-overflow``) after storing this many
#: distinct sampled states without a repeat.
MAX_STATES = 16_384


def value_digest(value: Any) -> int:
    """A cheap integer digest of one data value: the C-level ``hash`` for
    hashable values (floats, ints, tuples -- everything the packaged apps
    stream), ``hash(repr(value))`` for unhashable ones (lists, arrays).

    Digests are compared only within one process (the state table is
    in-memory), so ``PYTHONHASHSEED`` sensitivity of string hashes is
    irrelevant here."""
    try:
        return hash(value)
    except TypeError:
        return hash(repr(value))


def check_fast_forward(mode) -> None:
    """Reject a ``fast_forward=`` value other than ``"auto"`` (the
    value-exact detector) or ``False`` (naive stepping)."""
    if mode is False or mode == "auto":
        return
    if mode is True:
        raise ValueError(
            'fast_forward=True (the timing-exact mode) was removed; use "auto" '
            "(the default: value-exact jumps, bit-identical to a naive run) or False"
        )
    raise ValueError(f'fast_forward must be "auto" or False, got {mode!r}')


def function_qualification(
    tasks: Sequence["RuntimeTask"],
) -> Tuple[bool, Dict[str, "FunctionSpec"], Optional[RunWarning]]:
    """Qualify the functions a fleet can invoke for value-exact jumps.

    Returns ``(qualified, specs, warning)``: the :class:`FunctionSpec` of
    every registered function *tasks* can invoke, whether all of them
    declare jump-exact behaviour, and the ``undeclared-function``
    :class:`RunWarning` naming those that do not (None when none).  An
    unregistered name disqualifies silently: there is nothing to declare
    on (a synthetic fleet's fallback name)."""
    specs: Dict[str, "FunctionSpec"] = {}
    qualified = True
    undeclared: List[str] = []
    for task in tasks:
        for name in task.function_names():
            if name in specs:
                continue
            try:
                spec = task.registry.get(name)
            except KeyError:
                qualified = False
                continue
            specs[name] = spec
            if not spec.jump_exact:
                qualified = False
                undeclared.append(name)
    warning = None
    if undeclared:
        warning = RunWarning(
            "fast-forward (auto) fell back to naive execution: "
            f"function(s) {', '.join(sorted(undeclared))} declare no "
            "jump behaviour (stateless, jump_invariant or get_state)",
            "undeclared-function",
        )
    return qualified, specs, warning


def fast_forward_refusal(policy, timebase) -> Optional[str]:
    """Why steady-state fast-forward cannot run this configuration (None
    when it can).  Returned values are :class:`RunWarning` strings carrying
    a stable ``warning_code``."""
    if getattr(policy, "migrates_across_speeds", False):
        return RunWarning(
            f"fast-forward refused: {type(policy).__name__} resumes preempted "
            "firings across processor speeds, and rescaled remainders are not "
            "closed under a tick grid; running naively",
            "speed-migrating-policy",
        )
    if timebase is None:
        return RunWarning(
            "fast-forward refused: the run's durations admit no integer tick "
            "grid, so the event queue runs on exact fractions; steady-state "
            "detection requires ticks; running naively",
            "fraction-time-base",
        )
    if not callable(getattr(policy, "steady_state_key", None)):
        return RunWarning(
            f"fast-forward refused: policy {type(policy).__name__} exposes no "
            "steady_state_key(); its hidden scheduling state cannot be folded "
            "into the periodicity key; running naively",
            "no-steady-state-key",
        )
    return None


@dataclass
class _Snapshot:
    """Absolute counter values at one anchor completion (one per distinct
    state key; differences between two occurrences of a key are exact
    per-period deltas)."""

    now: int
    processed: int
    started: int
    completed: int
    preemptions: int
    resumes: int
    #: (completed_firings, preemptions) per task, aligned with engine.tasks
    task_stats: Tuple[Tuple[int, int], ...]
    #: least released window position per buffer, aligned with the detector's
    #: buffer list; all windows of a buffer advance by the same per-period
    #: amount (key equality pins their relative layout), so one base per
    #: buffer captures every window's motion
    buffer_bases: Tuple[int, ...]
    busy: Dict[str, object]
    #: (produced, dropped) per source driver
    source_stats: Tuple[Tuple[int, int], ...]
    #: (consumed_count, misses, stored-consumed-length) per sink driver
    sink_stats: Tuple[Tuple[int, int, int], ...]
    trace_snapshot: Dict[str, object]


class SteadyState:
    """Online periodicity detector and fast-forwarder for one engine run.

    Installed by :meth:`ExecutionEngine.enable_fast_forward`; the engine
    calls :meth:`on_anchor_completion` at the end of every completion of the
    anchor task, and the detector samples the first of them at or after
    each grid instant (module doc, "Sampling grid").
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        *,
        horizon: int,
        extra_state: Optional[Callable[[], tuple]] = None,
        sources: Sequence["SourceDriver"] = (),
        sinks: Sequence["SinkDriver"] = (),
        firing_target: Optional[int] = None,
        functions: Optional[Mapping[str, "FunctionSpec"]] = None,
    ) -> None:
        self.engine = engine
        self.queue = engine.queue
        self.trace = engine.trace
        self.horizon = horizon
        self.extra_state = extra_state
        self.sources = tuple(sources)
        self.sinks = tuple(sinks)
        self.firing_target = firing_target
        self._stateful_functions: Tuple[Tuple[str, "FunctionSpec"], ...] = tuple(
            sorted(
                ((name, spec) for name, spec in (functions or {}).items()
                 if spec.get_state is not None),
                key=lambda item: item[0],
            )
        )
        #: replay stored trace records / sink values through skipped periods
        #: only while retention is unbounded -- a capped trace would drop
        #: them again anyway, and the streaming counters stay exact either way
        self._replay = self.trace.retention is None
        self.anchor: Optional["RuntimeTask"] = next(
            (task for task in engine.tasks if not task.one_shot), None
        )
        #: give up: no anchor, state budget exhausted
        self.done = self.anchor is None
        self._seen: Dict[tuple, _Snapshot] = {}
        self._buffers = self._collect_buffers()
        #: sampling grid H in ticks: the lcm of every endpoint period (None
        #: without drivers: sample every anchor completion)
        periods = [self.queue.to_internal(d.period) for d in self.sources + self.sinks]
        self.grid: Optional[int] = math.lcm(*periods) if periods else None
        #: the next grid instant; anchor completions before it are not sampled
        self._next_sample = 0
        #: producer keys of one-shot (initialisation) tasks: their windows,
        #: once retired (``active=False``), are frozen forever and must be
        #: ignored by the periodicity key and the jump -- a window pinned at
        #: the end of its prefix would otherwise stretch the relative layout
        #: without bound.  Inactive windows of *loop* tasks (deactivated mode
        #: schedules) are real state and stay in the key: their positions
        #: repeat once the schedule cycles.
        self._one_shot_keys = frozenset(
            task.producer_key() for task in engine.tasks if task.one_shot
        )
        self.warnings: List[str] = []
        # Detection / jump statistics (reported by EngineRun / RunResult).
        self.jumps = 0
        self.skipped_ticks = 0
        self.skipped_events = 0
        self.period_ticks: Optional[int] = None
        self.transient_ticks: Optional[int] = None
        self.period_firings: Optional[int] = None

    def _collect_buffers(self) -> Tuple["CircularBuffer", ...]:
        buffers: Dict[int, "CircularBuffer"] = {}
        for task in self.engine.tasks:
            for _, _, buffer in task._reads:
                buffers[id(buffer)] = buffer
            for _, _, buffer in task._writes:
                buffers[id(buffer)] = buffer
        for driver in self.sources + self.sinks:
            buffers[id(driver.buffer)] = driver.buffer
        return tuple(sorted(buffers.values(), key=lambda b: b.name))

    # -------------------------------------------------------------- state key
    def _retired(self, window) -> bool:
        """A permanently frozen window: the retired window of a completed
        one-shot task (see ``_one_shot_keys``)."""
        return not window.active and window.name in self._one_shot_keys

    def _buffer_bases(self) -> Tuple[int, ...]:
        bases = []
        for buffer in self._buffers:
            base = None
            for windows in (buffer._producers, buffer._consumers):
                for window in windows.values():
                    if self._retired(window):
                        continue
                    if base is None or window.released < base:
                        base = window.released
            bases.append(base if base is not None else 0)
        return tuple(bases)

    def state_key(self) -> tuple:
        """The canonical, shift-invariant execution state (see module doc),
        computed from the live structures; never mutates anything."""
        queue = self.queue
        engine = self.engine
        now = queue.now
        buffer_items = []
        for buffer in self._buffers:
            base = None
            windows = []
            for kind, table in ((0, buffer._producers), (1, buffer._consumers)):
                for window in table.values():
                    if self._retired(window):
                        continue
                    windows.append((kind, window))
                    if base is None or window.released < base:
                        base = window.released
            base = base if base is not None else 0
            layout = tuple(
                sorted(
                    (kind, w.name, w.released - base, w.acquired - base, w.active)
                    for kind, w in windows
                )
            )
            # Stored values, rotation-anchored at the producer floor so the
            # fold is shift-invariant like the window layout: token index i
            # lives in slot i % capacity, and the floor advances with the
            # windows, so two period-equivalent states read the same
            # sequence regardless of absolute position.
            storage = buffer._storage
            anchor = buffer.produced_floor if buffer._producers else base
            rotation = anchor % buffer.capacity
            folded = value_digest(tuple(storage[rotation:] + storage[:rotation]))
            buffer_items.append((buffer.name, layout, folded))
        # Pending events in execution order; the rank keeps same-instant ties
        # in sequence order (their execution order) through the sort.
        live = sorted(
            (time, sequence, event.label)
            for time, sequence, event in queue._heap
            if not event.cancelled
        )
        pendings = [
            (time - now, rank, label) for rank, (time, _, label) in enumerate(live)
        ]
        task_items = []
        for index, firing in enumerate(engine._firings):
            task = firing.task
            if firing.processor is not None:
                processor, elapsed = firing.processor.name, now - firing.segment_start
            else:
                processor, elapsed = "", -1
            if task.suspended:
                remaining, speed = firing.remaining, str(firing.speed)
            else:
                remaining, speed = -1, ""
            # ``phase_firings`` is deliberately absent: it grows without
            # bound on unphased tasks (it only resets under a mode
            # schedule).  Mode-schedule progress -- including the bounded
            # phase_firings of phased instances -- arrives via the
            # simulator's ``extra_state`` instead.
            task_items.append(
                (
                    index,
                    task.busy,
                    task.suspended,
                    task.active,
                    task.fired_once,
                    processor,
                    elapsed,
                    remaining,
                    speed,
                )
            )
        key = canonical_state_key(buffer_items, pendings, task_items)
        ready = tuple(sorted(engine._ready._queued))
        policy_key = self.engine.policy.steady_state_key()
        extra = self.extra_state() if self.extra_state is not None else ()
        # Every mutable value state in the system joins the key; the fat
        # tuple is collapsed to a single digest so the state table stays
        # small even with large buffer contents and long value periods.
        stimulus_states = tuple(source.values.state() for source in self.sources)
        function_states = tuple(
            (name, value_digest(spec.get_state()))
            for name, spec in self._stateful_functions
        )
        inflight = tuple(
            (index, value_digest(task.inflight_values))
            for index, task in enumerate(engine.tasks)
            if task.busy and task.inflight_values is not None
        )
        fat = key + (ready, policy_key, extra, stimulus_states, function_states, inflight)
        return (value_digest(fat),)

    def _snapshot(self) -> _Snapshot:
        engine = self.engine
        return _Snapshot(
            now=self.queue.now,
            processed=self.queue.processed,
            started=engine.started_firings,
            completed=engine.completed_firings,
            preemptions=engine.preemptions,
            resumes=engine.resumes,
            task_stats=tuple(
                (task.completed_firings, task.preemptions) for task in engine.tasks
            ),
            buffer_bases=self._buffer_bases(),
            busy=dict(engine._busy_internal),
            source_stats=tuple((s.produced, s.dropped) for s in self.sources),
            sink_stats=tuple(
                (s.consumed_count, s.misses, len(s.consumed)) for s in self.sinks
            ),
            trace_snapshot=self.trace.stream_snapshot(),
        )

    # -------------------------------------------------------------- detection
    def on_anchor_completion(self) -> None:
        """Sample the state at the first anchor completion at or after each
        grid instant; jump when it repeats."""
        if self.done:
            return
        now = self.queue.now
        grid = self.grid
        if grid is not None:
            if now < self._next_sample:
                return
            self._next_sample = (now // grid + 1) * grid
        key = self.state_key()
        snapshot = self._seen.get(key)
        if snapshot is None:
            if len(self._seen) >= MAX_STATES:
                self.done = True
                self.warnings.append(
                    RunWarning(
                        f"fast-forward gave up: no state repetition within "
                        f"{MAX_STATES} sampled states; running naively",
                        "state-table-overflow",
                    )
                )
                return
            self._seen[key] = self._snapshot()
            return
        delta = now - snapshot.now
        if delta <= 0:
            # Same-instant repeat (several anchor completions at one time,
            # e.g. zero-wcet tasks): keep the earlier snapshot.
            return
        if self.period_ticks is None:
            self.period_ticks = delta
            self.transient_ticks = snapshot.now
            self.period_firings = self.engine.completed_firings - snapshot.completed
        periods = (self.horizon - now) // delta
        completed_delta = self.engine.completed_firings - snapshot.completed
        if self.firing_target is not None and completed_delta > 0:
            # Stop strictly short of the firing target: the final firings run
            # naively, so a stop=... run halts at the very same completion
            # (and instant) a naive run would.
            remaining = self.firing_target - 1 - self.engine.completed_firings
            periods = min(periods, remaining // completed_delta)
        if periods < 1:
            return
        self._jump(snapshot, periods, delta)

    # ------------------------------------------------------------------- jump
    def _jump(self, snapshot: _Snapshot, periods: int, delta: int) -> None:
        engine = self.engine
        queue = self.queue
        shift = periods * delta
        # Per-period deltas, all computed before any state is mutated.
        d_processed = queue.processed - snapshot.processed
        d_started = engine.started_firings - snapshot.started
        d_completed = engine.completed_firings - snapshot.completed
        d_preemptions = engine.preemptions - snapshot.preemptions
        d_resumes = engine.resumes - snapshot.resumes
        task_deltas = [
            (task.completed_firings - before[0], task.preemptions - before[1])
            for task, before in zip(engine.tasks, snapshot.task_stats)
        ]
        bases = self._buffer_bases()
        buffer_deltas = [
            now_base - before for now_base, before in zip(bases, snapshot.buffer_bases)
        ]
        busy_deltas = {
            name: value - snapshot.busy.get(name, 0)
            for name, value in engine._busy_internal.items()
        }
        source_deltas = [
            (s.produced - before[0], s.dropped - before[1])
            for s, before in zip(self.sources, snapshot.source_stats)
        ]
        sink_deltas = [
            (s.consumed_count - before[0], s.misses - before[1], before[2])
            for s, before in zip(self.sinks, snapshot.sink_stats)
        ]

        # 1. Translate the event queue (pending events + clock) and the
        # sampling grid rigidly.
        queue.shift_pending(shift)
        queue.processed += periods * d_processed
        self._next_sample += shift

        # 2. Engine counters and in-flight firing anchors.
        engine.started_firings += periods * d_started
        engine.completed_firings += periods * d_completed
        engine.preemptions += periods * d_preemptions
        engine.resumes += periods * d_resumes
        if d_completed > 0:
            engine._last_completion += shift
        for firing in engine._firings:
            if firing.task.busy:  # in flight or suspended
                firing.start += shift
                if firing.processor is not None:
                    firing.segment_start += shift
        for name, d in busy_deltas.items():
            if d:
                engine._busy_internal[name] += periods * d

        # 3. Per-task counters.
        for task, (d_fired, d_preempted) in zip(engine.tasks, task_deltas):
            if d_fired:
                task.completed_firings += periods * d_fired
            if d_preempted:
                task.preemptions += periods * d_preempted

        # 4. Buffer windows: every window of a buffer advances by the same
        # per-period amount; the floors translate with them, and no watcher
        # runs (the relative state is unchanged, nothing new is enabled).
        for buffer, d in zip(self._buffers, buffer_deltas):
            if d == 0:
                continue
            move = periods * d
            if buffer._producers:
                # Token index i lives in slot i % capacity, and every window
                # advances by `move`: values resident across the jump must
                # move to the slots their new indices map to.  The canonical
                # period guarantees value(i) == value(i - move), so rotating
                # the whole ring forward by `move` realigns every live token
                # (and touches only slots that are either rewritten before
                # the next read or outside the readable window).  Together
                # with the equally moved producer floor this keeps the
                # rotation-anchored fold invariant across the jump.
                buffer.rotate_storage(move)
            for table in (buffer._producers, buffer._consumers):
                for window in table.values():
                    if self._retired(window):
                        continue
                    window.released += move
                    window.acquired += move
            buffer.produced_floor += move
            if buffer._consumers:
                buffer.freed += move

        # 5. Driver counters and (with unbounded retention) sink values.
        for source, (d_produced, d_dropped) in zip(self.sources, source_deltas):
            source.produced += periods * d_produced
            source.dropped += periods * d_dropped
            # One draw per tick, hit or dropped.  For the declared periodic
            # stimuli that qualify a run this is an O(1) index move -- and a
            # provable no-op modulo the stimulus period, since the key
            # repeat folded its state.
            stimulus = source.values
            draws = periods * (d_produced + d_dropped)
            if (
                draws > GENERATOR_ADVANCE_THRESHOLD
                and getattr(stimulus, "advance_linear", True)
            ):
                self.warnings.append(
                    RunWarning(
                        f"fast-forward jump replayed {draws} draws of source "
                        f"{source.name!r}'s {type(stimulus).__name__} one by "
                        "one (its advance() is O(k)); declare a closed-form "
                        "stimulus for O(1) jumps",
                        "generator-advance",
                    )
                )
            stimulus.advance(draws)
        for sink, (d_consumed, d_misses, stored_before) in zip(self.sinks, sink_deltas):
            sink.consumed_count += periods * d_consumed
            sink.misses += periods * d_misses
            if self._replay and d_consumed > 0:
                period_values = sink.consumed[stored_before:]
                for _ in range(periods):
                    sink.consumed.extend(period_values)

        # 6. Trace: streaming counters always; stored records only when the
        # retention is unbounded (a capped trace would drop them again).  The
        # trace keeps native units, so the shift needs no conversion.  Buffer
        # high-water marks need nothing: the windows and ``freed`` moved
        # together above, so every buffer's occupancy is unchanged.
        self.trace.extrapolate_periodic(snapshot.trace_snapshot, periods, shift)
        if self._replay:
            self.trace.replay_periodic(snapshot.trace_snapshot["lengths"], periods, delta)

        self.jumps += 1
        self.skipped_ticks += shift
        self.skipped_events += periods * d_processed
