"""Discrete-event machinery of the runtime simulator.

The simulator is a classical discrete-event engine: an event queue ordered by
(time, sequence number) whose entries are callbacks.  The heap holds
``(time, sequence, event)`` tuples, so ordering is a C-level tuple comparison
that never reaches the :class:`Event` (sequence numbers are unique).
Timestamps are exact so that periodic sources and sinks with incommensurable
frequencies (6.4 MHz vs 32 kHz) never suffer floating-point drift, and the
queue supports two exact representations of time:

* **fraction mode** (no time base): timestamps are
  :class:`~fractions.Fraction` seconds -- the original representation, always
  applicable,
* **tick mode** (a :class:`~repro.util.rational.TimeBase` attached):
  timestamps are tick counts of the base's resolution.  The heap then
  orders plain ``(int, int)`` pairs, which is several times cheaper than
  ordering fractions -- the dominant per-event cost on dispatch-bound
  workloads -- while remaining exact: tick counts round-trip to the very same
  rationals via :meth:`EventQueue.to_time` / :attr:`EventQueue.now_time`.
  Every duration the engine and drivers schedule with lies on the grid, so
  almost every timestamp is an ``int``; only an instant a speed-migrating
  resume pushes between two ticks (a remainder rescaled by a speed ratio)
  is an exact :class:`~fractions.Fraction` tick count, and so are the
  instants that follow from it.

``now`` and the times :meth:`EventQueue.post` takes are in the queue's
*native units*: ticks (ints, or fractional ticks) in tick mode, rational
seconds in fraction mode.  :meth:`EventQueue.schedule` is the converting
entry: an ``int`` is ticks and any other rational is seconds, converted
exactly (:class:`~repro.util.rational.TimeBaseError` if off the grid) --
a :class:`~fractions.Fraction` argument could otherwise mean either.  Run
horizons are converted by flooring, and the few fractional-tick events
between that floor and an off-grid end still run, so a run processes
exactly the events a fraction-mode queue would.  An ``int`` ``now`` stays
on the grid (event order needs it), so a run that ends between two ticks
keeps its exact end instant aside: :attr:`EventQueue.now_time` reports it,
as a fraction-mode queue would.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, Union

from repro.util.rational import Rat, TimeBase, as_rational

EventCallback = Callable[[], None]

#: A timestamp in the queue's native units: ticks (an int, or a Fraction
#: between two ticks) or seconds (Fraction).
InternalTime = Union[int, Rat]


class Event:
    """A scheduled callback.  ``time`` is in the queue's native units.

    Events carry no ordering: the queue orders their ``(time, sequence)``
    heap keys."""

    __slots__ = ("time", "sequence", "callback", "label", "cancelled")

    def __init__(
        self, time: InternalTime, sequence: int, callback: EventCallback, label: str = ""
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = ", cancelled" if self.cancelled else ""
        return f"Event({self.time!r}, {self.sequence}, {self.label!r}{state})"


class EventQueue:
    """A time-ordered queue of events (fraction- or tick-based, see module
    docstring)."""

    def __init__(self, timebase: Optional[TimeBase] = None) -> None:
        self._heap: List[Tuple[InternalTime, int, Event]] = []
        self._counter = itertools.count()
        self.timebase: Optional[TimeBase] = timebase
        self.now: InternalTime = 0 if timebase is not None else Fraction(0)
        self.processed = 0
        self._cancelled_pending = 0
        #: tick mode: the tick :meth:`run_until` left ``now`` on, and the
        #: exact instant that run reached past it;
        #: :attr:`now_time` reports the instant while ``now`` is that tick
        self._end_tick: InternalTime = -1
        self._end_time: Rat = Fraction(0)

    # -------------------------------------------------------------- time base
    def set_timebase(self, timebase: Optional[TimeBase]) -> None:
        """Attach (or detach) a time base.  Only allowed on a pristine queue:
        once events exist or time advanced their representation is fixed."""
        if self._heap or self.processed or self.now != 0:
            raise ValueError("the time base of a queue with history cannot change")
        self.timebase = timebase
        self.now = 0 if timebase is not None else Fraction(0)

    def to_internal(self, value) -> InternalTime:
        """Convert an absolute time or duration to native units (exact;
        raises :class:`~repro.util.rational.TimeBaseError` off the grid).
        Integers are already ticks in tick mode and pass through."""
        if self.timebase is not None:
            if isinstance(value, int):
                return value
            return self.timebase.to_ticks(as_rational(value))
        return as_rational(value)

    def to_time(self, internal: InternalTime) -> Rat:
        """The exact rational seconds of a native-unit timestamp."""
        tb = self.timebase
        return tb.to_time(internal) if tb is not None else internal

    @property
    def now_time(self) -> Rat:
        """The current time as exact rational seconds (both modes).  After a
        run that ended between two ticks this is the requested end, not the
        grid point ``now`` was floored to."""
        tb = self.timebase
        if tb is None:
            return self.now
        if self.now == self._end_tick:
            return self._end_time
        return tb.to_time(self.now)

    # ------------------------------------------------------------- scheduling
    def post(self, time: InternalTime, callback: EventCallback, label: str = "") -> Event:
        """Post *callback* at absolute *time* in native units, unconverted
        (must not be in the past): ticks -- an ``int``, or an exact
        :class:`~fractions.Fraction` tick count between two grid points --
        in tick mode, rational seconds in fraction mode.  The engine and the
        drivers post the native times they compute."""
        if time < self.now:
            raise ValueError(f"cannot schedule event at {time} before current time {self.now}")
        sequence = next(self._counter)
        event = Event(time, sequence, callback, label)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule(self, time, callback: EventCallback, *, label: str = "") -> Event:
        """Schedule *callback* at absolute *time* (must not be in the past).

        An ``int`` is native units (ticks in tick mode); any other rational
        is seconds, converted exactly in tick mode
        (:class:`~repro.util.rational.TimeBaseError` off the grid).  Native
        fractional ticks go through :meth:`post`.
        """
        return self.post(self.to_internal(time), callback, label)

    def schedule_after(self, delay, callback: EventCallback, *, label: str = "") -> Event:
        """Schedule *callback* ``delay`` after the current time (an ``int``
        is native units, any other rational seconds, as in
        :meth:`schedule`)."""
        return self.post(self.now + self.to_internal(delay), callback, label)

    def shift_pending(self, shift: InternalTime) -> None:
        """Advance ``now`` *and* every pending event by ``shift`` native
        units.

        This is the O(pending) primitive behind steady-state fast-forward: a
        uniform translation preserves the heap order (times move rigidly,
        sequence numbers are untouched), so the rebuilt entries still form a
        valid heap and after the shift the queue behaves exactly as if the
        skipped periods had been simulated.  Each :attr:`Event.time` moves
        with its entry (preemption reads it), and the list is rebuilt in
        place because :meth:`run_until` may be iterating it.  Cancelled
        entries are shifted too -- they only wait to be lazily dropped.
        """
        if shift < 0:
            raise ValueError(f"cannot shift the pending events backwards ({shift})")
        if shift == 0:
            return
        for _, _, event in self._heap:
            event.time += shift
        self._heap[:] = [(event.time, sequence, event) for _, sequence, event in self._heap]
        self.now = self.now + shift

    def cancel(self, event: Event) -> None:
        if not event.cancelled:
            event.cancelled = True
            self._cancelled_pending += 1

    @property
    def cancelled_pending(self) -> int:
        """Number of cancelled entries still sitting in the heap.

        Preemptive platform policies cancel and re-post completion events,
        so the count is an observable measure of preemption churn (and of
        the lazy-prune debt :meth:`_drop_cancelled_head` still owes).
        """
        return self._cancelled_pending

    def _drop_cancelled_head(self) -> None:
        """Lazily pop cancelled events off the heap top.  Each cancelled
        event is popped exactly once over the queue's lifetime, so
        :meth:`empty` and :meth:`peek_time` are O(1) amortised instead of
        scanning (or worse, sorting) the whole heap per call."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_pending -= 1

    def empty(self) -> bool:
        self._drop_cancelled_head()
        return not self._heap

    def peek_time(self) -> Optional[Rat]:
        """Exact rational time of the next pending event (``None`` when
        drained)."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self.to_time(self._heap[0][0])

    # -------------------------------------------------------------- execution
    def run_until(self, end_time) -> InternalTime:
        """Process events up to (and including) *end_time*, then move the
        clock to *end_time*; returns the final (native-unit) time.

        In tick mode a rational *end_time* is floored to the tick grid, and
        the fractional-tick events between that floor and the exact end
        still run, so the same events are processed as in fraction mode;
        ``now`` then fast-forwards to the last grid point (unless such an
        event left it past it), and :attr:`now_time` reports the requested
        instant.
        """
        tb = self.timebase
        if tb is not None:
            if isinstance(end_time, int):
                exact_end = tb.to_time(end_time)
                limit = end_time
            else:
                exact_end = as_rational(end_time)
                end_time = tb.ticks_floor(exact_end)
                limit = exact_end / tb.resolution
        else:
            end_time = limit = as_rational(end_time)
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _, event = heap[0]
            if time > end_time and time > limit:
                break
            pop(heap)
            if event.cancelled:
                self._cancelled_pending -= 1
                continue
            self.now = time
            event.callback()
            self.processed += 1
        if self.now < end_time:
            self.now = end_time
        if tb is not None and exact_end > self.now_time:
            self._end_tick, self._end_time = self.now, exact_end
        return self.now
