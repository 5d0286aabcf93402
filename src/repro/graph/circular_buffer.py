"""Circular buffers with multiple overlapping windows.

The OIL compiler communicates all data through circular buffers (CBs), a
generalisation of FIFO buffers in which *multiple* producers and consumers are
allowed (Bijlsma et al., ref. [26] of the paper).  The key ideas reproduced
here:

* the buffer is a fixed-capacity circular array of locations,
* every producer and every consumer owns a *window* that slides over the
  buffer; windows of different producers (or different consumers) may overlap
  the same locations -- this is how two mutually exclusively guarded
  assignments to the same variable (Fig. 4) can both be producers of one
  buffer: they write the *same* location in a given iteration and exactly one
  of them actually stores a value,
* a producer *acquires* space (blocking while the buffer is full), optionally
  writes values, and *releases* the locations to the consumers; a consumer
  acquires full locations (blocking while empty), reads them, and releases the
  space back to the producers,
* releasing without writing is allowed (a guarded producer whose guard is
  false); the location then retains its previous value, matching the
  "functions remain guarded but tasks execute unconditionally" semantics.

The implementation below is sequential (it is driven by the discrete-event
simulator in :mod:`repro.runtime`, not by threads): ``can_acquire`` /
``acquire`` / ``release`` never block, they simply report whether the
operation is possible so the scheduler can decide whether a task may fire.

Eligibility checks (``can_produce`` / ``can_consume``) greatly outnumber
buffer mutations during a simulation, so the two window aggregates they
depend on are plain attributes kept current at every window move:
:attr:`CircularBuffer.produced_floor` (the released floor of the active
producers) and :attr:`CircularBuffer.freed` (the released floor of the
active consumers, 0 without consumers).  Each is the minimum over a cached
tuple of member windows that changes only on register, activation change or
retire, so a move of a side's only member window costs O(1).  The buffer
also keeps a reverse index of dependents: the execution engine subscribes
per-buffer callbacks via :meth:`watch_tokens` / :meth:`watch_space` and is
notified exactly when one of the two floors changed, which is what makes
event-driven ready-set dispatch possible without re-polling every task.
Each produce also keeps :attr:`CircularBuffer.high_water`, the buffer's peak
occupancy, current in O(1), so the trace never scans windows for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.util.validation import check_positive, require


@dataclass
class WindowState:
    """Book-keeping for one producer or consumer window."""

    name: str
    #: index (in tokens since start) up to which the window has been released
    released: int = 0
    #: index up to which the window has been acquired
    acquired: int = 0
    #: inactive windows (tasks of a currently inactive mode/loop) are ignored
    #: by the availability computations; see :meth:`CircularBuffer.set_producer_active`
    active: bool = True

    @property
    def held(self) -> int:
        return self.acquired - self.released


class CircularBuffer:
    """A bounded circular buffer with multiple producer and consumer windows.

    Token indices are global (monotonically increasing); location ``i`` of the
    underlying array stores token ``i mod capacity``.  A token is *available*
    to consumers once **every** producer has released past it (for overlapped
    producers exactly one of them has actually written the value, the others
    released without writing).  Space for token ``i`` is available to
    producers once every consumer has released past ``i - capacity``.
    """

    def __init__(self, name: str, capacity: int, *, initial_values: Sequence[Any] = ()) -> None:
        check_positive(capacity, "capacity")
        require(
            len(initial_values) <= capacity,
            f"buffer {name!r}: {len(initial_values)} initial values exceed capacity {capacity}",
        )
        self.name = name
        self.capacity = capacity
        self._storage: List[Any] = [None] * capacity
        self._producers: Dict[str, WindowState] = {}
        self._consumers: Dict[str, WindowState] = {}
        self._initial = len(initial_values)
        for index, value in enumerate(initial_values):
            self._storage[index % capacity] = value
        #: released position every (active) producer has passed: tokens up to
        #: this index are available to consumers
        self.produced_floor: int = self._initial
        #: released position every (active) consumer has passed (0 without
        #: consumers): locations below it are free space
        self.freed: int = 0
        #: the highest occupancy any produce left behind (see produce_window)
        self.high_water: int = 0
        # The windows each floor is the minimum over (see _members).
        self._floor_producers: Tuple[WindowState, ...] = ()
        self._floor_consumers: Tuple[WindowState, ...] = ()
        # Reverse index of dependents: callbacks fired when the produced floor
        # (token availability) or the consumed floor (space availability)
        # actually moved.
        self._token_watchers: List[Callable[[], None]] = []
        self._space_watchers: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ setup
    def register_producer(self, name: str) -> None:
        require(name not in self._producers, f"duplicate producer window {name!r}")
        self._producers[name] = WindowState(name, released=self._initial, acquired=self._initial)
        self._producers_moved(regroup=True)

    def register_consumer(self, name: str) -> None:
        require(name not in self._consumers, f"duplicate consumer window {name!r}")
        self._consumers[name] = WindowState(name)
        self._consumers_moved(regroup=True)

    # -------------------------------------------------------------- watchers
    def watch_tokens(self, callback: Callable[[], None]) -> None:
        """Subscribe to changes of the produced floor: *callback* runs
        whenever the number of tokens visible to consumers may have changed
        (a producer released, was (de)activated or repositioned)."""
        self._token_watchers.append(callback)

    def watch_space(self, callback: Callable[[], None]) -> None:
        """Subscribe to changes of the consumed floor: *callback* runs
        whenever the space visible to producers may have changed (a consumer
        released, was (de)activated or repositioned)."""
        self._space_watchers.append(callback)

    # ------------------------------------------------------ window aggregates
    @staticmethod
    def _members(windows: Dict[str, WindowState]) -> Tuple[WindowState, ...]:
        """The windows a side's floor is the minimum over: the active ones,
        or all of them when none is active."""
        active = tuple(w for w in windows.values() if w.active)
        return active if active else tuple(windows.values())

    def _producers_moved(self, *, regroup: bool = False) -> None:
        """Recompute :attr:`produced_floor` after a producer window moved
        (with *regroup*: was registered, (de)activated or retired); token
        watchers run exactly when the floor changed."""
        if regroup:
            self._floor_producers = self._members(self._producers)
        members = self._floor_producers
        floor = members[0].released if len(members) == 1 else min(w.released for w in members)
        if floor != self.produced_floor:
            self.produced_floor = floor
            for callback in self._token_watchers:
                callback()

    def _consumers_moved(self, *, regroup: bool = False) -> None:
        """Recompute :attr:`freed` after a consumer window moved (see
        :meth:`_producers_moved`); space watchers run exactly when it
        changed."""
        if regroup:
            self._floor_consumers = self._members(self._consumers)
        members = self._floor_consumers
        freed = members[0].released if len(members) == 1 else min(w.released for w in members)
        if freed != self.freed:
            self.freed = freed
            for callback in self._space_watchers:
                callback()

    def _producer_ceiling(self) -> int:
        """Highest acquired position of any producer (active or not)."""
        return max((w.acquired for w in self._producers.values()), default=self._initial)

    def set_producer_active(self, name: str, active: bool) -> None:
        """(De)activate a producer window.

        Inactive windows belong to tasks of a currently inactive mode (a
        while-loop that is not executing); they are excluded from the
        availability computations so an idle mode never blocks the active one.
        """
        window = self._producers[name]
        if window.active != active:
            window.active = active
            self._producers_moved(regroup=True)

    def set_consumer_active(self, name: str, active: bool) -> None:
        """(De)activate a consumer window (see :meth:`set_producer_active`)."""
        window = self._consumers[name]
        if window.active != active:
            window.active = active
            self._consumers_moved(regroup=True)

    def retire_producer(self, name: str, *, scope: Optional[str] = None) -> None:
        """Retire the window of a completed one-shot (initialisation) producer.

        An ``init`` statement writes a finite prefix of a stream that a loop
        task continues (Fig. 2: ``init(out c:4)`` before ``g(out c:2, ...)``).
        Two things must happen when the one-shot producer completes, neither
        of which the plain window rules provide:

        * its window must stop participating in the produced-floor
          computation -- a window that never moves again would pin the floor
          at the end of the prefix forever, and
        * every idle co-producer window still positioned *before* the end of
          the prefix is released-without-writing up to it: the loop task's
          first production continues after the initial values instead of
          overwriting them, and -- crucially for cyclic programs -- the
          prefix becomes visible to consumers *before* the loop task produces
          anything (the loop task may well need those very values to fire).

        The init-before-loop hand-over is a *sequential-module* semantics, so
        *scope* (a window-name prefix, e.g. ``"C/B:"``) restricts which
        co-windows are advanced: only tasks of the same module instance
        continue the retired window's stream.  Windows outside the scope --
        unrelated producers of a shared buffer -- keep their own positions.
        """
        window = self._producers[name]
        window.active = False
        target = window.released
        for other in self._producers.values():
            if other is window or other.held or other.released >= target:
                continue
            if scope is not None and not other.name.startswith(scope):
                continue
            other.released = target
            other.acquired = target
        self._producers_moved(regroup=True)

    def retire_consumer(self, name: str, *, scope: Optional[str] = None) -> None:
        """Retire the window of a completed one-shot consumer: the window is
        excluded from the consumed-floor (space) computation and idle
        co-consumer windows *within the scope* skip the prefix it read (the
        loop continues the stream where the initialisation left off).
        Out-of-scope consumers -- sink drivers, other module instances --
        observe every token and are never advanced; see
        :meth:`retire_producer`."""
        window = self._consumers[name]
        window.active = False
        target = window.released
        for other in self._consumers.values():
            if other is window or other.held or other.released >= target:
                continue
            if scope is not None and not other.name.startswith(scope):
                continue
            other.released = target
            other.acquired = target
        self._consumers_moved(regroup=True)

    def producer_position(self, name: str) -> int:
        return self._producers[name].released

    def consumer_position(self, name: str) -> int:
        return self._consumers[name].released

    def advance_producer_to(self, name: str, position: int) -> None:
        """Move an idle producer window forward to *position* (mode switch:
        the newly activated mode continues from the frontier the previous mode
        left behind, mirroring the combination task of Sec. V-B.3)."""
        window = self._producers[name]
        require(window.held == 0, f"cannot reposition producer {name!r} mid-firing")
        if position > window.released:
            window.released = position
            window.acquired = position
            self._producers_moved()

    def advance_consumer_to(self, name: str, position: int) -> None:
        """Move an idle consumer window forward to *position* (see
        :meth:`advance_producer_to`)."""
        window = self._consumers[name]
        require(window.held == 0, f"cannot reposition consumer {name!r} mid-firing")
        if position > window.released:
            window.released = position
            window.acquired = position
            self._consumers_moved()

    # ------------------------------------------------------------- occupancy
    @property
    def tokens_available(self) -> int:
        """Number of tokens every (active) producer has released and no
        (active) consumer has consumed yet."""
        return self.produced_floor - self.freed

    @property
    def space_available(self) -> int:
        """Free locations from the point of view of the slowest producer."""
        return self.capacity - self.occupancy()

    def occupancy(self) -> int:
        """Tokens currently stored (acquired-but-unconsumed locations included)."""
        return self._producer_ceiling() - self.freed

    # ------------------------------------------------------------- producers
    def can_produce(self, producer: str, count: int) -> bool:
        """True when *producer* can acquire *count* locations."""
        return self.can_produce_window(self._producers[producer], count)

    def can_produce_window(self, window: WindowState, count: int) -> bool:
        """:meth:`can_produce` on a pre-resolved window."""
        return window.acquired + count - self.freed <= self.capacity

    def produce(self, producer: str, values: Optional[Sequence[Any]], count: int) -> None:
        """Acquire *count* locations, write *values* (or keep the previous
        contents when ``values`` is ``None``) and release them.

        ``values`` must have exactly *count* elements when given.
        """
        require(self.can_produce(producer, count), f"buffer {self.name!r}: produce would overflow")
        if values is not None:
            require(
                len(values) == count,
                f"buffer {self.name!r}: produced {len(values)} values, expected {count}",
            )
        self.produce_window(self._producers[producer], values, count)

    def produce_window(self, window: WindowState, values: Optional[Sequence[Any]], count: int) -> None:
        """Unchecked :meth:`produce` on a pre-resolved window.

        Runtime tasks resolve their windows once at wire time and check
        eligibility when a firing starts, so the per-firing dict lookup and
        the redundant ``can_produce`` re-check are dropped here.  Skipping
        the check is safe for task windows: ``can_produce`` depends only on
        this window's ``acquired`` (unchanged between the eligibility check
        at firing start and the produce at completion -- producing acquires
        and releases atomically) and on the consumer floor, which only
        grows.

        It also keeps :attr:`high_water`, the peak :meth:`occupancy`, in
        O(1): the producing window's ``acquired - freed`` equals
        ``occupancy()`` when that window holds the highest acquired
        position, and is lower otherwise -- and then ``occupancy()`` itself
        is at most what was recorded when the highest window produced,
        because ``freed`` only grows.  (A steady-state jump moves every
        window and ``freed`` together, which leaves occupancy unchanged.)
        """
        if values is not None:
            storage, capacity, base = self._storage, self.capacity, window.acquired
            for offset in range(count):
                storage[(base + offset) % capacity] = values[offset]
        window.acquired += count
        window.released += count
        occupancy = window.acquired - self.freed
        if occupancy > self.high_water:
            self.high_water = occupancy
        self._producers_moved()

    # ------------------------------------------------------------- consumers
    def can_consume(self, consumer: str, count: int) -> bool:
        """True when *consumer* can acquire *count* full locations."""
        return self.can_consume_window(self._consumers[consumer], count)

    def can_consume_window(self, window: WindowState, count: int) -> bool:
        """:meth:`can_consume` on a pre-resolved window."""
        return window.acquired + count <= self.produced_floor

    def consume(self, consumer: str, count: int) -> List[Any]:
        """Acquire, read and release *count* tokens; returns the values."""
        require(self.can_consume(consumer, count), f"buffer {self.name!r}: consume would underflow")
        return self.consume_window(self._consumers[consumer], count)

    def consume_window(self, window: WindowState, count: int) -> List[Any]:
        """Unchecked :meth:`consume` on a pre-resolved window (the firing
        path of runtime tasks: ``can_fire`` verified ``can_consume`` as part
        of the eligibility check immediately before, with no events in
        between)."""
        storage, capacity, base = self._storage, self.capacity, window.acquired
        values = [storage[(base + offset) % capacity] for offset in range(count)]
        window.acquired += count
        window.released += count
        self._consumers_moved()
        return values

    def rotate_storage(self, rotation: int) -> None:
        """Rotate the backing array forward by *rotation* slots.

        This is the steady-state jump's realignment primitive: after a jump
        of ``move`` tokens, token index ``i`` maps to slot ``(i + move) %
        capacity``, so rotating the ring forward by ``move % capacity``
        re-homes every live value.  Window bookkeeping and floors are
        deliberately untouched -- the caller moves the windows itself.
        """
        rotation %= self.capacity
        if rotation == 0:
            return
        storage = self._storage
        storage[:] = storage[-rotation:] + storage[:-rotation]

    def window_of_producer(self, name: str) -> WindowState:
        """The producer window object itself (bound once per runtime task)."""
        return self._producers[name]

    def window_of_consumer(self, name: str) -> WindowState:
        """The consumer window object itself (bound once per runtime task)."""
        return self._consumers[name]

    def peek(self, consumer: str, count: int) -> List[Any]:
        """Read *count* tokens without releasing them (used by sinks that
        re-read the last value, e.g. an audio mute repeating a sample)."""
        require(self.can_consume(consumer, count), f"buffer {self.name!r}: peek would underflow")
        window = self._consumers[consumer]
        return [
            self._storage[(window.acquired + offset) % self.capacity] for offset in range(count)
        ]

    # ------------------------------------------------------------- reporting
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<CircularBuffer {self.name!r} capacity={self.capacity} "
            f"occupancy={self.occupancy()}>"
        )
