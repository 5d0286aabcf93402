"""Execution traces and measurements of the runtime simulator.

The trace recorder collects:

* task firings (task, start time, completion time, whether the guarded body
  actually executed),
* source productions and sink consumptions with their timestamps,
* deadline violations (a periodic source finding its buffer full, a periodic
  sink finding its buffer empty).

From these it derives the measured quantities the experiments compare against
the analysis: sustained throughput per source/sink, end-to-end latency and
deadline misses.  Buffer occupancy is not recorded here: every
:class:`~repro.graph.circular_buffer.CircularBuffer` keeps its own high-water
mark, updated in O(1) at each produce, and :attr:`TraceRecorder.buffer_high_water`
reports the marks of the buffers tasks and source drivers write, at every
level.

Recording granularity is configurable via ``level`` so throughput benchmarks
do not pay for bookkeeping they never read:

* ``"full"`` (default) -- everything: firings, endpoint events and
  violations,
* ``"endpoints"`` -- only endpoint events and deadline violations (the
  signals the real-time claims are judged by); the high-volume per-firing
  records are skipped,
* ``"off"`` -- no stored records; deadline misses are still counted.

The ``*_enabled`` flags, plain attributes set with the level, let hot paths
skip building a record the recorder would drop anyway.

Timestamps are recorded in the event queue's *native units* -- integer ticks
on a tick base, :class:`~fractions.Fraction` seconds on the fraction queue --
and records are stored as plain tuples.  Exact rational seconds are built
only when a caller reads them: :attr:`TraceRecorder.firings`,
:attr:`~TraceRecorder.endpoint_events`, :attr:`~TraceRecorder.violations`
and the measurements convert through :attr:`TraceRecorder.to_time`, which
the :class:`~repro.engine.dispatcher.ExecutionEngine` binds to its queue's
converter when it is built (a recorder used without an engine converts by
identity, which is right on a fraction queue).

Long horizons need bounded memory: ``retention`` caps how many of each stored
record kind are kept (oldest dropped first) while *streaming* counters --
per-endpoint and per-task counts with first/last timestamps -- keep the
derived measurements (:meth:`measured_rate`, :meth:`task_throughput`,
:meth:`deadline_miss_count`, :meth:`summary`) exact over the whole run even
after the stored lists were trimmed.  The steady-state fast-forward engine
drives the same counters through :meth:`extrapolate_periodic` /
:meth:`replay_periodic` so skipped periods stay accounted for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.runtime.events import InternalTime
from repro.util.rational import Rat
from repro.util.validation import check_in

if TYPE_CHECKING:  # annotation only
    from repro.graph.circular_buffer import CircularBuffer

#: Recognised trace levels, coarsest first.
TRACE_LEVELS = ("off", "endpoints", "full")


@dataclass
class Firing:
    task: str
    start: Rat
    end: Rat
    executed_body: bool


@dataclass
class EndpointEvent:
    name: str
    kind: str  # "source" | "sink"
    time: Rat
    value: object


@dataclass
class DeadlineViolation:
    name: str
    kind: str  # "source-overflow" | "sink-underflow"
    time: Rat
    detail: str = ""


def _seconds(time: InternalTime) -> Rat:
    """The converter of a recorder without an engine: native units are
    already seconds on a fraction queue."""
    return time


def _check_retention(retention: Any) -> Optional[int]:
    """``None`` or the integer value of *retention* (anything
    :func:`operator.index` accepts, except a bool); raises
    :class:`TypeError` or :class:`ValueError` naming ``trace_retention``."""
    if retention is None:
        return None
    if isinstance(retention, bool) or not hasattr(type(retention), "__index__"):
        raise TypeError(f"trace_retention must be None or an integer >= 0, got {retention!r}")
    value = operator.index(retention)
    if value < 0:
        raise ValueError(f"trace_retention must be >= 0, got {value}")
    return value


class _Stat:
    """Streaming (count, first time, last time) triple for one name, in
    native units."""

    __slots__ = ("count", "first", "last")

    def __init__(self, time: InternalTime) -> None:
        self.count = 1
        self.first = time
        self.last = time


class TraceRecorder:
    """Accumulates simulation events and derives measurements.

    ``retention=None`` (the default) stores every record, preserving the
    historic list semantics exactly; an integer ``>= 0`` caps each stored
    list to the most recent ``retention`` entries while the streaming
    counters continue to cover the full run.  Any other value raises
    :class:`TypeError` or :class:`ValueError`.
    """

    def __init__(self, level: str = "full", retention: Optional[int] = None):
        self.retention = _check_retention(retention)
        self.level = level
        #: native-unit timestamp -> exact rational seconds; the engine binds
        #: its queue's :meth:`~repro.runtime.events.EventQueue.to_time`
        self.to_time: Callable[[InternalTime], Rat] = _seconds
        # Stored records, native-unit tuples: (task, start, end, executed),
        # (name, kind, time, value) and (name, kind, time, detail).
        self._firings: List[tuple] = []
        self._endpoint_events: List[tuple] = []
        self._violations: List[tuple] = []
        #: the buffers tasks and source drivers write (insertion-ordered set)
        self._written: Dict["CircularBuffer", None] = {}
        #: streaming per-endpoint / per-task statistics covering the full run
        self._endpoint_stats: Dict[str, _Stat] = {}
        self._task_stats: Dict[str, _Stat] = {}
        self._firing_total = 0
        self._endpoint_total = 0
        self._violation_total = 0

    # ----------------------------------------------------------------- levels
    @property
    def level(self) -> str:
        return self._level

    @level.setter
    def level(self, level: str) -> None:
        check_in(level, TRACE_LEVELS, "trace level")
        self._level = level
        self.firings_enabled = level == "full"
        self.endpoints_enabled = self.violations_enabled = level != "off"

    # -------------------------------------------------------------- retention
    def _trim(self, records: List) -> List:
        retention = self.retention
        if retention is not None and len(records) > retention:
            del records[: len(records) - retention]
        return records

    def _appended(self, records: List) -> None:
        # Called under a retention cap.  Chunked trimming: deleting the head
        # of a list is O(n), so let the list grow to twice the cap before
        # cutting it back to size.
        retention = self.retention
        if len(records) > 2 * retention:
            del records[: len(records) - retention]

    @property
    def firing_total(self) -> int:
        """Firings recorded over the whole run -- the streaming counter,
        unaffected by the retention cap and exact through fast-forward."""
        return self._firing_total

    @property
    def endpoint_total(self) -> int:
        """Endpoint events recorded over the whole run (streaming)."""
        return self._endpoint_total

    @property
    def firings(self) -> List[Firing]:
        to_time = self.to_time
        return [
            Firing(task, to_time(start), to_time(end), executed)
            for task, start, end, executed in self._trim(self._firings)
        ]

    @property
    def endpoint_events(self) -> List[EndpointEvent]:
        to_time = self.to_time
        return [
            EndpointEvent(name, kind, to_time(time), value)
            for name, kind, time, value in self._trim(self._endpoint_events)
        ]

    @property
    def violations(self) -> List[DeadlineViolation]:
        to_time = self.to_time
        return [
            DeadlineViolation(name, kind, to_time(time), detail)
            for name, kind, time, detail in self._trim(self._violations)
        ]

    @property
    def buffer_high_water(self) -> Dict[str, int]:
        """Peak occupancy per buffer that a task or a source driver writes,
        read off each buffer's own mark (see
        :attr:`CircularBuffer.high_water
        <repro.graph.circular_buffer.CircularBuffer.high_water>`); only
        buffers written at least once appear.  Reported at every level:
        the buffers keep their marks whatever the recorder stores."""
        marks: Dict[str, int] = {}
        for buffer in self._written:
            if buffer.high_water > marks.get(buffer.name, 0):
                marks[buffer.name] = buffer.high_water
        return marks

    # ------------------------------------------------------------- recording
    def record_firing(
        self, task: str, start: InternalTime, end: InternalTime, executed_body: bool
    ) -> None:
        if self.firings_enabled:
            self._firing_total += 1
            stat = self._task_stats.get(task)
            if stat is None:
                self._task_stats[task] = _Stat(start)
            else:
                stat.count += 1
                stat.last = start
            self._firings.append((task, start, end, executed_body))
            if self.retention is not None:
                self._appended(self._firings)

    def record_endpoint(self, name: str, kind: str, time: InternalTime, value: object) -> None:
        if self.endpoints_enabled:
            self._endpoint_total += 1
            stat = self._endpoint_stats.get(name)
            if stat is None:
                self._endpoint_stats[name] = _Stat(time)
            else:
                stat.count += 1
                stat.last = time
            self._endpoint_events.append((name, kind, time, value))
            if self.retention is not None:
                self._appended(self._endpoint_events)

    def record_violation(self, name: str, kind: str, time: InternalTime, detail: str = "") -> None:
        """Count a deadline miss (at every level); store its record at
        ``"endpoints"`` and ``"full"``."""
        self._violation_total += 1
        if self.violations_enabled:
            self._violations.append((name, kind, time, detail))
            if self.retention is not None:
                self._appended(self._violations)

    def track_buffer(self, buffer: "CircularBuffer") -> None:
        """Report *buffer*'s high-water mark in :attr:`buffer_high_water`
        (the engine tracks every buffer a task writes, a source driver its
        own)."""
        self._written[buffer] = None

    # ----------------------------------------------------- fast-forward hooks
    def stream_snapshot(self) -> Dict[str, object]:
        """Capture the streaming counters (used by the steady-state detector
        to compute exact per-period deltas)."""
        return {
            "endpoint": {n: (s.count, s.first, s.last) for n, s in self._endpoint_stats.items()},
            "task": {n: (s.count, s.first, s.last) for n, s in self._task_stats.items()},
            "totals": (self._firing_total, self._endpoint_total, self._violation_total),
            "lengths": (len(self._firings), len(self._endpoint_events), len(self._violations)),
        }

    def extrapolate_periodic(
        self, snapshot: Mapping[str, object], copies: int, shift: InternalTime
    ) -> None:
        """Account ``copies`` extra repetitions of the period since
        ``snapshot`` into the streaming counters.

        ``shift`` is the total simulated-time advance (``copies`` periods) in
        native units; last-seen timestamps of names that progressed during
        the period move forward by it, first-seen timestamps stay (they fell
        in the transient or the single simulated canonical period).
        """
        for stats, before_stats in (
            (self._endpoint_stats, snapshot["endpoint"]),
            (self._task_stats, snapshot["task"]),
        ):
            for name, stat in stats.items():
                before = before_stats.get(name, (0, None, None))  # type: ignore[attr-defined]
                delta = stat.count - before[0]
                if delta > 0:
                    stat.count += copies * delta
                    stat.last = stat.last + shift
        totals_before = snapshot["totals"]  # type: ignore[index]
        self._firing_total += copies * (self._firing_total - totals_before[0])
        self._endpoint_total += copies * (self._endpoint_total - totals_before[1])
        self._violation_total += copies * (self._violation_total - totals_before[2])

    def replay_periodic(
        self, lengths: Tuple[int, int, int], copies: int, period: InternalTime
    ) -> None:
        """Append ``copies`` time-shifted repetitions of the records stored
        since ``lengths`` (a :meth:`stream_snapshot` ``lengths`` triple);
        ``period`` is in native units.

        Only meaningful with unbounded retention: the stored lists then stay
        bit-identical to a naive simulation of the skipped periods (values
        repeat the canonical period -- timing is value-independent, data is
        periodic by construction of the detector's state key).  The streaming
        counters are *not* touched here; :meth:`extrapolate_periodic` already
        accounted for the copies.
        """
        firing_slice = self._firings[lengths[0]:]
        endpoint_slice = self._endpoint_events[lengths[1]:]
        violation_slice = self._violations[lengths[2]:]
        for copy_index in range(1, copies + 1):
            offset = period * copy_index
            self._firings.extend(
                [(task, start + offset, end + offset, executed)
                 for task, start, end, executed in firing_slice]
            )
            self._endpoint_events.extend(
                [(name, kind, time + offset, value) for name, kind, time, value in endpoint_slice]
            )
            self._violations.extend(
                [(name, kind, time + offset, detail)
                 for name, kind, time, detail in violation_slice]
            )

    # ----------------------------------------------------------- measurements
    def firings_of(self, task: str) -> List[Firing]:
        to_time = self.to_time
        return [
            Firing(name, to_time(start), to_time(end), executed)
            for name, start, end, executed in self._trim(self._firings)
            if name == task
        ]

    def firing_tasks(self) -> List[str]:
        """Task names of the stored firings, in completion order."""
        return [record[0] for record in self._trim(self._firings)]

    def events_of(self, name: str) -> List[EndpointEvent]:
        to_time = self.to_time
        return [
            EndpointEvent(event_name, kind, to_time(time), value)
            for event_name, kind, time, value in self._trim(self._endpoint_events)
            if event_name == name
        ]

    def _rate(self, stat: Optional[_Stat]) -> Optional[Rat]:
        if stat is None or stat.count < 2:
            return None
        span = stat.last - stat.first
        if span <= 0:
            return None
        return Fraction(stat.count - 1) / self.to_time(span)

    def measured_rate(self, name: str) -> Optional[Rat]:
        """Average events per second of a source or sink over the simulation."""
        return self._rate(self._endpoint_stats.get(name))

    def task_throughput(self, task: str) -> Optional[Rat]:
        """Average firings per second of a task."""
        return self._rate(self._task_stats.get(task))

    def first_output_time(self, name: str) -> Optional[Rat]:
        stat = self._endpoint_stats.get(name)
        return self.to_time(stat.first) if stat is not None else None

    def end_to_end_latency(self, source: str, sink: str) -> Optional[Rat]:
        """Time between the first source production and the first sink
        consumption -- the pipeline fill latency."""
        first_in = self.first_output_time(source)
        first_out = self.first_output_time(sink)
        if first_in is None or first_out is None:
            return None
        return first_out - first_in

    def deadline_miss_count(self) -> int:
        """Deadline misses over the whole run, counted at every level."""
        return self._violation_total

    def endpoint_count(self, name: str) -> int:
        """Total events of one endpoint over the whole run (streaming)."""
        stat = self._endpoint_stats.get(name)
        return stat.count if stat is not None else 0

    def task_firing_count(self, task: str) -> int:
        """Total recorded firings of one task over the whole run (streaming)."""
        stat = self._task_stats.get(task)
        return stat.count if stat is not None else 0

    def summary(self) -> str:
        lines = [
            f"trace: {self._firing_total} firings, {self._endpoint_total} endpoint events, "
            f"{self._violation_total} violations"
        ]
        for name in sorted(self._endpoint_stats):
            rate = self.measured_rate(name)
            rendered = "n/a" if rate is None else f"{float(rate):.6g} Hz"
            lines.append(
                f"  {name}: {self.endpoint_count(name)} events, measured rate {rendered}"
            )
        marks = self.buffer_high_water
        if marks:
            lines.append("  buffer high-water marks:")
            for buffer, occupancy in sorted(marks.items()):
                lines.append(f"    {buffer}: {occupancy}")
        return "\n".join(lines)
