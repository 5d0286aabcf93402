"""Execution traces and measurements of the runtime simulator.

The trace recorder collects:

* task firings (task, start time, completion time, whether the guarded body
  actually executed),
* source productions and sink consumptions with their timestamps,
* deadline violations (a periodic source finding its buffer full, a periodic
  sink finding its buffer empty),
* buffer occupancy high-water marks.

From these it derives the measured quantities the experiments compare against
the analysis: sustained throughput per source/sink, end-to-end latency, and
maximal observed buffer occupancy (which must never exceed the capacities the
CTA buffer-sizing algorithm computed).

Recording granularity is configurable via ``level`` so throughput benchmarks
do not pay for bookkeeping they never read:

* ``"full"`` (default) -- everything: firings, endpoint events, violations
  and buffer occupancy high-water marks,
* ``"endpoints"`` -- only endpoint events and deadline violations (the
  signals the real-time claims are judged by); the high-volume per-firing
  records are skipped,
* ``"off"`` -- record nothing.

The ``*_enabled`` flags, plain attributes set with the level, let hot paths
skip computing a measurement (for example a buffer occupancy) before handing
it to a recorder that would drop it anyway.

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

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from repro.util.rational import Rat
from repro.util.validation import check_in

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


class _Stat:
    """Streaming (count, first time, last time) triple for one name."""

    __slots__ = ("count", "first", "last")

    def __init__(self, count: int = 0, first: Optional[Rat] = None, last: Optional[Rat] = None):
        self.count = count
        self.first = first
        self.last = last

    def add(self, time: Rat) -> None:
        if self.first is None:
            self.first = time
        self.last = time
        self.count += 1

    def rate(self) -> Optional[Rat]:
        if self.count < 2 or self.first is None or self.last is None:
            return None
        span = self.last - self.first
        if span <= 0:
            return None
        return Fraction(self.count - 1) / span


class TraceRecorder:
    """Accumulates simulation events and derives measurements.

    ``retention=None`` (the default) stores every record, preserving the
    historic list semantics exactly; an integer caps each stored list to the
    most recent ``retention`` entries while the streaming counters continue
    to cover the full run.
    """

    def __init__(self, level: str = "full", retention: Optional[int] = None):
        if retention is not None and retention < 0:
            raise ValueError(f"trace retention must be >= 0, got {retention}")
        self.level = level
        self.retention = retention
        self._firings: List[Firing] = []
        self._endpoint_events: List[EndpointEvent] = []
        self._violations: List[DeadlineViolation] = []
        self.buffer_high_water: Dict[str, int] = {}
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
        self.firings_enabled = self.occupancy_enabled = level == "full"
        self.endpoints_enabled = self.violations_enabled = level != "off"

    # -------------------------------------------------------------- retention
    def _trim(self, records: List) -> List:
        retention = self.retention
        if retention is not None and len(records) > retention:
            del records[: len(records) - retention]
        return records

    def _appended(self, records: List) -> None:
        # Chunked trimming: deleting the head of a list is O(n), so let the
        # list grow to twice the cap before cutting it back to size.
        retention = self.retention
        if retention is not None and len(records) > 2 * retention:
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
        return self._trim(self._firings)

    @property
    def endpoint_events(self) -> List[EndpointEvent]:
        return self._trim(self._endpoint_events)

    @property
    def violations(self) -> List[DeadlineViolation]:
        return self._trim(self._violations)

    # ------------------------------------------------------------- recording
    def record_firing(self, task: str, start: Rat, end: Rat, executed_body: bool) -> None:
        if self.firings_enabled:
            self._firing_total += 1
            stat = self._task_stats.get(task)
            if stat is None:
                stat = self._task_stats[task] = _Stat()
            stat.add(start)
            self._firings.append(Firing(task, start, end, executed_body))
            self._appended(self._firings)

    def record_endpoint(self, name: str, kind: str, time: Rat, value: object) -> None:
        if self.endpoints_enabled:
            self._endpoint_total += 1
            stat = self._endpoint_stats.get(name)
            if stat is None:
                stat = self._endpoint_stats[name] = _Stat()
            stat.add(time)
            self._endpoint_events.append(EndpointEvent(name, kind, time, value))
            self._appended(self._endpoint_events)

    def record_violation(self, name: str, kind: str, time: Rat, detail: str = "") -> None:
        if self.violations_enabled:
            self._violation_total += 1
            self._violations.append(DeadlineViolation(name, kind, time, detail))
            self._appended(self._violations)

    def record_occupancy(self, buffer: str, occupancy: int) -> None:
        if not self.occupancy_enabled:
            return
        current = self.buffer_high_water.get(buffer, 0)
        if occupancy > current:
            self.buffer_high_water[buffer] = occupancy

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

    def extrapolate_periodic(self, snapshot: Mapping[str, object], copies: int, shift: Rat) -> None:
        """Account ``copies`` extra repetitions of the period since
        ``snapshot`` into the streaming counters.

        ``shift`` is the total simulated-time advance (``copies`` periods) in
        seconds; last-seen timestamps of names that progressed during the
        period move forward by it, first-seen timestamps stay (they fell in
        the transient or the single simulated canonical period).
        """
        for name, stat in self._endpoint_stats.items():
            before = snapshot["endpoint"].get(name, (0, None, None))  # type: ignore[index]
            delta = stat.count - before[0]
            if delta > 0:
                stat.count += copies * delta
                stat.last = stat.last + shift  # type: ignore[operator]
        for name, stat in self._task_stats.items():
            before = snapshot["task"].get(name, (0, None, None))  # type: ignore[index]
            delta = stat.count - before[0]
            if delta > 0:
                stat.count += copies * delta
                stat.last = stat.last + shift  # type: ignore[operator]
        totals_before = snapshot["totals"]  # type: ignore[index]
        self._firing_total += copies * (self._firing_total - totals_before[0])
        self._endpoint_total += copies * (self._endpoint_total - totals_before[1])
        self._violation_total += copies * (self._violation_total - totals_before[2])

    def replay_periodic(
        self, lengths: Tuple[int, int, int], copies: int, period: Rat
    ) -> None:
        """Append ``copies`` time-shifted repetitions of the records stored
        since ``lengths`` (a :meth:`stream_snapshot` ``lengths`` triple).

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
            for firing in firing_slice:
                self._firings.append(
                    replace(firing, start=firing.start + offset, end=firing.end + offset)
                )
            for event in endpoint_slice:
                self._endpoint_events.append(replace(event, time=event.time + offset))
            for violation in violation_slice:
                self._violations.append(replace(violation, time=violation.time + offset))

    # ----------------------------------------------------------- measurements
    def firings_of(self, task: str) -> List[Firing]:
        return [f for f in self.firings if f.task == task]

    def events_of(self, name: str) -> List[EndpointEvent]:
        return [e for e in self.endpoint_events if e.name == name]

    def measured_rate(self, name: str) -> Optional[Rat]:
        """Average events per second of a source or sink over the simulation."""
        stat = self._endpoint_stats.get(name)
        return stat.rate() if stat is not None else None

    def task_throughput(self, task: str) -> Optional[Rat]:
        """Average firings per second of a task."""
        stat = self._task_stats.get(task)
        return stat.rate() if stat is not None else None

    def first_output_time(self, name: str) -> Optional[Rat]:
        stat = self._endpoint_stats.get(name)
        return stat.first if stat is not None else None

    def end_to_end_latency(self, source: str, sink: str) -> Optional[Rat]:
        """Time between the first source production and the first sink
        consumption -- the pipeline fill latency."""
        first_in = self.first_output_time(source)
        first_out = self.first_output_time(sink)
        if first_in is None or first_out is None:
            return None
        return first_out - first_in

    def deadline_miss_count(self) -> int:
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
        if self.buffer_high_water:
            lines.append("  buffer high-water marks:")
            for buffer, occupancy in sorted(self.buffer_high_water.items()):
                lines.append(f"    {buffer}: {occupancy}")
        return "\n".join(lines)
