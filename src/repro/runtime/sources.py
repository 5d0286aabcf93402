"""Time-triggered sources and sinks of the runtime.

Sources and sinks are a special case of modules (Sec. IV-B): they execute
time-triggered with the period the programmer declared (``@ 6.4 MHz``) and
communicate with the rest of the application through circular buffers with
FIFO semantics.  The runtime drivers implemented here:

* a :class:`SourceDriver` produces one sample per period, taking the values
  from a :class:`Stimulus` (e.g. the synthetic PAL RF signal); when the
  buffer is full at a trigger instant the sample is *dropped* and a
  ``source-overflow`` violation is recorded -- this is exactly the real-time
  failure the buffer-sizing analysis must exclude,
* a :class:`SinkDriver` consumes one sample per period once it has started;
  when the buffer is empty at a trigger instant a ``sink-underflow`` violation
  is recorded.  A sink starts either at a configured offset or, by default, at
  the first instant data is available (the measured value of that instant is
  the pipeline-fill latency reported by the trace).

Both drivers convert their period (and offsets) into the event queue's native
time units and bind their buffer window once, at :meth:`start`: on a
tick-based queue the per-period hot path then only adds integers and checks
the window against the buffer's current floors.  They post native times
(:meth:`~repro.runtime.events.EventQueue.post`): a delayed-start sink that
a completion between two ticks starts (a speed-migrating resume) keeps that
fractional-tick phase exactly.  Trace timestamps are
handed over in the same native units (``queue.now``); the
:class:`~repro.runtime.trace.TraceRecorder` converts them to exact rational
seconds only when they are read.  A source's buffer keeps its own
occupancy high-water mark, so a production records nothing else.  Every
dropped sample and every underflow is counted as a deadline miss at every
trace level; its record (and detail text) is stored only at ``"endpoints"``
and ``"full"``.

The stimulus model
------------------
A source's value stream is a :class:`Stimulus`: ``next()`` draws the next
sample, ``advance(k)`` skips ``k`` draws -- in O(1) for the closed-form
stimuli (:class:`ConstantStimulus`, :class:`PeriodicStimulus`,
:class:`RampStimulus`), by replaying ``k`` draws for generator-backed ones
(:class:`GeneratorStimulus`) -- and ``state()`` / ``restore()`` round-trip
the stream position through a serialisable value.  The declaration is what
lets the steady-state fast-forwarder (:mod:`repro.engine.steady_state`)
fold the stream position into its periodicity key and advance the stream
exactly through a jump, so a jumped run's values equal a naive run's.
:func:`as_stimulus` adapts the other signal spellings (``None``, lists,
factories); a bare iterator is refused with a :class:`TypeError`, because
it can be neither rewound nor advanced through a jump.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Union

from repro.graph.circular_buffer import CircularBuffer
from repro.runtime.events import EventQueue
from repro.runtime.trace import TraceRecorder
from repro.util.rational import Rat, as_rational


# --------------------------------------------------------------------------
# Stimuli
# --------------------------------------------------------------------------

class Stimulus:
    """A declared source value stream.

    Subclasses implement ``next()`` (draw one sample) and the jump support:
    ``advance(k)`` must leave the stream in exactly the state ``k``
    sequential ``next()`` calls would -- the closed-form stimuli do this in
    O(1) -- and ``state()`` / ``restore(state)`` round-trip the stream
    position through a serialisable value.

    ``value_periodic`` declares that the stream's *state space* is finite
    and the values exactly periodic in it: only then can the steady-state
    detector fold ``state()`` into its periodicity key and prove a jump
    value-exact.  Aperiodic stimuli (ramps, generators) keep working --
    they simply disqualify the value-exact path and the run falls back to
    naive stepping under ``fast_forward="auto"``.
    """

    #: True when the stream is exactly periodic in value (finite state
    #: space folded into the fast-forward periodicity key)
    value_periodic: bool = False

    #: True when ``advance(k)`` costs O(k) (the default replay below).
    #: Closed-form stimuli override ``advance`` with an O(1) index move and
    #: set this False; the steady-state fast-forwarder warns
    #: (``generator-advance``) when a jump replays a large linear advance.
    advance_linear: bool = True

    def next(self) -> Any:
        """Draw the next sample.  Raises :class:`StopIteration` when a
        finite stream is exhausted (the driver then stops producing)."""
        raise NotImplementedError

    def advance(self, k: int) -> None:
        """Skip *k* draws, exactly as if ``next()`` had been called *k*
        times (values discarded).  Closed-form subclasses override this
        with an O(1) computation."""
        for _ in range(k):
            self.next()

    def state(self) -> Any:
        """The serialisable stream position (see :meth:`restore`)."""
        raise NotImplementedError

    def restore(self, state: Any) -> None:
        """Reset the stream to a position captured by :meth:`state`."""
        raise NotImplementedError

    def fresh(self) -> "Stimulus":
        """An independent, rewound copy for a new run.  Stimuli that cannot
        rewind (bare-iterator adapters) return themselves -- the legacy
        shared-iterator semantics."""
        return self


class ConstantStimulus(Stimulus):
    """The same value on every draw (``itertools.repeat`` declared)."""

    value_periodic = True
    advance_linear = False

    def __init__(self, value: Any) -> None:
        self.value = value

    def next(self) -> Any:
        return self.value

    def advance(self, k: int) -> None:
        pass

    def state(self) -> Any:
        return None

    def restore(self, state: Any) -> None:
        pass

    def fresh(self) -> "ConstantStimulus":
        return self  # stateless: safe to share between runs


class PeriodicStimulus(Stimulus):
    """An endless cycle over a finite block of values (``itertools.cycle``
    declared): draw ``n`` is ``values[n % len(values)]``."""

    value_periodic = True
    advance_linear = False

    def __init__(self, values: Iterable[Any], *, index: int = 0) -> None:
        self.values = list(values)
        if not self.values:
            raise ValueError("PeriodicStimulus needs at least one value")
        #: draws per value period
        self.period = len(self.values)
        self._start_index = index % self.period
        self._index = self._start_index

    def next(self) -> Any:
        value = self.values[self._index]
        self._index = (self._index + 1) % self.period
        return value

    def advance(self, k: int) -> None:
        self._index = (self._index + k) % self.period

    def state(self) -> int:
        return self._index

    def restore(self, state: Any) -> None:
        self._index = int(state) % self.period

    def fresh(self) -> "PeriodicStimulus":
        clone = _copy.copy(self)
        clone._index = clone._start_index
        return clone


class RampStimulus(Stimulus):
    """The affine stream ``start + n * step`` (draw index ``n``).

    The value of draw ``n`` is *defined* as ``start + n * step`` -- computed
    by multiplication, so ``advance(k)`` and ``k`` sequential ``next()``
    calls are bit-identical even for float steps.  With the default
    ``RampStimulus(0, 1)`` this reproduces the legacy ``itertools.count()``
    source.  Never ``value_periodic``: the values do not repeat, so ramps
    disqualify value-exact fast-forward (the run steps naively).
    """

    value_periodic = False
    advance_linear = False

    def __init__(self, start: Any = 0, step: Any = 1) -> None:
        self.start = start
        self.step = step
        self._index = 0

    def next(self) -> Any:
        value = self.start + self._index * self.step
        self._index += 1
        return value

    def advance(self, k: int) -> None:
        self._index += k

    def state(self) -> int:
        return self._index

    def restore(self, state: Any) -> None:
        self._index = int(state)

    def fresh(self) -> "RampStimulus":
        return RampStimulus(self.start, self.step)


class GeneratorStimulus(Stimulus):
    """Adapter for iterator- or factory-backed streams.

    Construct it from a zero-argument *factory* (``lambda: iter(...)`` or a
    generator function) to get the full protocol: ``advance(k)`` replays
    ``k`` draws and ``state()`` / ``restore()`` record and re-derive the
    draw count from a fresh iterator.  Construct it from a bare iterator
    and the stream still drains normally, but ``state()`` / ``restore()``
    raise (the iterator cannot be rewound) -- :func:`as_stimulus` wraps
    list signals this way.
    """

    value_periodic = False

    def __init__(self, source: Union[Iterator[Any], Callable[[], Iterable[Any]]]) -> None:
        if callable(source) and not hasattr(source, "__next__") and not hasattr(source, "__iter__"):
            self._factory: Optional[Callable[[], Iterable[Any]]] = source
            self._iterator = iter(source())
        else:
            self._factory = None
            self._iterator = iter(source)  # type: ignore[arg-type]
        #: draws taken so far (the serialisable position of factory streams)
        self.draws = 0

    def next(self) -> Any:
        value = next(self._iterator)  # StopIteration propagates: finite stream
        self.draws += 1
        return value

    def advance(self, k: int) -> None:
        iterator = self._iterator
        for _ in range(k):
            next(iterator)
        self.draws += k

    def _require_factory(self) -> None:
        if self._factory is None:
            raise ValueError(
                "a GeneratorStimulus wrapped around a bare iterator cannot "
                "serialise its position; construct it from a zero-argument "
                "factory to enable state()/restore()"
            )

    def state(self) -> int:
        self._require_factory()
        return self.draws

    def restore(self, state: Any) -> None:
        self._require_factory()
        self._iterator = iter(self._factory())  # type: ignore[misc]
        self.draws = 0
        self.advance(int(state))

    def fresh(self) -> "GeneratorStimulus":
        if self._factory is None:
            return self  # cannot rewind: legacy shared-iterator semantics
        return GeneratorStimulus(self._factory)


def as_stimulus(signal: Any) -> Stimulus:
    """Normalise a source signal argument into a :class:`Stimulus`.

    Resolution order:

    * ``None`` -- the counting default: ``RampStimulus(0, 1)``,
    * a :class:`Stimulus` -- used as given,
    * a zero-argument callable (no ``__next__`` / ``__iter__``) -- the
      factory spelling: wrapped in a :class:`GeneratorStimulus` that keeps
      the factory, enabling ``state()`` / ``restore()``; a factory
      returning a :class:`Stimulus` yields that stimulus directly,
    * an object with ``__next__`` (a bare iterator / generator) --
      refused with a :class:`TypeError`: pass a :class:`Stimulus` or a
      zero-argument factory instead (an explicit
      ``GeneratorStimulus(iterator)`` is a :class:`Stimulus` and is
      accepted),
    * any other iterable (list, tuple, array) -- wrapped silently in a
      :class:`GeneratorStimulus` (finite ad-hoc data keeps its legacy
      run-to-exhaustion semantics).
    """
    if signal is None:
        return RampStimulus(0, 1)
    if isinstance(signal, Stimulus):
        return signal
    if callable(signal) and not hasattr(signal, "__next__") and not hasattr(signal, "__iter__"):
        probe = signal()
        if isinstance(probe, Stimulus):
            return probe
        return GeneratorStimulus(signal)
    if hasattr(signal, "__next__"):
        raise TypeError(
            f"a bare iterator ({type(signal).__name__}) cannot drive a source: it "
            f"can be neither rewound nor advanced through a steady-state jump; "
            f"pass a Stimulus or a zero-argument factory returning the iterable"
        )
    return GeneratorStimulus(iter(signal))


@dataclass
class SourceDriver:
    """Periodic producer writing one value per period into its buffer."""

    name: str
    buffer: CircularBuffer
    period: Rat
    #: the value stream; a list, factory or ``None`` is normalised through
    #: :func:`as_stimulus` at construction (a bare iterator raises)
    values: Any
    trace: TraceRecorder
    queue: EventQueue
    start_offset: Rat = Fraction(0)
    produced: int = 0
    dropped: int = 0
    #: callback invoked whenever the buffer content changed (wakes the scheduler)
    on_change: Optional[Callable[[], None]] = None
    #: True once the periodic tick chain has been scheduled
    launched: bool = False

    def __post_init__(self) -> None:
        self.values = as_stimulus(self.values)

    def start(self) -> None:
        """Register the producer window and schedule the periodic ticks.

        Idempotent: each simulation run method calls it, and starting twice
        must not register a second window or schedule a duplicate tick chain
        (every tick re-schedules itself, so a duplicate would double the
        produced rate forever).
        """
        if self.launched:
            return
        self.launched = True
        self.buffer.register_producer(self.name)
        self._window = self.buffer.window_of_producer(self.name)
        self.trace.track_buffer(self.buffer)
        queue = self.queue
        self._period_i = queue.to_internal(self.period)
        self._label = f"source:{self.name}"
        queue.post(queue.to_internal(self.start_offset), self._tick, self._label)

    def _tick(self) -> None:
        queue = self.queue
        try:
            value = self.values.next()
        except StopIteration:
            return  # finite stimulus exhausted: stop producing
        trace = self.trace
        buffer = self.buffer
        if buffer.can_produce_window(self._window, 1):
            buffer.produce_window(self._window, [value], 1)
            self.produced += 1
            if trace.endpoints_enabled:
                trace.record_endpoint(self.name, "source", queue.now, value)
            if self.on_change is not None:
                self.on_change()
        else:
            self.dropped += 1
            trace.record_violation(
                self.name,
                "source-overflow",
                queue.now,
                f"buffer {buffer.name!r} full ({buffer.occupancy()} tokens)"
                if trace.violations_enabled
                else "",
            )
        queue.post(queue.now + self._period_i, self._tick, self._label)


@dataclass
class SinkDriver:
    """Periodic consumer reading one value per period from its buffer."""

    name: str
    buffer: CircularBuffer
    period: Rat
    trace: TraceRecorder
    queue: EventQueue
    #: absolute start time; None = start when data first becomes available
    start_time: Optional[Rat] = None
    started: bool = False
    consumed: List[Any] = field(default_factory=list)
    #: streaming count of consumed samples; stays exact when the stored
    #: ``consumed`` list is extrapolated (or skipped) under fast-forward
    consumed_count: int = 0
    misses: int = 0
    on_change: Optional[Callable[[], None]] = None
    #: True once the consumer window is registered (distinct from ``started``,
    #: which records that periodic consumption has begun)
    launched: bool = False

    def start(self) -> None:
        """Register the consumer window and, for explicitly timed sinks,
        schedule the tick chain.  Idempotent (see :meth:`SourceDriver.start`)."""
        if self.launched:
            return
        self.launched = True
        self.buffer.register_consumer(self.name)
        self._window = self.buffer.window_of_consumer(self.name)
        queue = self.queue
        self._period_i = queue.to_internal(self.period)
        self._label = f"sink:{self.name}"
        if self.start_time is not None:
            self.started = True
            queue.post(queue.to_internal(self.start_time), self._tick, self._label)
        else:
            # Delayed-start sinks phase in half a period after data arrives;
            # converted here so the time base must cover the half period too.
            self._half_period_i = queue.to_internal(self.period / 2)

    def notify_data_available(self) -> None:
        """Called by the scheduler when the sink's buffer received data; used
        to start sinks that wait for the pipeline to fill.

        The first consumption happens half a period after the data became
        available: the sink phase is then interleaved with the (equally
        periodic) production instants, which avoids start-time races on exact
        ties.  An explicit ``start_time`` overrides this behaviour.
        """
        if self.started:
            return
        if self.buffer.can_consume_window(self._window, 1):
            self.started = True
            queue = self.queue
            queue.post(queue.now + self._half_period_i, self._tick, self._label)

    def _tick(self) -> None:
        queue = self.queue
        trace = self.trace
        buffer = self.buffer
        if buffer.can_consume_window(self._window, 1):
            value = buffer.consume_window(self._window, 1)[0]
            self.consumed.append(value)
            self.consumed_count += 1
            if trace.endpoints_enabled:
                trace.record_endpoint(self.name, "sink", queue.now, value)
            if self.on_change is not None:
                self.on_change()
        else:
            self.misses += 1
            trace.record_violation(
                self.name,
                "sink-underflow",
                queue.now,
                f"buffer {buffer.name!r} empty" if trace.violations_enabled else "",
            )
        queue.post(queue.now + self._period_i, self._tick, self._label)
