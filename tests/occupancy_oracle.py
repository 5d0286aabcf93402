"""The seed's occupancy sampling, kept as the reference oracle for the
buffer-kept high-water mark.

The seed traced occupancy from the outside: after every task completion,
for each buffer the task writes, and after every source production, it read
the buffer's occupancy -- the highest acquired position of any producer
window minus the consumers' freed floor -- and kept the maximum per buffer
name.  Buffers now keep the mark themselves, in O(1) at each produce
(:attr:`repro.graph.circular_buffer.CircularBuffer.high_water`), and
``TraceRecorder.buffer_high_water`` reports it at every trace level.  The
two must agree, keys and values::

    with sampled_high_water() as marks:
        result = analysis.run(duration)
    assert result.trace.buffer_high_water == marks

Samples are taken only where the seed took them, so a token a test injects
through ``CircularBuffer.produce`` is not sampled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from repro.runtime.sources import SourceDriver
from repro.runtime.tasks import RuntimeTask


def seed_occupancy(buffer) -> int:
    """The seed's occupancy formula, written out."""
    ceiling = max((w.acquired for w in buffer._producers.values()), default=buffer._initial)
    return ceiling - buffer.freed


@contextmanager
def sampled_high_water() -> Iterator[Dict[str, int]]:
    """Sample every buffer a completing task writes and every buffer a
    source produces into, as the seed did; yields the per-name maxima."""
    marks: Dict[str, int] = {}

    def sample(buffer) -> None:
        occupancy = seed_occupancy(buffer)
        if occupancy > marks.get(buffer.name, 0):
            marks[buffer.name] = occupancy

    finish_firing = RuntimeTask.finish_firing
    tick = SourceDriver._tick

    def sampled_finish(self, values):
        executed = finish_firing(self, values)
        for _, _, buffer, _ in self._write_windows:
            sample(buffer)
        return executed

    def sampled_tick(self):
        produced = self.produced
        tick(self)
        if self.produced > produced:
            sample(self.buffer)

    RuntimeTask.finish_firing = sampled_finish
    SourceDriver._tick = sampled_tick
    try:
        yield marks
    finally:
        RuntimeTask.finish_firing = finish_firing
        SourceDriver._tick = tick
