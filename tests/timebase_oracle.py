"""Exact-fraction timestamps, kept as the reference oracle.

Every run derives its time base in one place,
:meth:`repro.engine.dispatcher.ExecutionEngine.derive_time_base`: integer
ticks on the gcd of the program's durations, or exact
:class:`~fractions.Fraction` seconds when no such grid exists.  The two
representations must be observationally identical -- traces, sink values,
end instants, busy times and metric rows (``tests/test_timebase.py``) --
and the fraction queue is the reference the tick queue is held to.  It is
not a run option, so it lives here, in one copy::

    with fraction_time_base():
        reference = analysis.run(duration)  # every run in the block uses fractions
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.engine.dispatcher import ExecutionEngine


def _no_time_base(engine: ExecutionEngine, durations=()) -> None:
    """Leave the pristine queue on exact fractions."""
    engine.queue.set_timebase(None)


@contextmanager
def fraction_time_base() -> Iterator[None]:
    """Run every simulation built inside the block on exact fractions."""
    original = ExecutionEngine.derive_time_base
    ExecutionEngine.derive_time_base = _no_time_base
    try:
        yield
    finally:
        ExecutionEngine.derive_time_base = original
