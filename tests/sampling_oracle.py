"""Sampling at every anchor completion, kept as the reference oracle.

The steady-state detector (:mod:`repro.engine.steady_state`) samples its
state key only at the first anchor completion at or after each multiple of
its grid ``H``, the lcm of the endpoint periods.  Sampling *every* anchor
completion -- the detector without a grid, as fleets without drivers run
it -- must find the same recurrence, at most one grid step earlier
(``tests/test_fastforward.py::TestSamplingGrid``).  It is not an engine
option, so it lives here, in one copy::

    with every_completion():
        reference = analysis.run(duration)  # no detector in the block gates
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.engine.steady_state import SteadyState


@contextmanager
def every_completion() -> Iterator[None]:
    """Build every detector inside the block without a sampling grid."""
    original = SteadyState.__init__

    def ungated(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.grid = None

    SteadyState.__init__ = ungated
    try:
        yield
    finally:
        SteadyState.__init__ = original
