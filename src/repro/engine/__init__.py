"""Pluggable scheduler engine with indexed ready-set dispatch.

The execution layer of the reproduction: buffers report availability changes
through a reverse dependency index, a pass-structured ready set dispatches
exactly the tasks those changes may have enabled, and a pluggable scheduling
policy -- the one protocol,
:class:`~repro.platform.policies.PlatformPolicy` -- decides which eligible
task occupies which processor when.

* :mod:`repro.engine.policies` -- the three built-in policies (self-timed
  unbounded, bounded processors, static order): platform policies on
  anonymous unit-speed processors,
* :mod:`repro.engine.dispatcher` -- the ready-set dispatch core: one
  dispatch loop, one start and one completion for every policy on either
  time base (suspend/resume of in-flight firings and per-processor
  accounting included).  The polling reference it is verified against
  lives in the test suite,
* :mod:`repro.engine.steady_state` -- online steady-state detection and
  value-exact fast-forward.

Real platform models -- processor sets with speeds, preemptive fixed
priorities, partitioned heterogeneous scheduling -- live in
:mod:`repro.platform` and plug into the same engine through the same
protocol.

The simulator (:mod:`repro.runtime.simulator`) instantiates compiled OIL
programs on top of this engine; every run enters through it
(``Program`` -> ``Analysis.run`` / ``Analysis.simulation`` ->
``Simulation.run``).  See ARCHITECTURE.md for the full pipeline.
"""

from repro.engine.dispatcher import ExecutionEngine, ReadySet
from repro.engine.policies import BoundedProcessors, SelfTimedUnbounded, StaticOrder

__all__ = [
    "ExecutionEngine",
    "ReadySet",
    "BoundedProcessors",
    "SelfTimedUnbounded",
    "StaticOrder",
]
