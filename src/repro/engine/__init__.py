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
  accounting included), and a standalone task runner.  The polling
  reference it is verified against lives in the test suite,
* :mod:`repro.engine.synthetic` -- synthetic task programs (ring, fork/join,
  SDF-derived) for scheduler experiments and benchmarks.

Real platform models -- processor sets with speeds, preemptive fixed
priorities, partitioned heterogeneous scheduling -- live in
:mod:`repro.platform` and plug into the same engine through the same
protocol.

The simulator (:mod:`repro.runtime.simulator`) instantiates compiled OIL
programs on top of this engine; benchmarks and scheduler tests drive it
directly.  See ARCHITECTURE.md for the full pipeline.
"""

from repro.engine.dispatcher import EngineRun, ExecutionEngine, ReadySet, run_tasks
from repro.engine.policies import BoundedProcessors, SelfTimedUnbounded, StaticOrder
from repro.engine.synthetic import fork_join_program, ring_program, tasks_from_sdf

__all__ = [
    "EngineRun",
    "ExecutionEngine",
    "ReadySet",
    "run_tasks",
    "BoundedProcessors",
    "SelfTimedUnbounded",
    "StaticOrder",
    "fork_join_program",
    "ring_program",
    "tasks_from_sdf",
]
