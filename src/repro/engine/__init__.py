"""Pluggable scheduler engine with indexed ready-set dispatch.

The execution layer of the reproduction: buffers report availability changes
through a reverse dependency index, a pass-structured ready set dispatches
exactly the tasks those changes may have enabled, and a pluggable
:class:`~repro.engine.policies.SchedulerPolicy` decides which eligible task
occupies a processor when.

* :mod:`repro.engine.policies` -- the legacy boolean start-gate protocol and
  the three built-in policies (self-timed unbounded, bounded processors,
  static order),
* :mod:`repro.engine.dispatcher` -- the ready-set dispatch core: one loop
  per policy protocol (boolean policies on either time base; platform
  policies with suspend/resume of in-flight firings and per-processor
  accounting), picked by the policy, and a standalone task runner.  The
  polling reference it is verified against lives in the test suite,
* :mod:`repro.engine.synthetic` -- synthetic task programs (ring, fork/join,
  SDF-derived) for scheduler experiments and benchmarks.

Real platform models -- processor sets with speeds, preemptive fixed
priorities, partitioned heterogeneous scheduling -- live in
:mod:`repro.platform` and plug into the same engine through the rich
``decide_start`` protocol.

The simulator (:mod:`repro.runtime.simulator`) instantiates compiled OIL
programs on top of this engine; benchmarks and scheduler tests drive it
directly.  See ARCHITECTURE.md for the full pipeline.
"""

from repro.engine.dispatcher import ActiveFiring, EngineRun, ExecutionEngine, ReadySet, run_tasks
from repro.engine.policies import (
    BoundedProcessors,
    SchedulerPolicy,
    SelfTimedUnbounded,
    StaticOrder,
)
from repro.engine.synthetic import fork_join_program, ring_program, tasks_from_sdf

__all__ = [
    "ActiveFiring",
    "EngineRun",
    "ExecutionEngine",
    "ReadySet",
    "run_tasks",
    "BoundedProcessors",
    "SchedulerPolicy",
    "SelfTimedUnbounded",
    "StaticOrder",
    "fork_join_program",
    "ring_program",
    "tasks_from_sdf",
]
