"""repro.platform -- processors, platforms and platform scheduling policies.

The platform model of the execution layer: :class:`Processor` (exact
rational speed factor, optional power weights), :class:`Platform`
(homogeneous or heterogeneous processor sets with optional task affinity)
and :class:`PlatformPolicy`, the one scheduling protocol, whose decisions
are *(task, processor, start | preempt | resume)* triples.

Built-in policies:

* the described-platform twins of the engine's built-in policies, with
  bit-identical traces: :class:`SelfTimedPlatform`,
  :class:`ListScheduledPlatform`, :class:`StaticOrderPlatform`,
* what a described platform adds: :class:`FixedPriorityPreemptive`
  (suspend/resume with exact remaining-work re-posting) and
  :class:`PartitionedHeterogeneous` (pinned tasks on mixed-speed
  processors).

Plumbing: ``Simulation(..., platform=...)`` / ``run_tasks(...,
platform=...)`` accept a :class:`Platform` (its :meth:`Platform.policy`
default) or any policy instance via ``scheduler=``/``policy=``;
``Analysis.run(platform=...)`` and the ``"platform"`` sweep axis expose the
same knob through the facade, and platforms are plain picklable data so
heterogeneous speedup grids run on the process sweep backend.  This package
imports nothing from :mod:`repro.engine`; the engine's policies build on it.
"""

from repro.platform.model import Platform, Processor
from repro.platform.policies import (
    FixedPriorityPreemptive,
    ListScheduledPlatform,
    PartitionedHeterogeneous,
    PlatformDecision,
    PlatformPolicy,
    PlatformPolicyBase,
    SelfTimedPlatform,
    StaticOrderPlatform,
)

__all__ = [
    "FixedPriorityPreemptive",
    "ListScheduledPlatform",
    "PartitionedHeterogeneous",
    "Platform",
    "PlatformDecision",
    "PlatformPolicy",
    "PlatformPolicyBase",
    "Processor",
    "SelfTimedPlatform",
    "StaticOrderPlatform",
]
