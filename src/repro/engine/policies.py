"""The engine's built-in scheduling policies.

The dispatcher (:mod:`repro.engine.dispatcher`) decides *when* a task is
eligible; a policy decides where and whether an eligible task starts, in
the one scheduling protocol of :mod:`repro.platform.policies`.  The three
policies here are the paper's scheduling scenarios, each a platform policy
on anonymous unit-speed processors -- they describe no
:class:`~repro.platform.model.Platform`, so their runs report none:

* :class:`SelfTimedUnbounded` -- every eligible task starts immediately: one
  processor per task, the virtual unbounded-parallel hardware the paper's CTA
  analysis bounds.  This is the default and reproduces the seed simulator's
  semantics exactly.  The engine knows its answer and never asks: it starts
  the firing with no policy call, no processor and no busy accounting.
* :class:`BoundedProcessors` -- list scheduling on ``n`` identical
  processors: at most ``n`` firings are in flight at any instant, eligible
  tasks are started in static (extraction) order as processors free up.  This
  expresses the Fig. 4 speedup-vs-cores scenario axis.
* :class:`StaticOrder` -- a single processor executing a fixed (cyclic)
  firing sequence, the schedule a sequential language forces the programmer
  to spell out (Sec. III-A / Fig. 2b).  This absorbs the
  :mod:`repro.baselines.sequential_schedule` baseline into the engine: the
  baseline's generated schedule *is* the policy's firing order.

A policy never decides eligibility, so every policy observes the same
data-driven semantics and the same produced values; policies only reshape
the timing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.platform.model import Platform
from repro.platform.policies import ListScheduledPlatform, SelfTimedPlatform, StaticOrderPlatform
from repro.util.validation import check_positive

if TYPE_CHECKING:  # import only for annotations: runtime.simulator imports us
    from repro.runtime.tasks import RuntimeTask


class SelfTimedUnbounded(SelfTimedPlatform):
    """Self-timed execution on virtually unbounded parallel hardware.

    Every task owns its own processor, so an eligible task always starts
    immediately -- the execution model the CTA analysis bounds and the
    semantics of the seed dispatcher.  :class:`SelfTimedPlatform` without
    the platform: the engine recognises this exact type and starts its
    firings without asking, on no processor and with no busy accounting.
    """

    def __init__(self) -> None:
        super().__init__()
        self.platform = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SelfTimedUnbounded()"


class BoundedProcessors(ListScheduledPlatform):
    """List scheduling on *processors* identical processors.

    At most *processors* firings are in flight simultaneously; the dispatcher
    offers eligible tasks in static order, so ties are broken by extraction
    order (the classical list-scheduling priority).  With ``processors=1``
    the execution is fully serialised; as the count grows the makespan
    approaches the self-timed (unbounded) execution, which is exactly the
    Fig. 4 speedup experiment.  :class:`ListScheduledPlatform` on
    ``Platform.homogeneous(processors)``, with the processors left
    anonymous.
    """

    def __init__(self, processors: int) -> None:
        check_positive(processors, "processors")
        super().__init__(Platform.homogeneous(processors))
        self.platform = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BoundedProcessors({len(self.processors)})"


class StaticOrder(StaticOrderPlatform):
    """A single processor executing a fixed firing sequence.

    :class:`StaticOrderPlatform` on one anonymous unit-speed processor: see
    there for the schedule, one-shot and key semantics.  Use
    :func:`repro.baselines.sequential_schedule.static_order_policy` to
    build this policy directly from an SDF graph's deadlock-free schedule.
    """

    def __init__(
        self,
        order: Sequence[str],
        *,
        cyclic: bool = True,
        key: Optional[Callable[["RuntimeTask"], str]] = None,
    ) -> None:
        super().__init__(order, cyclic=cyclic, key=key)
        self.platform = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StaticOrder({len(self.order)} firings, cyclic={self.cyclic})"
