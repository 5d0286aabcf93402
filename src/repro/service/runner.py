"""The service sweep runner: store lookups, checkpoint journal, execution.

:func:`run_service_sweep` is what ``Sweep.run(store=..., checkpoint=...)``
delegates to.  It decides, per grid point, the cheapest way to produce its
row:

1. **checkpoint** -- the row is already in this run's journal (a previous
   interrupted run completed it): restore it.
2. **store** -- the point's content digest is in the result store (some
   earlier sweep, possibly over a different grid, computed it): serve it.
3. **execute** -- genuinely new: run it on the requested backend.

Only bucket 3 touches the compiler: the cache-missed subset is handed to
``Sweep._execute_points``, whose program analysis pass sees *only* those
points -- a fully cached re-run therefore compiles and executes nothing.

Rows from every bucket cross-pollinate: executed and store-served rows are
appended to the checkpoint (so the journal alone reconstructs the run),
and executed and checkpoint-restored *ok* rows are written to the store (so the next overlapping grid hits).  Failed
points are checkpointed (resuming skips them, keeping the report identical)
but never stored (a failure may be environmental -- a re-run elsewhere
should retry it).

Bit-identity
------------
The report this returns renders identically (``to_json``, ``rows``,
``table``, ``speedup_table``) to the report of a plain uninterrupted
``Sweep.run``: restored rows carry JSON-safe params/metrics and the
encoder ``_json_safe`` is idempotent, so re-encoding them is a no-op; and
reports aggregate by grid index, so *which* bucket produced a row leaves
no trace.  The only difference is :attr:`SweepReport.service_stats` --
deliberately unserialised -- which records the bucket counts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api.sweep import Sweep, SweepReport, SweepResult
from repro.service.checkpoint import SweepCheckpoint
from repro.service.store import ResultStore, grid_digest, point_keys


def _store_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The index-independent part of a result payload.

    The store is keyed by point *content*; the grid position is a property
    of whichever grid is asking, so it is stripped before storing and
    re-attached on retrieval -- that is what lets overlapping grids share
    rows."""
    return {"params": payload["params"], "metrics": payload["metrics"]}


def _restore(index: int, payload: Dict[str, Any]) -> SweepResult:
    """A SweepResult for grid position *index* from a stored payload."""
    return SweepResult(
        index=index,
        params=dict(payload["params"]),
        ok=payload.get("ok", True),
        error=payload.get("error"),
        metrics=dict(payload["metrics"]),
    )


def run_service_sweep(
    sweep: Sweep,
    points: List[Dict[str, Any]],
    *,
    store: Any = None,
    checkpoint: Any = None,
    executor: str = "serial",
    workers: int = 1,
    keep_runs: bool = True,
    strict: bool = False,
) -> SweepReport:
    """Run *sweep* over *points* with store/checkpoint service (see module)."""
    owned_store = store is not None and not isinstance(store, ResultStore)
    result_store: Optional[ResultStore] = None
    if store is not None:
        result_store = store if isinstance(store, ResultStore) else ResultStore(store)
    journal: Optional[SweepCheckpoint] = None

    try:
        keys = point_keys(sweep, points) if result_store is not None else None
        if checkpoint is not None:
            journal = SweepCheckpoint(
                Path(checkpoint),
                name=sweep.name,
                grid=grid_digest(sweep, points),
                points=len(points),
            )

        outcomes: Dict[int, SweepResult] = {}
        resumed = store_hits = 0
        missing: List[int] = []
        for index in range(len(points)):
            if journal is not None and index in journal.completed:
                payload = journal.completed[index]
                outcomes[index] = _restore(index, payload)
                resumed += 1
                # a row computed before the store existed still deserves
                # to serve future grids
                if result_store is not None and outcomes[index].ok:
                    result_store.put(keys[index], _store_payload(payload))
                continue
            if result_store is not None:
                payload = result_store.get(keys[index])
                if payload is not None:
                    outcomes[index] = _restore(index, payload)
                    store_hits += 1
                    if journal is not None:
                        journal.record(outcomes[index].payload())
                    continue
            missing.append(index)

        def on_result(result: SweepResult) -> None:
            payload = result.payload()
            if journal is not None:
                journal.record(payload)
            if result_store is not None and result.ok:
                result_store.put(keys[result.index], _store_payload(payload))

        warnings: List[str] = []
        if missing:
            executed, warnings = sweep._execute_points(
                [(index, points[index]) for index in missing],
                executor=executor,
                workers=workers,
                keep_runs=keep_runs,
                strict=strict,
                on_result=on_result,
            )
            for result in executed:
                outcomes[result.index] = result

        report = SweepReport(
            [outcomes[index] for index in range(len(points))],
            name=sweep.name,
            warnings=warnings,
        )
        report.service_stats = {
            "points": len(points),
            "executed": len(missing),
            "store_hits": store_hits,
            "resumed": resumed,
        }
        return report
    finally:
        if journal is not None:
            journal.close()
        if result_store is not None:
            if owned_store:
                result_store.close()
            else:
                result_store.flush()
