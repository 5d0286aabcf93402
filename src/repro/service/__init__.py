"""The sweep service: the content-addressed result store behind
``Sweep.run(store=...)``.

A stable sha256 digest of *(program identity, point parameters,
code/schema version)* maps to a persisted metric row, so repeated or
overlapping grids only execute points never seen before, and cache hits
skip compilation entirely.  Every ok row is written (and flushed) the moment
its point completes, so the store is also how a sweep resumes: a run killed
mid-grid is re-run on the same store, serves the rows it stored and
executes the rest, into a report byte-equal to an uninterrupted run.
Failed points are never stored, so every run retries them.
"""

from repro.service.store import (
    STORE_SCHEMA,
    ResultStore,
    point_key,
    point_keys,
)

__all__ = [
    "STORE_SCHEMA",
    "ResultStore",
    "point_key",
    "point_keys",
]
