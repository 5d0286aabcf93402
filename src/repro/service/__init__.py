"""The sweep service: cached, resumable parameter-grid serving.

Layered on :class:`repro.api.Sweep` (which stays usable without it) and
engaged through ``Sweep.run(store=..., checkpoint=...)``:

``store``
    content-addressed result store -- a stable sha256 digest of
    *(program identity, point parameters, code/schema version)* maps to a
    persisted metric row, so repeated or overlapping grids only execute
    points never seen before, and cache hits skip compilation entirely.
``checkpoint``
    append-only JSONL journal of completed rows; a killed sweep resumes
    from it, bit-identical to an uninterrupted run.
``runner``
    the orchestration behind ``Sweep.run(store=..., checkpoint=...)``.
"""

from repro.service.checkpoint import (
    CheckpointMismatchError,
    SweepCheckpoint,
    read_checkpoint,
)
from repro.service.runner import run_service_sweep
from repro.service.store import (
    STORE_SCHEMA,
    ResultStore,
    grid_digest,
    point_key,
    point_keys,
)

__all__ = [
    "STORE_SCHEMA",
    "CheckpointMismatchError",
    "ResultStore",
    "SweepCheckpoint",
    "grid_digest",
    "point_key",
    "point_keys",
    "read_checkpoint",
    "run_service_sweep",
]
