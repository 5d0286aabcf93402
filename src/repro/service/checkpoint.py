"""Incremental sweep checkpoints: an append-only JSONL journal of rows.

A checkpoint makes a sweep killable: every completed point is appended to
the journal *as it finishes* (and flushed, so it survives a SIGKILL the
same instant), and a re-run with the same checkpoint path restores those
rows instead of re-executing them.  Because sweep reports aggregate by
point index -- never by completion order -- the resumed report is
bit-identical to the one an uninterrupted run would have produced.

File format (one JSON object per line)::

    {"kind": "repro-sweep-checkpoint", "schema": 2, "version": ...,
     "name": ..., "grid": <grid digest>, "points": N}
    {"point": 3, "ok": true, "error": null, "params": {...}, "metrics": {...}}
    {"point": 0, "ok": true, ...}
    ...

The header pins the checkpoint to one exact grid via
:func:`repro.service.store.grid_digest`; resuming against a sweep whose
expanded grid (or code/schema version) differs raises
:class:`CheckpointMismatchError` instead of silently mixing rows from two
different experiments.  Resuming reads only the header's kind, schema,
grid and points, so a journal with extra header fields (older ones carry a
``shard`` entry) still resumes.  Point lines are
:meth:`~repro.api.sweep.SweepResult.payload` mappings, the same encoding
``SweepReport.to_json`` uses, in *completion* order -- which is why a
torn final line (the writer was killed mid-append) can simply be
dropped: the point it described never counted as completed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro import __version__
from repro.service.store import STORE_SCHEMA

CHECKPOINT_KIND = "repro-sweep-checkpoint"


class CheckpointMismatchError(ValueError):
    """A checkpoint file that does not belong to the sweep resuming it."""


def _decode_lines(path: Path) -> List[Dict[str, Any]]:
    """Every intact JSON line of *path* (a torn tail is dropped)."""
    entries: List[Dict[str, Any]] = []
    with open(path, "rb") as handle:
        for raw in handle:
            try:
                entries.append(json.loads(raw.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue  # killed mid-append: the row never completed
    return entries


def read_checkpoint(path: Any) -> Tuple[Dict[str, Any], Dict[int, Dict[str, Any]]]:
    """The header and ``{grid index: payload}`` rows of a checkpoint file.

    Validation against a particular sweep is the caller's job (via the
    header's ``grid`` digest); this only requires the file to *be* a
    checkpoint.  Duplicate point lines keep the first occurrence -- a
    resumed run may legitimately re-append rows it restored.
    """
    entries = _decode_lines(Path(path))
    if not entries or entries[0].get("kind") != CHECKPOINT_KIND:
        raise CheckpointMismatchError(
            f"{path}: not a sweep checkpoint (missing header line)"
        )
    header = entries[0]
    if header.get("schema") != STORE_SCHEMA:
        raise CheckpointMismatchError(
            f"{path}: checkpoint schema {header.get('schema')!r} does not "
            f"match this code's schema {STORE_SCHEMA}"
        )
    completed: Dict[int, Dict[str, Any]] = {}
    for entry in entries[1:]:
        if "point" in entry:
            completed.setdefault(int(entry["point"]), entry)
    return header, completed


class SweepCheckpoint:
    """The journal writer/resumer one service run holds open.

    Opening an existing file validates its header against this sweep's
    grid digest and loads the completed rows into :attr:`completed`;
    opening a fresh path writes the header.  Either way the file is then
    in append mode and :meth:`record` is durable per call.
    """

    def __init__(self, path: Any, *, name: str, grid: str, points: int) -> None:
        self.path = Path(path)
        self.grid = grid
        #: rows restored from a previous run, by grid index
        self.completed: Dict[int, Dict[str, Any]] = {}
        if self.path.exists() and self.path.stat().st_size > 0:
            header, self.completed = read_checkpoint(self.path)
            for field, expected in (("grid", grid), ("points", points)):
                if header.get(field) != expected:
                    raise CheckpointMismatchError(
                        f"{self.path}: checkpoint was written for a different "
                        f"sweep ({field} {header.get(field)!r} != {expected!r}); "
                        f"delete it or point the run elsewhere"
                    )
            self._handle = open(self.path, "ab")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
            self._append(
                {
                    "kind": CHECKPOINT_KIND,
                    "schema": STORE_SCHEMA,
                    "version": __version__,
                    "name": name,
                    "grid": grid,
                    "points": points,
                }
            )

    def _append(self, entry: Dict[str, Any]) -> None:
        line = json.dumps(entry, separators=(",", ":")) + "\n"
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()  # durable before the next point starts

    def record(self, payload: Dict[str, Any]) -> None:
        """Append one completed point (a ``SweepResult.payload()`` mapping)."""
        index = int(payload["point"])
        if index in self.completed:
            return
        self._append(payload)
        self.completed[index] = payload

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SweepCheckpoint":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SweepCheckpoint({str(self.path)!r}, completed={len(self.completed)})"
