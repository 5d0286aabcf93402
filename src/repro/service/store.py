"""Content-addressed result store: stable digests -> persisted metric rows.

Every sweep point is a pure function of its content: the program recipe
(app name + parameter bindings, or a :class:`~repro.api.spec.ProgramSpec`
digest, or a callable runner's qualified name), the run-axis parameter
values, and the code/schema version that computed the row.  This module
digests that content into a stable key (:func:`point_key`) and persists the
resulting metric row on disk (:class:`ResultStore`), so a repeated or
overlapping grid only ever *executes* points it has never seen -- cached
points are answered from the store without compiling anything.

Digest definition
-----------------
``point_key`` = sha256 over the canonical encoding
(:func:`repro.api.spec.stable_digest`) of::

    ("repro-sweep-point", STORE_SCHEMA, repro.__version__,
     program identity,             # ("app", name) | ("spec", spec digest)
                                   # | ("runner", runner function)
     program-axis params, run-axis params, default duration)

The canonical encoding sorts sets and mapping items by value, so the key is
identical in every process and across runs -- the property pickle bytes (the
in-sweep dedup key) do not have.  Bumping ``repro.__version__`` or
``STORE_SCHEMA`` invalidates the whole store by construction: rows computed
by different code are never served as cache hits.

On-disk layout
--------------
::

    <root>/
      segments/segment-000001-<pid>.jsonl   # append-only: one JSON line per
      segments/segment-000002-<pid>.jsonl   #   stored row {schema, key, payload}
      index.json                            # key -> (segment, byte offset, length)

Segments extend the JSONL convention of ``benchmarks/_reporting.py``: every
record is one self-contained JSON line, so a reader never needs more than a
line scan and a torn final line (a writer killed mid-append) is simply
skipped -- losing an interrupted write is the safe direction.  The index
maps each key to the byte range of its row so ``get`` is one ``seek`` +
``read``, and records per segment the offset its writer absorbed: the end
of the last complete line it scanned or ``put``.  Opening scans every
segment past that offset, so rows another writer appended while the index's
writer was open, and the rows of a writer killed before it wrote an index,
are found (segments are the source of truth, the index is only an
accelerator).
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro import __version__
from repro.api.spec import stable_digest

#: Bump when the stored payload shape, the key recipe or the meaning of a
#: stored value changes; every existing row then stops matching and the
#: store refills itself.  2: the canonical encoding of
#: :class:`~repro.api.spec.ProgramSpec` lost its ``time_base`` field.
#: 3: ``deadline_misses`` is counted at every trace level, so a row run at
#: ``trace="off"`` reports the real miss count where it stored 0.
#: 4: the canonical encoding tells bound methods, partials and values it
#: rendered by a truncating ``repr`` apart, so no row stored under a key
#: two such values shared is served again.
STORE_SCHEMA = 4


def program_identity(sweep: Any) -> Tuple[Any, ...]:
    """The stable identity of what a sweep executes, for digest purposes.

    App sweeps identify by the canonical app name, ready-made-program sweeps
    by their :meth:`~repro.api.spec.ProgramSpec.digest` (raises
    :class:`~repro.api.spec.SweepConfigError` for recipe-less precompiled
    programs -- those cannot be content-addressed), callable sweeps by the
    runner itself, which :func:`~repro.api.spec.stable_digest` encodes by
    module + qualname and refuses when it is a lambda or a local function
    (the code-version caveat is covered by ``repro.__version__`` in the key
    for packaged runners, and is the caller's responsibility for their own
    functions).
    """
    if sweep._runner is not None:
        return ("runner", sweep._runner)
    if sweep._program is not None:
        return ("spec", sweep._program.spec().digest())
    if sweep._app is None:
        raise ValueError(
            "this sweep has no program: construct it with app=, "
            "program= or Sweep.from_callable(...)"
        )
    return ("app", sweep._app)


def point_keys(sweep: Any, points: Iterable[Dict[str, Any]]) -> List[str]:
    """The content digest of each grid point (see the module docstring)."""
    identity = program_identity(sweep)
    keys = []
    for params in points:
        if sweep._runner is not None:
            content: Tuple[Any, ...] = ("runner-point", params)
        else:
            program_params, run_params = sweep._split(params)
            content = ("program-point", program_params, run_params, sweep.duration)
        keys.append(
            stable_digest(
                ("repro-sweep-point", STORE_SCHEMA, __version__, identity, content)
            )
        )
    return keys


def point_key(sweep: Any, params: Dict[str, Any]) -> str:
    """The content digest of one grid point."""
    return point_keys(sweep, [params])[0]


class ResultStore:
    """The content-addressed on-disk store (see the module docstring).

    ``get``/``put`` speak *payloads*: small JSON-safe mappings (in practice
    ``{"metrics": {...}}``, the serialisable half of a
    :class:`~repro.api.sweep.SweepResult`).  Writes are first-wins -- rows
    are deterministic functions of their key, so a second write of the same
    key can only be the identical row.  Failed points are never stored (a
    failure may be environmental; re-running it next time is the safe
    direction), which ``Sweep.run`` enforces at its call site.

    The instance keeps ``hits`` / ``misses`` / ``writes`` counters so
    benchmarks and the CI smoke job can assert cache behaviour, and is a
    context manager (``close`` persists the index).
    """

    def __init__(self, root: Any) -> None:
        self.root = Path(root)
        self.segments_dir = self.root / "segments"
        self.segments_dir.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.json"
        #: key -> (segment name, byte offset, byte length)
        self._locations: Dict[str, Tuple[str, int, int]] = {}
        self._cache: Dict[str, Dict[str, Any]] = {}
        self._handle = None
        self._segment_name: Optional[str] = None
        #: segment name -> byte offset up to which this store has indexed it
        self._absorbed: Dict[str, int] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._load()

    # ----------------------------------------------------------------- load
    def _load(self) -> None:
        """Read the index, then scan whatever it does not cover.

        The index records the offset of each segment its writer absorbed;
        segments that grew past it (another writer appended) or are unknown
        are scanned from there, so opening a warm store re-reads nothing and
        opening after a crash recovers every intact line.
        """
        if self.index_path.exists():
            try:
                with open(self.index_path, encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, json.JSONDecodeError):
                data = None  # a torn index rebuilds from the segments
            if data is not None and data.get("schema") == STORE_SCHEMA:
                self._absorbed = dict(data.get("segments", {}))
                for key, location in data.get("keys", {}).items():
                    name, offset, length = location
                    self._locations[key] = (name, int(offset), int(length))
        for path in sorted(self.segments_dir.glob("segment-*.jsonl")):
            if path.stat().st_size > self._absorbed.get(path.name, 0):
                self._scan_segment(path)

    def _scan_segment(self, path: Path) -> None:
        """Index the complete lines of *path* past its absorbed offset.

        A final line without its newline is a killed writer's torn tail, or
        a row another writer is still appending: it stays unabsorbed, so the
        next open reads it again.
        """
        start = offset = self._absorbed.get(path.name, 0)
        with open(path, "rb") as handle:
            handle.seek(start)
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break
                try:
                    entry = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    entry = {}  # a corrupt line: skip it
                if entry.get("schema") == STORE_SCHEMA and "key" in entry:
                    self._locations.setdefault(entry["key"], (path.name, offset, len(raw)))
                offset += len(raw)
        if offset > start:
            self._absorbed[path.name] = offset
            self._dirty = True

    # --------------------------------------------------------------- lookup
    def __len__(self) -> int:
        return len(self._locations)

    def __contains__(self, key: str) -> bool:
        return key in self._locations

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for *key*, or None (counted as hit/miss)."""
        location = self._locations.get(key)
        if location is None:
            self.misses += 1
            return None
        self.hits += 1
        if key not in self._cache:
            name, offset, length = location
            with open(self.segments_dir / name, "rb") as handle:
                handle.seek(offset)
                entry = json.loads(handle.read(length).decode("utf-8"))
            self._cache[key] = entry["payload"]
        return copy.deepcopy(self._cache[key])

    # ---------------------------------------------------------------- write
    def put(self, key: str, payload: Dict[str, Any]) -> bool:
        """Store *payload* under *key*; False when the key already exists."""
        if key in self._locations:
            return False
        line = (
            json.dumps(
                {"schema": STORE_SCHEMA, "key": key, "payload": payload},
                separators=(",", ":"),
            )
            + "\n"
        ).encode("utf-8")
        if self._handle is None:
            self._segment_name = self._fresh_segment_name()
            self._handle = open(self.segments_dir / self._segment_name, "ab")
        offset = self._handle.tell()
        self._handle.write(line)
        self._handle.flush()  # every row is durable the moment put returns
        self._locations[key] = (self._segment_name, offset, len(line))
        self._absorbed[self._segment_name] = offset + len(line)
        self._cache[key] = copy.deepcopy(payload)
        self.writes += 1
        self._dirty = True
        return True

    def _fresh_segment_name(self) -> str:
        """A new segment for this writer: next sequence number + pid, so
        concurrent writers (sweeps sharing one store) never interleave
        within one file."""
        highest = 0
        for path in self.segments_dir.glob("segment-*.jsonl"):
            parts = path.name.split("-")
            try:
                highest = max(highest, int(parts[1]))
            except (IndexError, ValueError):
                continue
        return f"segment-{highest + 1:06d}-{os.getpid()}.jsonl"

    # ------------------------------------------------------------ lifecycle
    def flush(self) -> None:
        """Persist the index (atomically: write-then-rename)."""
        if not self._dirty:
            return
        data = {
            "schema": STORE_SCHEMA,
            "version": __version__,
            "segments": self._absorbed,
            "keys": {key: list(loc) for key, loc in self._locations.items()},
        }
        temporary = self.index_path.with_suffix(".json.tmp")
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        os.replace(temporary, self.index_path)
        self._dirty = False

    def close(self) -> None:
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.root)!r}, rows={len(self)})"
