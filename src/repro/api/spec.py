"""Picklable program specifications -- rebuild recipes for worker processes.

A :class:`~repro.api.program.Program` is deliberately rich: it carries a
function-registry *factory*, a stimulus *factory*, black-box declarations and
a compilation cache.  Those parts frequently close over DSP state or bound
methods, so a Program as a whole cannot be shipped to another process.  What
*can* be shipped is the recipe it was built from: an app name plus its
parameter bindings, or OIL source text plus its construction keywords.

:class:`ProgramSpec` is exactly that recipe, as a frozen dataclass whose
fields are plain data.  ``spec.build()`` reconstructs an equivalent Program
in whichever process unpickled the spec; the reconstruction re-runs the same
app builder (or ``Program.from_source``) the original construction ran, so
registries and signal generators are created natively on the worker side and
never cross a process boundary.  This is what makes
``Sweep.run(executor="process")`` possible: the parent sends specs, the
workers compile locally (once per distinct spec, cached), and only flat
metric rows travel back.

Two construction paths:

* :meth:`ProgramSpec.from_app` -- an app name plus keyword bindings, the
  common case for sweeps (``Sweep("pal_decoder")`` grid points).
* :meth:`ProgramSpec.from_program` -- recover the recipe from an existing
  Program.  App-built programs (``Program.from_app`` stamps ``program.app`` /
  ``program.app_params``) round-trip exactly; source-built programs carry
  their construction keywords, which must themselves be picklable (module
  level registry factories yes, closures no).  Programs wrapped around
  pre-computed compilations (``Analysis.from_parts``) have no recipe and
  raise :class:`SweepConfigError`.

A spec being *constructible* and being *picklable* are separate questions:
construction always captures the recipe, while :meth:`ProgramSpec.ensure_picklable`
performs the actual ``pickle.dumps`` probe and raises a
:class:`SweepConfigError` naming the spec when some captured part (a lambda
registry factory, an open file in the params, ...) cannot travel.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pickle
import sys
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.program import Program


# --------------------------------------------------------------------------
# Stable content digests.
#
# The sweep dedup key (`repro.api.sweep._program_key`) compares by pickle
# bytes, which is sound *within* one sweep run but useless as a persistent
# identity: pickle serialises sets in hash-iteration order, which varies with
# PYTHONHASHSEED, so the same value can produce different bytes in different
# processes.  The content-addressed result store needs the opposite property
# -- the same value must digest identically in every process, on every run,
# on every host -- so digests are computed over a *canonical* recursive
# encoding instead and hashed with sha256.
# --------------------------------------------------------------------------


def _sort_key(encoded: Any) -> str:
    """A total order over canonical encodings (JSON render, deterministic)."""
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def _canonical(value: Any) -> Any:
    """*value* as a nested JSON-native structure with deterministic order.

    Containers are tagged so structurally different values can never encode
    equal (``True`` vs ``1``, ``"1"`` vs ``1`` are distinct under JSON
    already; floats go through ``repr`` for exact round-trip identity;
    ``list`` and ``tuple`` deliberately share a tag -- equal contents build
    the same program).  Sets and mapping items are sorted by their canonical
    JSON render, so hash-iteration order -- the thing that makes pickle
    bytes unstable across processes -- never reaches the digest.

    Objects encode as class qualname + canonical instance state: dataclass
    fields, or ``vars()`` for plain classes (covers scheduler policies and
    platforms).  Functions and classes encode by module+qualname,
    mirroring how pickle ships them by reference, so they must be reachable
    by that path: a lambda, a closure or a local class raises
    :class:`SweepConfigError` (:func:`_reference`).  A bound method encodes
    its instance and function, a ``functools.partial`` its function,
    arguments and keywords.  Anything else encodes by its pickle bytes, or,
    when it does not pickle, by ``repr`` -- a default repr embeds the
    instance id, which digests differently every run and therefore only
    ever causes cache *misses*, never wrong hits.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return ["float", repr(value)]
    if isinstance(value, Fraction):
        return ["fraction", value.numerator, value.denominator]
    if isinstance(value, (bytes, bytearray)):
        return ["bytes", bytes(value).hex()]
    if isinstance(value, Mapping):
        items = [[_canonical(k), _canonical(v)] for k, v in value.items()]
        return ["map", sorted(items, key=lambda item: _sort_key(item[0]))]
    if isinstance(value, (list, tuple)):
        return ["seq", [_canonical(item) for item in value]]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted((_canonical(item) for item in value), key=_sort_key)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        state = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        qualname = f"{type(value).__module__}.{type(value).__qualname__}"
        return ["obj", qualname, _canonical(state)]
    if isinstance(value, types.MethodType):
        return ["method", _canonical(value.__self__), _canonical(value.__func__)]
    if isinstance(value, functools.partial):
        return ["partial", *map(_canonical, (value.func, value.args, value.keywords))]
    if (isinstance(value, type) or callable(value)) and hasattr(value, "__qualname__"):
        return _reference(value)
    state = getattr(value, "__dict__", None)
    if state is not None:
        qualname = f"{type(value).__module__}.{type(value).__qualname__}"
        return ["obj", qualname, _canonical(state)]
    try:
        return ["pickle", type(value).__qualname__, pickle.dumps(value).hex()]
    except Exception:  # unpicklable: the id-bearing repr can only miss
        return ["repr", type(value).__qualname__, repr(value)]


def _reference(value: Any) -> List[str]:
    """``["ref", module, qualname]`` of a function or class that its module
    exposes under that name (a classmethod's function counts).

    Anything else -- a lambda (``<lambda>``), a closure or a class defined
    inside a function (``<locals>``), a function shadowed by its decorator
    -- has no name that tells two of them apart, so it raises.
    """
    module = getattr(value, "__module__", None)
    qualname = value.__qualname__
    found: Any = sys.modules.get(module or "")
    for name in qualname.split("."):
        found = getattr(found, name, None)
    if found is not value and getattr(found, "__func__", None) is not value:
        raise SweepConfigError(
            f"{value!r} has no stable identity (it is not an importable "
            f"module-level function or class): its results cannot be "
            f"content-addressed"
        )
    return ["ref", module, qualname]


def stable_digest(value: Any) -> str:
    """A process-stable sha256 hex digest of *value* by content.

    Equal values digest equal in every process (no PYTHONHASHSEED
    dependence, no pickle memo effects); unequal values digest unequal up
    to the documented collapses of :func:`_canonical` (list vs tuple).
    This is the identity the sweep service stores results under.  Raises
    :class:`SweepConfigError` for a value holding a function or class with
    no stable identity (see :func:`_reference`).
    """
    rendered = _sort_key(_canonical(value))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


class SweepConfigError(ValueError):
    """A sweep/spec configuration that cannot do what was asked of it.

    Raised for a spec pickle cannot ship to a worker process (a
    closure-based registry factory, a recipe-less precompiled program; the
    process executor catches it and runs the sweep serially instead), for a
    sweep combining ``scheduler`` and ``platform``, and for a point the
    result store cannot key because it holds a function or class with no
    stable identity (a lambda, a closure, a local class).
    """


@dataclass(frozen=True)
class ProgramSpec:
    """A picklable recipe that rebuilds one :class:`Program` anywhere.

    Exactly one of ``app`` / ``source`` is set.  ``params`` holds the
    parameter bindings as a sorted tuple of ``(name, value)`` pairs so specs
    with equal bindings compare and hash equal regardless of keyword order.
    """

    #: canonical app-catalogue name (``Program.from_app`` path), or None
    app: Optional[str] = None
    #: OIL source text (``Program.from_source`` path), or None
    source: Optional[str] = None
    #: parameter bindings: app builder kwargs, or ``Program.params`` echoes
    params: Tuple[Tuple[str, Any], ...] = ()
    #: the program's default execution platform (plain picklable data);
    #: None means "builder's choice" (virtual unbounded hardware)
    platform: Any = None
    name: str = "program"
    #: remaining ``Program.from_source`` keywords (source path only)
    function_wcets: Tuple[Tuple[str, Any], ...] = ()
    black_boxes: Tuple[Any, ...] = ()
    default_wcet: Any = 0
    top: Optional[str] = None
    registry: Any = None
    signals: Any = None
    mode_schedules: Any = None

    def __post_init__(self) -> None:
        if (self.app is None) == (self.source is None):
            raise SweepConfigError(
                "a ProgramSpec needs exactly one of app= or source="
            )

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_app(
        cls,
        app: str,
        *,
        platform: Any = None,
        **params: Any,
    ) -> "ProgramSpec":
        """The spec of ``Program.from_app(app, **params)``.

        The name is canonicalised (and validated) against the app catalogue
        immediately, so a typo fails in the parent process with the usual
        "unknown app" message rather than inside a worker.
        """
        from repro.api.apps import app_spec

        resolved = app_spec(app)
        resolved.check_params(params)
        return cls(
            app=resolved.name,
            name=resolved.name,
            params=tuple(sorted(params.items())),
            platform=platform,
        )

    @classmethod
    def from_program(cls, program: Program) -> "ProgramSpec":
        """Recover the recipe an existing Program was built from."""
        if program.app is not None:
            return cls(
                app=program.app,
                name=program.name,
                params=tuple(sorted(program.app_params.items())),
                platform=program.platform,
            )
        if not program.source:
            raise SweepConfigError(
                f"program {program.name!r} was wrapped around a pre-computed "
                f"compilation (no source text, no app name): it cannot be "
                f"rebuilt in a worker process"
            )
        return cls(
            source=program.source,
            name=program.name,
            params=tuple(sorted(program.params.items())),
            platform=program.platform,
            function_wcets=tuple(sorted(program.function_wcets.items())),
            black_boxes=tuple(program.black_boxes),
            default_wcet=program.default_wcet,
            top=program.top,
            registry=program.make_registry,
            signals=program.make_signals,
            mode_schedules=program.mode_schedules,
        )

    # ----------------------------------------------------------------- build
    def build(self) -> Program:
        """Reconstruct an equivalent (freshly compiled) Program."""
        if self.app is not None:
            from repro.api.apps import build_app

            program = build_app(self.app, **dict(self.params))
        else:
            program = Program.from_source(
                self.source or "",
                name=self.name,
                function_wcets=dict(self.function_wcets),
                black_boxes=self.black_boxes,
                default_wcet=self.default_wcet,
                top=self.top,
                registry=self.registry,
                signals=self.signals,
                mode_schedules=self.mode_schedules,
                params=dict(self.params),
            )
        if self.platform is not None:
            program.platform = self.platform
        return program

    def digest(self) -> str:
        """The spec's stable content digest (see :func:`stable_digest`).

        Equal recipes -- same app/source, same parameter bindings, same
        platform -- digest equal in every process and across runs,
        which is what lets the sweep service's content-addressed store
        answer repeated grids without rebuilding anything.  Unlike
        :meth:`ensure_picklable` this never touches pickle, so it works (and
        stays stable) even for specs that cannot ship to workers.
        """
        return stable_digest(self)

    # ----------------------------------------------------------- validation
    def ensure_picklable(self) -> bytes:
        """The spec's pickle bytes, or a :class:`SweepConfigError` naming it.

        The probe is the real test the process executor needs: everything the
        spec captured -- parameter values, black boxes, registry/signal
        factories -- must survive ``pickle.dumps`` to reach a worker.
        """
        try:
            return pickle.dumps(self)
        except Exception as error:
            raise SweepConfigError(
                f"program spec {self.name!r} is not picklable and cannot be "
                f"shipped to a worker process: {type(error).__name__}: {error}"
            ) from error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        origin = f"app={self.app!r}" if self.app is not None else "source=..."
        rendered = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"ProgramSpec({origin}{', ' + rendered if rendered else ''})"
