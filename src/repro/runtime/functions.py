"""Registry of the functions an OIL program coordinates.

OIL is a coordination language: the actual computation lives in C/C++
functions that must be side-effect free but may have state (Sec. IV).  In
this reproduction those functions are Python callables registered in a
:class:`FunctionRegistry` together with their worst-case response time (used
both by the CTA derivation and by the discrete-event runtime) and a flag
stating whether they are side-effect free.

Calling convention
------------------
A registered callable receives one positional argument per argument of the
OIL call, in order:

* an *input* argument with count 1 is passed as a scalar, with count n > 1 as
  a list of n values (oldest first),
* an *output* argument is not passed; instead the callable must *return* the
  produced values -- a scalar for count 1, a list of exactly n values for
  count n.  With several output arguments the callable returns a tuple with
  one entry per output argument, in order.

Stateful functions are supported by registering a callable object (or a
closure); the runtime can verify side-effect freedom dynamically by invoking
the function twice on the same inputs and comparing results
(:meth:`FunctionRegistry.verify_side_effect_free`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.util.rational import Rat, RationalLike, as_rational


@dataclass
class FunctionSpec:
    """A registered coordination function.

    The jump-behaviour declarations (``stateless``, ``jump_invariant``,
    ``get_state`` / ``set_state`` / ``replay``) tell the steady-state
    fast-forwarder (:mod:`repro.engine.steady_state`) how the function's
    internal state behaves when firings are skipped:

    * ``stateless`` -- the callable holds no mutable state at all,
    * ``jump_invariant`` -- it has state, but the state after ``k`` skipped
      invocations equals the state now for every ``k`` the detector would
      skip (e.g. a saturating flag that has long converged),
    * ``get_state`` / ``set_state`` -- expose the state as a serialisable
      value; the fast-forwarder folds it into its periodicity key, so a
      jump is only taken when the state provably repeats -- making the jump
      exact without touching the state,
    * ``replay(k)`` -- re-derive the state of ``k`` skipped invocations for
      input-independent state evolutions (offered for completeness; replay
      alone does **not** qualify for value-exact jumps, because a state that
      is not folded into the key could differ between period instances).

    Functions declaring none of these are *undeclared*: under
    ``fast_forward="auto"`` the run falls back to naive stepping with an
    ``undeclared-function`` warning.
    """

    name: str
    callable: Callable[..., Any]
    #: worst-case response time in seconds
    wcet: Rat = Fraction(0)
    side_effect_free: bool = True
    #: free-form description for reports
    description: str = ""
    #: declared jump behaviour (see class docstring)
    stateless: bool = False
    jump_invariant: bool = False
    get_state: Optional[Callable[[], Any]] = None
    set_state: Optional[Callable[[Any], None]] = None
    replay: Optional[Callable[[int], None]] = None

    @property
    def jump_exact(self) -> bool:
        """True when a steady-state jump provably preserves this function's
        semantics: no state, state invariant under jumps, or state exposed
        for folding into the periodicity key."""
        return self.stateless or self.jump_invariant or self.get_state is not None

    @property
    def declared(self) -> bool:
        """True when any jump behaviour was declared at all."""
        return self.jump_exact or self.replay is not None


class FunctionRegistry:
    """Maps OIL function names to executable Python implementations."""

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionSpec] = {}

    def register(
        self,
        name: str,
        callable: Callable[..., Any],
        *,
        wcet: RationalLike = 0,
        side_effect_free: bool = True,
        description: str = "",
        stateless: bool = False,
        jump_invariant: bool = False,
        get_state: Optional[Callable[[], Any]] = None,
        set_state: Optional[Callable[[Any], None]] = None,
        replay: Optional[Callable[[int], None]] = None,
    ) -> FunctionSpec:
        """Register (or replace) a function implementation.

        The keyword-only jump declarations are documented on
        :class:`FunctionSpec`; leaving them all unset marks the function
        *undeclared* (value-exact fast-forward then falls back to naive)."""
        spec = FunctionSpec(
            name=name,
            callable=callable,
            wcet=as_rational(wcet),
            side_effect_free=side_effect_free,
            description=description,
            stateless=stateless,
            jump_invariant=jump_invariant,
            get_state=get_state,
            set_state=set_state,
            replay=replay,
        )
        self._functions[name] = spec
        return spec

    def function(self, decorated_name: Optional[str] = None, **kwargs):
        """Decorator form of :meth:`register`::

            registry = FunctionRegistry()

            @registry.function(wcet="1e-6")
            def LPF(samples):
                return sum(samples) / len(samples)
        """

        def decorator(func: Callable[..., Any]) -> Callable[..., Any]:
            self.register(decorated_name or func.__name__, func, **kwargs)
            return func

        if callable(decorated_name):  # used without parentheses
            func, decorated_name_ = decorated_name, None
            self.register(func.__name__, func)
            return func
        return decorator

    # -------------------------------------------------------------- accessors
    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def get(self, name: str) -> FunctionSpec:
        if name not in self._functions:
            raise KeyError(
                f"function {name!r} is not registered; register an implementation "
                f"(known: {sorted(self._functions)})"
            )
        return self._functions[name]

    def names(self) -> List[str]:
        return sorted(self._functions)

    def wcets(self) -> Dict[str, Rat]:
        """The WCET table in the form the compiler expects."""
        return {name: spec.wcet for name, spec in self._functions.items()}

    # ------------------------------------------------------------- execution
    def call(self, name: str, *args: Any) -> Any:
        """Invoke a registered function."""
        return self.get(name).callable(*args)

    def verify_side_effect_free(self, name: str, *args: Any) -> bool:
        """Dynamically check that calling *name* twice on (copies of) the same
        arguments yields equal results -- a lightweight stand-in for the
        static side-effect analyses the paper cites ([23]-[25])."""
        spec = self.get(name)
        first = spec.callable(*copy.deepcopy(args))
        second = spec.callable(*copy.deepcopy(args))
        try:
            import numpy as np

            if isinstance(first, np.ndarray) or isinstance(second, np.ndarray):
                return bool(np.allclose(first, second))
        except Exception:  # pragma: no cover - numpy always available here
            pass
        return first == second


def default_registry(extra: Optional[Mapping[str, Callable[..., Any]]] = None) -> FunctionRegistry:
    """A registry pre-populated with trivial pass-through helpers used by the
    small examples (``init``, ``copy``, ``ident``)."""
    registry = FunctionRegistry()
    registry.register("ident", lambda value: value, description="identity", stateless=True)
    registry.register(
        "copy",
        lambda value: value,
        description="copy a value to an output stream",
        stateless=True,
    )
    for name, func in (extra or {}).items():
        registry.register(name, func)
    return registry
