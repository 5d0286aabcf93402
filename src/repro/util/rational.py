"""Exact rational arithmetic helpers.

The CTA model and the SDF substrate reason about *rates* and *transfer rate
ratios*.  Multi-rate consistency (products of transfer rate ratios around a
cycle must be one, repetition vectors must be integral) is only robust when
computed exactly, therefore all rate book-keeping in this reproduction uses
:class:`fractions.Fraction`.  Floats appear only at the reporting boundary.

``Rat`` is simply an alias of :class:`fractions.Fraction`; the helpers in this
module normalise user input (ints, floats, strings, fractions) into exact
rationals and provide gcd / lcm on rationals which the repetition-vector and
hyper-period computations need.

:class:`TimeBase` is the runtime's integer-tick clock: it fixes a rational
*resolution* (seconds per tick, the gcd of every duration a program can
schedule) so that all timestamps become exact integer tick counts.  Integer
comparisons are what the event queue's heap spends its time on, and they are
several times cheaper than :class:`~fractions.Fraction` comparisons while
remaining exact -- tick counts round-trip to the very same rationals the
legacy fraction-based queue computes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

#: Exact rational number type used across the analysis layers.
Rat = Fraction

#: Anything the public API accepts where a rational rate/ratio is expected.
RationalLike = Union[int, float, str, Fraction]

# Floats are converted through ``Fraction(str(x))`` by default (decimal
# semantics) unless they are exactly representable; ``limit`` bounds the
# denominator for safety when converting floats that originate from
# measurements rather than specifications.
_DEFAULT_MAX_DENOMINATOR = 10**12


def as_rational(value: RationalLike, *, max_denominator: int = _DEFAULT_MAX_DENOMINATOR) -> Rat:
    """Convert *value* to an exact :class:`~fractions.Fraction`.

    Integers, strings (``"3/4"``, ``"0.25"``), and fractions convert exactly.
    Floats are converted via their shortest decimal representation and then
    limited to *max_denominator*, which gives the intuitive result for
    human-entered values such as ``0.1`` while still accepting measured
    floating point data.

    Raises
    ------
    TypeError
        If *value* is not a supported numeric type.
    ValueError
        If *value* is NaN or infinite.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("booleans are not valid rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError(f"cannot convert non-finite float {value!r} to a rational")
        return Fraction(str(value)).limit_denominator(max_denominator)
    raise TypeError(f"cannot interpret {type(value).__name__!r} as a rational number")


def rational_gcd(values: Iterable[RationalLike]) -> Rat:
    """Greatest common divisor of a collection of rationals.

    The gcd of ``p1/q1, p2/q2, ...`` is ``gcd(p1, p2, ...) / lcm(q1, q2, ...)``.
    Useful for computing base periods of multi-rate schedules.
    """
    fracs = [as_rational(v) for v in values]
    if not fracs:
        raise ValueError("rational_gcd() requires at least one value")
    num = 0
    den = 1
    for f in fracs:
        num = math.gcd(num, abs(f.numerator))
        den = den * f.denominator // math.gcd(den, f.denominator)
    return Fraction(num, den)


def rational_lcm(values: Iterable[RationalLike]) -> Rat:
    """Least common multiple of a collection of rationals.

    The lcm of ``p1/q1, p2/q2, ...`` is ``lcm(p1, p2, ...) / gcd(q1, q2, ...)``.
    Used to compute hyper-periods and integral repetition vectors.
    """
    fracs = [as_rational(v) for v in values]
    if not fracs:
        raise ValueError("rational_lcm() requires at least one value")
    num = 1
    den = 0
    for f in fracs:
        a = abs(f.numerator)
        if a == 0:
            raise ValueError("rational_lcm() of zero is undefined")
        num = num * a // math.gcd(num, a)
        den = math.gcd(den, f.denominator)
    return Fraction(num, den)


def scale_to_integers(values: Sequence[RationalLike]) -> list[int]:
    """Scale a vector of rationals by the smallest positive factor that makes
    every entry an integer, and return the resulting integer vector.

    This is exactly the normalisation used to turn the rational solution of
    the SDF balance equations into the (smallest, positive, integral)
    repetition vector.
    """
    fracs = [as_rational(v) for v in values]
    if not fracs:
        return []
    denominators = [f.denominator for f in fracs]
    lcm_den = 1
    for d in denominators:
        lcm_den = lcm_den * d // math.gcd(lcm_den, d)
    ints = [int(f * lcm_den) for f in fracs]
    g = 0
    for i in ints:
        g = math.gcd(g, abs(i))
    if g > 1:
        ints = [i // g for i in ints]
    return ints


def is_integral(value: RationalLike) -> bool:
    """Return ``True`` if *value* is an integer-valued rational."""
    return as_rational(value).denominator == 1


def rational_str(value: RationalLike) -> str:
    """Human readable rendering: integers without denominator, otherwise p/q."""
    f = as_rational(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


# --------------------------------------------------------------------------
# Integer-tick time base
# --------------------------------------------------------------------------

#: A resolution whose denominator exceeds this bound would turn every
#: timestamp into a multi-limb big integer; such programs keep the exact
#: fraction representation instead.
MAX_TICK_DENOMINATOR = 10**18


class TimeBaseError(ValueError):
    """A timestamp does not lie on the tick grid of a :class:`TimeBase`."""


class TimeBase:
    """An exact integer-tick clock of a fixed rational resolution.

    One tick lasts ``resolution`` seconds.  A rational time is representable
    exactly iff it is an integer multiple of the resolution; construction via
    :meth:`for_durations` (the gcd of every duration the program schedules:
    periods, execution times, offsets) guarantees this for all timestamps a
    simulation can produce, because event times are sums of those durations.

    Conversions are exact in both directions -- :meth:`to_time` of
    :meth:`to_ticks` is the identity -- so a tick-based run is observationally
    identical to a fraction-based run; only the event queue's comparison cost
    changes.
    """

    __slots__ = ("resolution", "_num", "_den")

    def __init__(self, resolution: RationalLike) -> None:
        res = as_rational(resolution)
        if res <= 0:
            raise ValueError(f"tick resolution must be positive, got {res}")
        self.resolution: Rat = res
        self._num = res.numerator
        self._den = res.denominator

    @classmethod
    def for_durations(cls, durations: Iterable[RationalLike]) -> Optional["TimeBase"]:
        """The coarsest time base on whose grid all *durations* lie.

        The resolution is the rational gcd of the positive durations (zeros
        are grid points of every base and are skipped).  Returns ``None`` --
        the caller falls back to exact fractions -- when there is no positive
        duration to derive a resolution from, or when the resolution's
        denominator exceeds :data:`MAX_TICK_DENOMINATOR` (tick counts would
        become arbitrarily large big integers, defeating the point).
        """
        positive = [f for f in (as_rational(d) for d in durations) if f > 0]
        if not positive:
            return None
        resolution = rational_gcd(positive)
        if resolution.denominator > MAX_TICK_DENOMINATOR:
            return None
        return cls(resolution)

    def to_ticks(self, time: RationalLike) -> int:
        """Exact tick count of *time*; raises :class:`TimeBaseError` when
        *time* is not on the tick grid."""
        f = as_rational(time)
        ticks, remainder = divmod(f.numerator * self._den, f.denominator * self._num)
        if remainder:
            raise TimeBaseError(
                f"{rational_str(f)} s is not a multiple of the tick resolution "
                f"{rational_str(self.resolution)} s"
            )
        return ticks

    def ticks_floor(self, time: RationalLike) -> int:
        """The last tick at or before *time* (for run horizons, which bound
        event processing but need not be grid points themselves)."""
        f = as_rational(time)
        return (f.numerator * self._den) // (f.denominator * self._num)

    def to_time(self, ticks: int) -> Rat:
        """The exact rational time of tick *ticks* (inverse of
        :meth:`to_ticks`)."""
        return Fraction(ticks * self._num, self._den)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeBase(resolution={rational_str(self.resolution)} s)"
