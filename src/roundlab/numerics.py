"""Shared numeric conventions: exact rationals where possible, declared-precision floats elsewhere."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import mpmath

Number = Union[int, Fraction, float]

# relative tolerance of every inexact inequality (`is_violation`)
REL_TOL = 1e-12
# mpmath working precision of inexact fractional powers; witness
# certification re-sums at no less than twice this
PRECISION_BITS = 80


def dpow(d: Number, p: float) -> Number:
    """d**p with the counting convention 0**0 = 0 and d**0 = 1 for d > 0.

    Stays in exact arithmetic when d is rational and p a nonnegative integer.
    """
    if d == 0:
        return 0
    if p == 0:
        return 1
    if isinstance(d, (int, Fraction)) and float(p).is_integer() and p > 0:
        return d ** int(p)
    return float(d) ** p


def to_mpf(d: Number) -> mpmath.mpf:
    import mpmath

    if isinstance(d, Fraction):
        return mpmath.mpf(d.numerator) / d.denominator
    return mpmath.mpf(d)


def is_violation(gap, scale) -> bool:
    """The one rule that decides an inequality `gap >= 0`: exact gaps
    compare against exact zero, any other gap violates only below
    -REL_TOL * max(scale, 1). gap = 0 is no violation (the inequality is
    non-strict). REL_TOL is converted to the gap's type and scale keeps
    its own, so a Decimal or mpmath gap and scale compare at the ambient
    precision of their context."""
    if isinstance(gap, (int, Fraction)):
        return gap < 0
    return gap < -type(gap)(REL_TOL) * max(scale, 1)


def exact_int_root(x: int, k: int) -> int | None:
    """Integer k-th root of x when exact, else None."""
    if x < 0 or k <= 0:
        return None
    if k == 1 or x in (0, 1):
        return x
    if k == 2:
        r = math.isqrt(x)
        return r if r * r == x else None
    r = round(x ** (1.0 / k))
    while r > 0 and r ** k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r if r ** k == x else None


def exact_rational_pow(d: Fraction, alpha: Fraction) -> Fraction | None:
    """d**alpha as an exact Fraction when the root is exact, else None. d > 0."""
    if d == 0:
        return Fraction(0)
    num, den = d.numerator, d.denominator
    a, b = alpha.numerator, alpha.denominator
    rn = exact_int_root(num ** a, b)
    rd = exact_int_root(den ** a, b)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def rational_pow(d: Fraction, alpha: Fraction) -> Number:
    """d**alpha: exact Fraction when the root is exact, else a float
    evaluated at PRECISION_BITS."""
    exact = exact_rational_pow(d, alpha)
    if exact is not None:
        return exact
    import mpmath

    with mpmath.workprec(PRECISION_BITS):
        return float(to_mpf(d) ** to_mpf(Fraction(alpha)))
