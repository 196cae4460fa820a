"""Shared numeric conventions: exact rationals where possible, declared-precision floats elsewhere."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import mpmath

Number = Union[int, Fraction, float]

DEFAULT_REL_TOL = 1e-12
DEFAULT_PRECISION_BITS = 80


@dataclass(frozen=True)
class NumericContext:
    """Evaluation policy for the inexact corners of the arithmetic.

    precision_bits drives mpmath evaluations (fractional powers, witness
    certification); rel_tol scales every inequality threshold.
    """

    precision_bits: int = DEFAULT_PRECISION_BITS
    rel_tol: float = DEFAULT_REL_TOL

    def workprec(self, factor: int = 1):
        import mpmath

        return mpmath.workprec(self.precision_bits * factor)


DEFAULT_CONTEXT = NumericContext()


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


def dpow_mp(d: Number, p: float) -> mpmath.mpf:
    """mpmath twin of dpow; precision comes from the ambient mpmath context."""
    import mpmath

    if d == 0:
        return mpmath.mpf(0)
    if p == 0:
        return mpmath.mpf(1)
    return to_mpf(d) ** to_mpf(p)


def is_violation(gap: Number, scale: Number, rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """Negative gap beyond tolerance. Exact gaps compare against exact zero;

    gap = 0 counts as a non-violation (the inequality is non-strict).
    """
    if isinstance(gap, (int, Fraction)):
        return gap < 0
    return gap < -rel_tol * max(float(scale), 1.0)


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


def rational_pow(d: Fraction, alpha: Fraction, ctx: NumericContext = DEFAULT_CONTEXT) -> Number:
    """d**alpha: exact Fraction when the root is exact, declared-precision float otherwise."""
    exact = exact_rational_pow(d, alpha)
    if exact is not None:
        return exact
    with ctx.workprec():
        return float(to_mpf(d) ** to_mpf(Fraction(alpha)))
