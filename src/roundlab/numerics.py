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


def json_int(value, entry: str) -> int:
    """`value` if it is an integer; a float (4.0 as well as 1.5) or a
    boolean read from JSON is refused with ValueError naming `entry`, not
    rounded."""
    if type(value) is not int:
        raise ValueError(f"{entry} must be an integer, got {value!r}")
    return value


def parse_fraction(text) -> Fraction:
    """Fraction(text) for a rational given as text (or an int); a zero
    denominator is refused with a ValueError naming the text, the error
    argparse reports as a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


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
    if k >= x.bit_length():
        # 2^k > x: the only candidate root is 1, and 1^k = 1 < x
        return None
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
    a, b = alpha.numerator, alpha.denominator
    # with gcd(a, b) = 1, n^a is a b-th power exactly when n is, so the
    # roots come first and only a root that exists is raised to a
    rn = exact_int_root(d.numerator, b)
    rd = exact_int_root(d.denominator, b)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd) ** a


def rational_pow(d: Number, alpha: Fraction) -> Number:
    """d**alpha for d >= 0. A rational d gives an exact Fraction when the
    root is exact, else a float evaluated at PRECISION_BITS; any other d
    gives float(d) ** float(alpha)."""
    if not isinstance(d, (int, Fraction)):
        return float(d) ** float(alpha)
    exact = exact_rational_pow(d, alpha)
    if exact is not None:
        return exact
    import mpmath

    with mpmath.workprec(PRECISION_BITS):
        return float(to_mpf(d) ** to_mpf(Fraction(alpha)))


def exact_sum(terms) -> Number:
    """The sum of `terms`: a Fraction when every term is rational
    (Fraction(0) for no terms), else math.fsum of their floats."""
    terms = list(terms)
    if all(isinstance(t, (int, Fraction)) for t in terms):
        return sum(terms, Fraction(0))
    return math.fsum(float(t) for t in terms)
