"""The one violation rule, at its boundary, through every caller; and the
one exact-or-float rule of powers and sums.

An inexact gap violates only strictly below -REL_TOL * max(scale, 1);
exact gaps compare against zero. The float gaps here sit on that
threshold and one ulp either side of it, where any second copy of the
rule that drifted (a strict/non-strict flip, a missing floor at 1, a
scale rounded through float) would answer differently.

A power or a sum of rationals stays a Fraction wherever the result is
rational; anything else is a float.
"""

import math
import tracemalloc
from fractions import Fraction

import pytest

from oracles import mpmath_certify_violation
from roundlab.cyclic import DoubleSimplex
from roundlab.numerics import (PRECISION_BITS, REL_TOL, exact_int_root,
                               exact_rational_pow, exact_sum, is_violation,
                               rational_pow)
from roundlab.obstruction import _margin
from roundlab.roundness import GapResult, certify_violation


def around(threshold: float) -> list[tuple[float, bool]]:
    """(gap, violates) on the threshold and one ulp either side."""
    return [(math.nextafter(threshold, -math.inf), True),
            (threshold, False),
            (math.nextafter(threshold, math.inf), False)]


# below a scale of 1 the threshold is floored at -REL_TOL itself
FLOORED = around(-REL_TOL)


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 1000.0, 2.0 ** 40])
def test_is_violation_float_boundary(scale):
    for gap, violates in around(-REL_TOL * max(scale, 1.0)):
        assert is_violation(gap, scale) is violates


def test_is_violation_exact_gaps_compare_with_zero():
    tiny = Fraction(1, 10 ** 40)
    assert is_violation(-tiny, 10 ** 6)
    assert not is_violation(Fraction(0), 10 ** 6)
    assert not is_violation(0, 0)
    assert is_violation(-1, 0)


def test_gap_result_boundary():
    # lhs = -gap, rhs = 0: the gap is exact and the scale below 1
    for gap, violates in FLOORED:
        assert GapResult(1.5, -gap, 0.0, False).is_violation() is violates


def test_margin_boundary():
    # hi = 0, factor * lo = -gap: the margin is exact and the scale below 1
    for gap, violates in FLOORED:
        for factor in (1.0, 0.5):
            margin, holds = _margin(0.0, -gap / factor, factor)
            assert margin == gap
            assert holds is not violates


class _OneDistanceSpace:
    """Four points where d(0, 1) = within and every other distance is
    0.0: for the double simplex (0, 1; 2, 3) at p = 1 the gap is -within,
    re-summed in decimal because the distances are floats."""

    def __init__(self, within: float):
        self.within = within

    def distance(self, a, b):
        return self.within if {a, b} == {0, 1} else 0.0


def test_certify_violation_mpmath_boundary():
    ds = DoubleSimplex((0, 1), (2, 3))
    for gap, violates in FLOORED:
        space = _OneDistanceSpace(-gap)
        assert certify_violation(space, ds, 1) is violates
        assert certify_violation(space, ds, 1.0) is violates


def test_certify_violation_matches_mpmath_reference_on_the_boundary():
    # the decimal re-sum and the 160-bit mpmath one agree on the threshold
    # and one ulp either side, at integer and fractional p
    ds = DoubleSimplex((0, 1), (2, 3))
    for gap, violates in FLOORED:
        space = _OneDistanceSpace(-gap)
        for p in (1, 1.0, 1.5):
            assert certify_violation(space, ds, p) \
                is mpmath_certify_violation(space, ds, p)
        assert mpmath_certify_violation(space, ds, 1.0) is violates


def test_is_violation_keeps_mpmath_precision():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(160):
        # a scale that rounds to 1000.0 as a float; the gap lies between
        # the exact threshold and the one of the rounded scale
        scale = mpmath.mpf(1000) + mpmath.mpf(2) ** -60
        exact = -REL_TOL * scale
        rounded = -REL_TOL * mpmath.mpf(float(scale))
        gap = (exact + rounded) / 2
        assert exact < gap < rounded
        assert not is_violation(gap, scale)
        assert is_violation(exact - mpmath.mpf(2) ** -150, scale)


@pytest.mark.parametrize("d, alpha, expected", [
    (8, Fraction(2, 3), Fraction(4)),
    (Fraction(9, 4), Fraction(1, 2), Fraction(3, 2)),
    (Fraction(0), Fraction(1, 3), Fraction(0)),
    (4.0, Fraction(1, 2), 2.0),
    (Fraction(1, 2), Fraction(1, 2), math.sqrt(0.5)),
    (2, Fraction(1, 3), 2 ** (1 / 3)),
], ids=["int-exact-root", "fraction-exact-root", "zero", "float",
        "fraction-inexact-root", "int-inexact-root"])
def test_rational_pow_is_exact_where_the_root_is(d, alpha, expected):
    got = rational_pow(d, alpha)
    # a float d stays a float even where the root is exact
    assert type(got) is type(expected)
    assert got == expected


def test_exact_sum_is_a_fraction_unless_a_term_is_a_float():
    assert exact_sum([]) == 0 and type(exact_sum([])) is Fraction
    total = exact_sum(iter([1, Fraction(1, 3)]))
    assert total == Fraction(4, 3) and type(total) is Fraction
    mixed = exact_sum([Fraction(1, 3), 0.5])
    assert mixed == 1 / 3 + 0.5 and type(mixed) is float
    # the float sum is math.fsum's, exact before its one rounding
    assert exact_sum([1e16, 1.0, -1e16, Fraction(0)]) == 1.0


def test_exact_int_root_refuses_a_root_wider_than_x():
    # for x >= 2 a root of degree at least x's bit length would be 1
    for x in (2, 3, 255, 256, 2 ** 64 + 1):
        k = x.bit_length()
        assert exact_int_root(x, k) is None
        assert exact_int_root(x, 10 ** 12) is None
    assert exact_int_root(2 ** 64, 64) == 2
    assert exact_int_root(3 ** 40, 40) == 3
    assert exact_int_root(1, 10 ** 12) == 1 and exact_int_root(0, 7) == 0


@pytest.mark.parametrize("d, alpha", [
    (Fraction(8, 27), Fraction(2, 3)), (Fraction(27, 8), Fraction(-1, 3)),
    (Fraction(16), Fraction(3, 4)), (Fraction(12, 5), Fraction(5, 2)),
    (Fraction(9, 4), Fraction(0)), (Fraction(7, 3), Fraction(4)),
])
def test_exact_rational_pow_roots_before_it_raises(d, alpha):
    # gcd(a, b) = 1, so the roots of the raised numerator and denominator,
    # the order the power used to take, give the same answer
    a, b = alpha.numerator, alpha.denominator
    roots = [exact_int_root(n ** abs(a), b)
             for n in (d.numerator, d.denominator)]
    expected = (None if None in roots
                else Fraction(*roots) ** (1 if a >= 0 else -1))
    assert exact_rational_pow(d, alpha) == expected


def test_rational_pow_of_a_deep_root_stays_small():
    # the 10^8-th root of 3 is inexact: refused before any power of 3 is
    # formed, and evaluated as the PRECISION_BITS float
    mpmath = pytest.importorskip("mpmath")
    alpha = Fraction(1, 10 ** 8)
    with mpmath.workprec(PRECISION_BITS):
        expected = float(mpmath.mpf(3) ** (mpmath.mpf(1) / 10 ** 8))
    rational_pow(Fraction(3), Fraction(1, 3))  # load what the float path loads
    tracemalloc.start()
    try:
        got = rational_pow(Fraction(3), alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected and type(got) is float
    assert peak < 2 ** 20
