"""The one violation rule, at its boundary, through every caller.

An inexact gap violates only strictly below -REL_TOL * max(scale, 1);
exact gaps compare against zero. The float gaps here sit on that
threshold and one ulp either side of it, where any second copy of the
rule that drifted (a strict/non-strict flip, a missing floor at 1, a
scale rounded through float) would answer differently.
"""

import math
from fractions import Fraction

import pytest

from oracles import mpmath_certify_violation
from roundlab.cyclic import DoubleSimplex
from roundlab.numerics import REL_TOL, is_violation
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
