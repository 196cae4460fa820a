"""The one decision rule, at its boundary, through every caller; and the
one exact-or-float rule of powers and sums.

`violation` decides an inequality value >= 0 three ways: proven
violated, proven holding, or undecided. An exact value is always
decided; a float is decided only once its radius cannot change the
answer, so the floats here sit on the radius and one ulp either side of
it, checked against the exact value the float and radius stand for. The
values that the float rule leaves undecided are settled exactly, as 0,
or as an interval (`settle`), each gap checked against a 320-bit re-sum,
and each averaged comparison at a tie and just past one.

A power or a sum of rationals stays a Fraction wherever the result is
rational (a power within its size bound); anything else is a float. The
power tests keep the names of the rules `power` replaced (`dpow`,
`rational_pow`, `exact_rational_pow`), so their ids stay stable.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from oracles import mpmath_certify_violation
from roundlab.cyclic import (CycleSpace, DoubleSimplex, ProductCycleSpace,
                             SimplexClass)
from roundlab.exact import exact_int_root, exact_sum, intervals, power, settle
from roundlab.numerics import PRECISION_BITS, gap_radius, violation
from roundlab.obstruction import IdentityMap, verify_step_inequality
from roundlab.roundness import DistanceIndex, GapResult, certify_violation


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 1000.0, 2.0 ** 40])
def test_is_violation_float_boundary(scale):
    # a float gap v with radius r stands for every real in [v - r, v + r]:
    # it is decided exactly when that whole interval lies on one side of
    # 0. r is the radius of a gap whose sums add up to `scale`, and the
    # floats sit on -r and r and one ulp either side of each
    for r in (gap_radius(1.5, 4) * scale, 2.0 ** -1074):
        for c in (-r, r):
            for v in (math.nextafter(c, -math.inf), c,
                      math.nextafter(c, math.inf)):
                lo = Fraction(v) - Fraction(r)
                hi = Fraction(v) + Fraction(r)
                expected = True if hi < 0 else False if lo >= 0 else None
                assert violation(v, r) is expected, (v, r)


def test_is_violation_exact_gaps_compare_with_zero():
    tiny = Fraction(1, 10 ** 400)
    assert violation(-tiny) is True
    assert violation(tiny) is False
    # an exact value is decided outright, whatever radius comes with it
    assert violation(-tiny, 1.0) is True
    assert violation(Fraction(0)) is False and violation(0) is False
    assert violation(-1) is True


def test_is_violation_keeps_mpmath_precision():
    iv = intervals(2 * PRECISION_BITS)
    eps = iv.mpf(2) ** -150
    assert violation(iv.mpf([-1, -eps])) is True
    assert violation(iv.mpf([0, 1])) is False
    assert violation(iv.mpf([-eps, eps])) is None
    # 1/3 - 1/3 encloses 0 with a radius of its roundings
    third = iv.mpf(1) / 3
    assert violation(third - third) is None
    assert violation(third - iv.mpf(1) / 4) is False


def test_gap_result_boundary():
    for gap, radius in ((-1e-15, 2e-15), (-3e-15, 2e-15), (3e-15, 2e-15)):
        expected = violation(gap, radius)
        assert GapResult(1.5, -gap, 0.0, False, radius).is_violation() \
            is expected
    assert GapResult(2, Fraction(1), Fraction(1, 3), True, 0).is_violation()


@pytest.mark.parametrize("eps", [1e-15, 1e-13, 1e-12, 1e-11])
def test_step_just_past_its_root_fails(eps):
    # the identity on (Z_8)^8 meets the r = 4 step with equality at
    # p = log2(4/3): conn d^p = 1 against 3/4 (2d)^p. Just past it the
    # margin, about -0.69 eps, is negative however small, and the step
    # fails whether the float radius or the settlement decides it
    emap = IdentityMap(ProductCycleSpace(8, CycleSpace(8)))
    rep = verify_step_inequality(emap, SimplexClass(1, 2, 4),
                                 math.log2(4 / 3) + eps)
    assert -0.8 * eps < rep.margin < -0.6 * eps
    assert rep.holds is False


def test_step_exact_tie_holds():
    # at r = 2 and p = 1 the identity's margin d - (2d) / 2 is exactly 0:
    # inside any float radius, and settled exactly as holding
    emap = IdentityMap(ProductCycleSpace(8, CycleSpace(8)))
    rep = verify_step_inequality(emap, SimplexClass(1, 2, 2), 1.0)
    assert rep.margin == 0.0 and rep.holds is True


def test_settle_decides_rationals_exactly():
    # 1/3 + 1/6 - 1/2 is 0 in Fractions, and a float converts exactly:
    # 0.1 - 1/10 is the float's excess over a tenth, about 5.6e-18
    lifts = []

    def value(lift):
        lifts.append(lift)
        return lift(Fraction(1, 3)) + lift(Fraction(1, 6)) - lift(0.5)

    assert settle(value, "tie") is False and lifts == [Fraction]
    assert settle(lambda lift: lift(Fraction(1, 10)) - lift(0.1),
                  "tenth") is True


def test_settle_decides_irrationals_on_intervals():
    # sqrt(2) - 1.4142135623730951 (the float nearest it) is about
    # -9.7e-17: irrational, decided on 160-bit intervals
    lifts = []

    def value(lift):
        lifts.append(lift)
        return power(lift(2), 0.5) - lift(math.sqrt(2))

    assert settle(value, "root") is True
    assert lifts[0] is Fraction and len(lifts) == 2
    assert settle(lambda lift: lift(math.sqrt(2)) - power(lift(2), 0.5),
                  "root") is False


def test_settle_raises_on_an_irrational_tie():
    # 2^(1/2) - 4^(1/4) is 0, but two enclosures of it straddle 0
    with pytest.raises(ArithmeticError,
                       match=r"^gap of the roots undecided at 160 bits$"):
        settle(lambda lift: power(lift(2), 0.5) - power(lift(4), 0.25),
               "gap of the roots")


def test_dpow_keeps_huge_exact_powers_out_of_settle():
    # (2/3)^(10^15) would take 6e14 bits exactly: power gives the float
    # 0.0 and (3/2)^(10^15) the float inf, so settle decides on intervals
    assert power(Fraction(2, 3), 10 ** 15) == 0.0
    assert power(Fraction(2, 3), 4) == Fraction(16, 81)
    assert power(Fraction(3, 2), 1e15) == power(1.5, 1e15) == math.inf
    assert settle(lambda lift: power(lift(Fraction(1, 2)), 1e15)
                  - power(lift(Fraction(1, 3)), 1e15), "halves") is False
    assert settle(lambda lift: power(lift(Fraction(3, 2)), 1e15)
                  - power(lift(2), 1e15), "growth") is True
    # 2^(10^5) is exact and 4^(10^5) past the bound, and Python rounds the
    # exact one to a float to subtract: settled on intervals all the same
    assert settle(lambda lift: power(lift(2), 10 ** 5)
                  - power(lift(4), 10 ** 5), "mixed") is True


def test_power_bounds_an_exact_power_before_taking_it():
    # (3/4)^(10^7) would take 2e7 bits: the bound refuses it before any
    # power is formed, and the PRECISION_BITS value underflows to 0.0
    got = power(Fraction(3, 4), Fraction(10 ** 7))
    assert got == 0.0 and type(got) is float
    # at the bound itself the power is exact: 2 bits times 2^17
    assert power(Fraction(3), 2 ** 17) == 3 ** 2 ** 17


def test_power_reads_the_exponent_exactly():
    # 1 + 10^-17 rounds to the float 1.0, but as a Fraction it is not an
    # integer: (3/4)^p is irrational, a float, and settles below 3/4
    p = 1 + Fraction(1, 10 ** 17)
    got = power(Fraction(3, 4), p)
    assert type(got) is float and got == 0.75
    assert settle(lambda lift: power(lift(Fraction(3, 4)), p)
                  - lift(Fraction(3, 4)), "just past 1") is True
    # a float exponent is read exactly too: 1.5 is 3/2
    assert power(Fraction(9, 4), 1.5) == Fraction(27, 8)
    assert power(Fraction(9, 4), 0) == 1 and power(Fraction(0), 0) == 0
    assert type(power(Fraction(0), 3)) is Fraction


class _ListedPairs:
    """The double simplex (0, 1, 2; 3, 4, 5) with its 6 within and 9
    cross distances given in that order, each the same both ways."""

    ds = DoubleSimplex((0, 1, 2), (3, 4, 5))

    def __init__(self, dists):
        r, pairs = 3, []
        for fam in (self.ds.xs, self.ds.ys):
            pairs += [(fam[i], fam[j]) for i in range(r)
                      for j in range(i + 1, r)]
        pairs += [(x, y) for x in self.ds.xs for y in self.ds.ys]
        self.dist = dict(zip(pairs, dists, strict=True))

    def distance(self, a, b):
        return self.dist[a, b] if (a, b) in self.dist else self.dist[b, a]


@pytest.mark.parametrize("seed", range(4))
def test_float_gap_radius_bounds_the_error(seed):
    # fsum'd float powers of scaled distances: the exact gap of the same
    # rationals, summed in mpmath at 320 bits, lies within the radius;
    # near-cancelling gaps put the error at its largest relative to 0
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(seed)
    for _ in range(200):
        dists = [Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 3))
                 for _ in range(15)]
        p = rng.choice([0.5, 1.0, 1.5, math.pi, 7.25, 16.0, 200.0])
        space = _ListedPairs(dists)
        gap, radius, _, _ = DistanceIndex(space, space.ds).gap(p)
        top = max(dists) or 1
        with mpmath.workprec(320):
            exact = [mpmath.mpf(0) if d == 0 else
                     (mpmath.mpf(d.numerator) / d.denominator
                      / (mpmath.mpf(top.numerator) / top.denominator)) ** p
                     for d in dists]
            true_gap = mpmath.fsum(exact[6:]) - mpmath.fsum(exact[:6])
            assert abs(true_gap - gap) <= radius


def test_gap_radius_grows_with_p_and_gives_up_past_resolution():
    assert 0 < gap_radius(0, 1) < gap_radius(16, 1) < gap_radius(16, 4)
    assert gap_radius(16, 4) < 1e-14
    assert gap_radius(2.0 ** 60, 1) == math.inf


class _TwoFamilySpace:
    """Points 0, 1 (X) and 2, 3 (Y): d(0, 1) = 1, d(2, 3) = b and
    d(0, 2) = 1, every other distance 0, so the gap of (0, 1; 2, 3) is
    1 - 1 - b^p = -b^p at every p. The floats of 1 + b^p and 1 agree
    for small b, so the float rule leaves the gap undecided."""

    def __init__(self, b):
        self.b = b

    def distance(self, a, c):
        pair = {a, c}
        if pair in ({0, 1}, {0, 2}):
            return Fraction(1)
        return self.b if pair == {2, 3} else Fraction(0)


def test_certify_violation_matches_mpmath_reference_on_the_boundary():
    # gaps the float rule leaves undecided, settled as the 320-bit re-sum
    # says: integer p on rationals exactly; b = 0, the same nonzero
    # distances on both sides, as a gap of 0; any other as an interval at
    # 160 bits
    ds = DoubleSimplex((0, 1), (2, 3))
    for b in (Fraction(0), Fraction(1, 10 ** 17), 1e-17, Fraction(1, 3)):
        space = _TwoFamilySpace(b)
        for p in (1, 2.0, 1.5, 0.25):
            assert certify_violation(space, ds, p) is (b != 0)
            assert mpmath_certify_violation(space, ds, p) is (b != 0)


class _OneDistanceSpace:
    """Four points where d(0, 1) = within and every other distance is
    0.0: for the double simplex (0, 1; 2, 3) at p the gap is -within^p."""

    def __init__(self, within: float):
        self.within = within

    def distance(self, a, b):
        return self.within if {a, b} == {0, 1} else 0.0


def test_certify_violation_mpmath_boundary():
    # the distances are powered over their largest, so neither a subnormal
    # nor a huge distance leaves the float range
    ds = DoubleSimplex((0, 1), (2, 3))
    for within in (5e-324, 1e-300, 1e-12, 1.0, 1e300, 0.0):
        space = _OneDistanceSpace(within)
        for p in (1, 1.0, 1.5, 200):
            assert certify_violation(space, ds, p) is (within > 0)
            assert mpmath_certify_violation(space, ds, p) is (within > 0)


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
    got = power(d, alpha)
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


def test_exact_int_root_past_the_float_range():
    # no float seed: x may have any number of bits
    assert exact_int_root(3 ** 3000, 3) == 3 ** 1000
    assert exact_int_root(3 ** 3000 + 1, 3) is None
    assert exact_int_root(7 ** 2000, 400) == 7 ** 5
    for k in (2, 3, 5, 16):
        for r in (2, 3, 10 ** 40 + 7, 2 ** 600 - 1):
            assert exact_int_root(r ** k, k) == r
            assert exact_int_root(r ** k - 1, k) is None


@pytest.mark.parametrize("d, alpha", [
    (Fraction(8, 27), Fraction(2, 3)), (Fraction(27, 8), Fraction(-1, 3)),
    (Fraction(16), Fraction(3, 4)), (Fraction(12, 5), Fraction(5, 2)),
    (Fraction(9, 4), Fraction(0)), (Fraction(7, 3), Fraction(4)),
])
def test_exact_rational_pow_roots_before_it_raises(d, alpha):
    # gcd(a, b) = 1, so the roots of the raised numerator and denominator,
    # the order the power used to take, give the same answer: an exact
    # Fraction where they exist, else the float near it
    a, b = alpha.numerator, alpha.denominator
    roots = [exact_int_root(n ** abs(a), b)
             for n in (d.numerator, d.denominator)]
    got = power(d, alpha)
    if None in roots:
        assert type(got) is float
        assert got == pytest.approx(float(d) ** float(alpha), rel=1e-15)
    else:
        assert type(got) is Fraction
        assert got == Fraction(*roots) ** (1 if a >= 0 else -1)


def test_rational_pow_of_a_deep_root_stays_small():
    # the 10^8-th root of 3 is inexact: refused before any power of 3 is
    # formed, and evaluated as the PRECISION_BITS float
    mpmath = pytest.importorskip("mpmath")
    alpha = Fraction(1, 10 ** 8)
    with mpmath.workprec(PRECISION_BITS):
        expected = float(mpmath.mpf(3) ** (mpmath.mpf(1) / 10 ** 8))
    power(Fraction(3), Fraction(1, 3))  # load what the float path loads
    tracemalloc.start()
    try:
        got = power(Fraction(3), alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected and type(got) is float
    assert peak < 2 ** 20
