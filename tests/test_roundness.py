"""Gap evaluation, violation probes, and the roundness bisection."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from oracles import (character_quotient, dense_product_bracket,
                     mpmath_certify_violation, reference_power_matrix)
from roundlab import kernels, roundness
from roundlab.cyclic import (BudgetExceeded, CycleSpace, DoubleSimplex,
                             ProductCycleSpace, stage_space)
from roundlab.metric import FiniteMetricSpace, snowflake
from roundlab.roundness import (certify_violation, distance_power_matrix,
                                estimate_roundness,
                                exhaustive_config_count,
                                find_violation_characters,
                                find_violation_exhaustive, simplex_gap)
from roundlab.spaces import (cycle_graph_space, equilateral_space,
                             planar_points_space, random_rational_metric_space)

C4 = cycle_graph_space(4)
DIAG = DoubleSimplex((0, 2), (1, 3))


def test_simplex_gap_exact_integer_p():
    g = simplex_gap(C4, DIAG, 2)
    # lhs = 2^2 + 2^2, rhs = 4 * 1^2
    assert g.exact
    assert g.lhs == Fraction(8)
    assert g.rhs == Fraction(4)
    assert g.gap == Fraction(-4)
    assert g.is_violation()


def test_simplex_gap_p1_balances():
    g = simplex_gap(C4, DIAG, 1)
    assert g.exact
    assert g.gap == 0
    assert not g.is_violation()


def test_simplex_gap_float_path():
    g = simplex_gap(C4, DIAG, 1.5)
    assert not g.exact
    assert g.gap == pytest.approx(4 - 2 * 2 ** 1.5)
    assert g.is_violation()


def test_zero_power_convention():
    # 0^0 = 0 so repeated points do not contribute at p = 0
    ds = DoubleSimplex((0, 0), (1, 3))
    g = simplex_gap(C4, ds, 0)
    assert g.lhs == 1  # only d(1,3)^0 counts on the lhs
    assert g.rhs == 4


def test_certify_violation_paths():
    assert certify_violation(C4, DIAG, 2)
    assert not certify_violation(C4, DIAG, 1)
    assert certify_violation(C4, DIAG, 1.5)
    assert not certify_violation(C4, DIAG, 0.5)


@pytest.mark.parametrize("n, seed, max_size", [
    (6, 3, 3), (8, 2, 3), (10, 1, 4), (20, 0, 3),
], ids=["r6", "r8", "r10-size4", "r20"])
def test_decimal_certifier_matches_mpmath_reference(n, seed, max_size,
                                                    monkeypatch):
    # every witness the bisection certifies, re-tested at every fractional
    # probe of the run, where the distances are rational and the sums
    # inexact: both certifiers give one verdict
    space = random_rational_metric_space(n, seed)
    witnesses = []

    def collect(space, ds, p):
        witnesses.append(ds)
        return certify_violation(space, ds, p)

    monkeypatch.setattr(roundness, "certify_violation", collect)
    est = estimate_roundness(space, max_size=max_size)
    ps = [probe["p"] for probe in est.probes if probe["p"] != int(probe["p"])]
    assert witnesses and ps
    verdicts = []
    for ds in witnesses:
        for p in ps:
            verdict = certify_violation(space, ds, p)
            assert verdict is mpmath_certify_violation(space, ds, p), (ds, p)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_exhaustive_config_count():
    # sizes 2..3 on 4 points: 55 + 210
    assert exhaustive_config_count(4, 3) == 265


def test_find_violation_exhaustive():
    assert find_violation_exhaustive(C4, 3, 1.2) is not None
    assert find_violation_exhaustive(C4, 3, 1.0) is None
    with pytest.raises(BudgetExceeded) as exc:
        find_violation_exhaustive(C4, 3, 1.2, budget=10)
    assert exc.value.required == 265


@pytest.mark.parametrize("space", [
    C4, cycle_graph_space(5), random_rational_metric_space(8, 2),
    random_rational_metric_space(20, 0),
], ids=["c4", "c5", "r8", "r20"])
def test_zero_probe_scans_nothing(space, monkeypatch):
    # off the diagonal D^0 is all ones, so no gap is negative at p = 0
    scan = kernels.min_gap_scan
    assert scan(distance_power_matrix(space, 0.0), 3, 1e-12)[0] is None
    calls = []

    def spy(dp, max_size, rel_tol):
        calls.append(dp)
        return scan(dp, max_size, rel_tol)

    # the probe calls the scan through the kernels module
    monkeypatch.setattr(kernels, "min_gap_scan", spy)
    assert find_violation_exhaustive(space, 3, 0.0) is None
    assert calls == []
    est = estimate_roundness(space, max_size=3)
    assert est.probes[0] == {"p": 0.0, "violation": False}
    assert len(calls) == len(est.probes) - 1
    # the budget is still checked before the probe returns
    with pytest.raises(BudgetExceeded):
        find_violation_exhaustive(space, 3, 0.0, budget=10)


def test_zero_probe_scans_a_space_with_zero_distances():
    # d(a, b) = d(b, c) = 0 and d(a, c) = 1: X = {a, c}, Y = {b, b} has
    # gap 0 - 1 at p = 0
    space = FiniteMetricSpace.unchecked([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    assert simplex_gap(space, DoubleSimplex((0, 2), (1, 1)), 0).gap == -1
    ds = find_violation_exhaustive(space, 3, 0.0)
    assert ds is not None and certify_violation(space, ds, 0.0)
    est = estimate_roundness(space, max_size=3)
    assert est.flags == ["violation at p=0"]
    assert (est.lower, est.upper, est.witness_p) == (0.0, 0.0, 0.0)


def _asymmetric_unchecked(n, seed):
    """Unaudited rationals: about half the mirror entries differ, some
    entries and a diagonal are nonzero where a metric has 0, one is 0."""
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(0, 9), rng.randint(1, 4))
             for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                rows[i][j] = rows[j][i]
    rows[1][2] = Fraction(0)
    return FiniteMetricSpace.unchecked(rows)


class _MixedTypes:
    """Three points. One distance is the Fraction 1/3 one way and its float
    the other, which are unequal; the others are 1/2 as a Fraction and a
    float, and 3 as a Fraction and an int, equal in value but not in type.
    Each of the three mirror entries gets its own power."""

    size = 3
    _dist = ((0, Fraction(1, 3), Fraction(1, 2)),
             (1 / 3, 0, Fraction(3)),
             (0.5, 3, 0))

    def distance(self, a, b):
        return self._dist[a][b]


POWER_SPACES = {
    "checked": lambda: random_rational_metric_space(9, 3),
    "asymmetric": lambda: _asymmetric_unchecked(7, 5),
    "planar-floats": lambda: planar_points_space(6, 2),
    "mixed-types": _MixedTypes,
}


@pytest.mark.parametrize("p", [0, 0.5, 1, 2, 16])
@pytest.mark.parametrize("make", POWER_SPACES.values(), ids=POWER_SPACES)
def test_power_matrix_matches_one_dpow_per_ordered_pair(make, p):
    space = make()
    assert (repr(distance_power_matrix(space, p))
            == repr(reference_power_matrix(space, p)))


@pytest.mark.parametrize("make, extra", [
    (lambda: random_rational_metric_space(20, 0), 0),
    (lambda: _asymmetric_unchecked(7, 5), None),
    (_MixedTypes, 3),
], ids=["r20", "asymmetric", "mixed-types"])
def test_power_matrix_takes_one_dpow_per_unordered_pair(make, extra,
                                                        monkeypatch):
    space = make()
    n = space.size
    if extra is None:
        extra = sum(space.distance(i, j) != space.distance(j, i)
                    for i in range(n) for j in range(i))
        assert 0 < extra < n * (n - 1) // 2
    calls, dpow = [], roundness.dpow

    def counting_dpow(d, p):
        calls.append(d)
        return dpow(d, p)

    monkeypatch.setattr(roundness, "dpow", counting_dpow)
    distance_power_matrix(space, 1.5)
    # n diagonal entries, one per unordered pair, one more per mirror
    # entry that differs
    assert len(calls) == n * (n + 1) // 2 + extra


def test_monotonicity_of_violations():
    # no violation at p1 implies none below: probed on a grid
    spaces = [C4, cycle_graph_space(5), random_rational_metric_space(6, 3),
              equilateral_space(5)]
    for space in spaces:
        ps = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
        hits = [find_violation_exhaustive(space, 3, p) is not None for p in ps]
        # once a violation appears it persists for larger p
        first = hits.index(True) if True in hits else len(hits)
        assert all(hits[first:]), (space.labels, hits)


def test_estimate_c4_brackets_one():
    est = estimate_roundness(C4, max_size=3, p_tolerance=1e-3)
    assert est.certified
    assert est.lower <= 1.0 <= est.upper
    assert est.upper - est.lower <= 1e-3
    assert est.witness is not None
    assert sorted(est.witness.xs + est.witness.ys) == [0, 1, 2, 3]
    assert certify_violation(C4, est.witness, est.witness_p)


def test_estimate_snowflake_doubles():
    half = snowflake(C4, Fraction(1, 2))
    est = estimate_roundness(half, max_size=3, p_tolerance=1e-3)
    assert est.lower <= 2.0 <= est.upper
    assert est.upper - est.lower <= 1e-3


def test_estimate_equilateral_unbounded():
    est = estimate_roundness(equilateral_space(5), max_size=3)
    assert math.isinf(est.upper)
    assert est.lower == est.p_cap
    assert "no violation up to p_cap" in est.flags
    assert est.to_dict()["unbounded"] is True
    assert est.to_dict()["upper"] is None


def test_planar_points_clean_at_two():
    space = planar_points_space(7, seed=11)
    assert find_violation_exhaustive(space, 3, 2.0) is None


def test_estimate_budget_partial_results():
    est = estimate_roundness(C4, max_size=3, budget=10)
    assert not est.certified
    assert any("budget exhausted" in f for f in est.flags)


def test_search_finds_planted_violation():
    # (Z_16)^2 violates at p = 3: the character the probe names must have
    # a positive eigenvalue in the dense matrix, and a budget one character
    # short is refused before any is built
    space = ProductCycleSpace(2, CycleSpace(16))
    with pytest.raises(BudgetExceeded) as exc:
        find_violation_characters(space, 3.0, budget=43)
    assert exc.value.required == 44
    xi = find_violation_characters(space, 3.0, budget=44)
    assert xi is not None
    assert character_quotient(space, xi, 3.0) > 1.0


def test_estimate_search_mode_on_product_space():
    # acceptance 11's space: the characters certify a bracket for every
    # family size, around the exact value 1.6849e-4
    space = ProductCycleSpace(6, CycleSpace(8, Fraction(1)))
    est = estimate_roundness(space, p_tolerance=1e-6)
    assert est.certified
    assert est.covers == "every double simplex"
    assert est.max_simplex_size is None
    assert est.lower <= 1.6849e-4 <= est.upper
    assert est.upper - est.lower <= 1e-6
    assert est.witness_p == est.upper
    doc = est.to_dict()
    assert doc["witness"] == {"character": list(est.witness)}
    assert doc["max_simplex_size"] is None


@pytest.mark.parametrize("units, coords",
                         [(4, 2), (8, 2), (6, 2), (4, 3), (6, 3)])
def test_character_bracket_equals_dense_spectrum(units, coords):
    space = ProductCycleSpace(coords, CycleSpace(units))
    est = estimate_roundness(space, p_tolerance=1e-3)
    assert est.certified
    assert (est.lower, est.upper) == dense_product_bracket(space, 1e-3)


@pytest.mark.parametrize("units", [4, 6, 8])
@pytest.mark.parametrize("coords", [1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_exact_zero_eigenvalues_match_dense(units, coords, p):
    # at integer p an eigenvalue can be exactly 0 (every even frequency of
    # a cycle at p = 1); those, and only those, are proven 0
    space = ProductCycleSpace(coords, CycleSpace(units))
    chars = itertools.combinations_with_replacement(range(units // 2 + 1),
                                                    coords)
    next(chars)  # the trivial character
    for xi in chars:
        vanishes = roundness._eigenvalue_vanishes(units, xi, p)
        assert vanishes == (abs(character_quotient(space, xi, p)) < 1e-9)
    assert not roundness._eigenvalue_vanishes(units, (0,) * (coords - 1)
                                              + (2,), 1.5)


def test_undecided_eigenvalue_raises(monkeypatch):
    # at 8 bits the eigenvalue near the root of (Z_4)^2 straddles 0, and a
    # fractional p cannot be decided exactly
    monkeypatch.setattr(roundness, "PRECISION_BITS", 8)
    with pytest.raises(ArithmeticError, match="undecided"):
        find_violation_characters(ProductCycleSpace(2, CycleSpace(4)),
                                  math.log2(4 / 3))


def test_z4_products_closed_form():
    # roundness of (Z_4)^c is log2(1 + 3^(1-c)), which falls to 2e-14 at
    # c = 30: the probe is clean just below it and violates just above
    for c in range(1, 31):
        space = ProductCycleSpace(c, CycleSpace(4))
        q = math.log1p(3.0 ** (1 - c)) / math.log(2)
        assert find_violation_characters(space, q * (1 - 1e-6)) is None
        assert find_violation_characters(space, q * (1 + 1e-6)) is not None


def test_character_bracket_below_listed_scan():
    # the scan covers families of at most 3 points, the characters all
    product = ProductCycleSpace(2, CycleSpace(4))
    points = list(product.iter_points())
    listed = FiniteMetricSpace.from_rows(
        [[product.distance(x, y) for y in points] for x in points])
    chars = estimate_roundness(product)
    scan = estimate_roundness(listed, max_size=3)
    assert chars.certified and scan.certified
    assert chars.lower <= scan.lower and chars.upper <= scan.upper


def test_product_roundness_falls_with_coordinates():
    # the paper's mechanism: the sup-metric blocks (Z_u)^c lose roundness
    # as c grows, and the stage-2 block (Z_16)^4 lies below 1e-3
    for units, top in ((4, 6), (8, 6), (16, 4)):
        ests = [estimate_roundness(ProductCycleSpace(c, CycleSpace(units)),
                                   p_tolerance=1e-6)
                for c in range(1, top + 1)]
        assert all(e.certified for e in ests)
        assert all(b.upper < a.lower for a, b in zip(ests, ests[1:]))
    stage = estimate_roundness(stage_space(2), p_tolerance=1e-7)
    assert stage.certified
    assert stage.upper < 1e-3
    assert stage.upper - stage.lower <= 1e-7


@pytest.mark.parametrize("kwargs", [
    {"p_tolerance": 0.0}, {"p_tolerance": -1e-3}, {"p_tolerance": math.nan},
    {"p_tolerance": math.inf}, {"p_cap": math.inf}, {"p_cap": -1.0},
    {"p_cap": 0.0}, {"p_cap": math.nan},
])
def test_estimate_rejects_bad_tolerance_and_cap(kwargs):
    # a zero tolerance would bisect forever; an infinite cap would report
    # lower=inf as certified, a negative one lower=-1
    with pytest.raises(ValueError, match="finite and positive"):
        estimate_roundness(C4, max_size=2, **kwargs)


def test_estimate_tolerance_below_float_resolution_stops():
    est = estimate_roundness(C4, max_size=2, p_tolerance=1e-300)
    assert "tolerance below float resolution" in est.flags
    assert est.certified
    assert est.lower < est.upper == math.nextafter(est.lower, math.inf)
