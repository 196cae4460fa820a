"""Gap evaluation, violation hunts, and the roundness bisection."""

import math
import random
from fractions import Fraction

import pytest

from oracles import reference_power_matrix
from roundlab import roundness
from roundlab.cyclic import (BudgetExceeded, CycleSpace, DoubleSimplex,
                             ProductCycleSpace)
from roundlab.metric import FiniteMetricSpace, snowflake
from roundlab.roundness import (certify_violation, distance_power_matrix,
                                estimate_roundness,
                                exhaustive_config_count,
                                find_violation_exhaustive,
                                find_violation_search, simplex_gap)
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


def test_exhaustive_config_count():
    # sizes 2..3 on 4 points: 55 + 210
    assert exhaustive_config_count(4, 3) == 265


def test_find_violation_exhaustive():
    assert find_violation_exhaustive(C4, 3, 1.2) is not None
    assert find_violation_exhaustive(C4, 3, 1.0) is None
    with pytest.raises(BudgetExceeded) as exc:
        find_violation_exhaustive(C4, 3, 1.2, budget=10)
    assert exc.value.required == 265


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
    # diagonal configurations violate above p=1 in any even cycle product
    space = ProductCycleSpace(16, CycleSpace(16, Fraction(1)))
    ds = find_violation_search(
        space, 2, 3.0, budget=100_000, seed=5)
    assert ds is not None
    assert certify_violation(space, ds, 3.0)


def test_search_warm_start_reuses_witness():
    from roundlab.cyclic import SimplexClass, build_simplex
    space = ProductCycleSpace(16, CycleSpace(16, Fraction(1)))
    planted = build_simplex(space, SimplexClass(1, 2, 2))
    assert certify_violation(space, planted, 2.0)
    # a warm start that already violates is returned before any local move
    ds = find_violation_search(space, 2, 2.0, budget=50, seed=0,
                               initial=(planted,))
    assert ds == planted


def test_estimate_search_mode_on_product_space():
    space = ProductCycleSpace(6, CycleSpace(8, Fraction(1)))
    est = estimate_roundness(space, max_size=2, mode="search",
                             budget=30_000, seed=2, p_tolerance=0.05,
                             p_cap=8.0)
    assert not est.certified  # search can never certify the lower end
    assert est.upper <= 8.0
    assert est.witness is not None
    assert certify_violation(space, est.witness, est.witness_p)
    # sup-metric products violate somewhere above 1
    assert 1.0 <= est.upper


def test_estimate_rejects_bad_mode():
    with pytest.raises(ValueError):
        estimate_roundness(C4, mode="annealing")


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
