"""Gap evaluation, violation probes, and the witness-driven roundness
bracket."""

import gc
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from oracles import (character_quotient, dense_top_eigenvalue,
                     interval_character_eigenvalue, mpmath_certify_violation,
                     reference_power_matrix, spectral_value)
from roundlab import kernels, probes, roundness
from roundlab.cyclic import (BudgetExceeded, CycleSpace, DoubleSimplex,
                             ProductCycleSpace, stage_space)
from roundlab.exact import _psd_value, settle
from roundlab.metric import FiniteMetricSpace
from roundlab.moduli import snowflake
from roundlab.numerics import NORMAL_MIN
from roundlab.probes import find_violation_characters
from roundlab.roundness import (DistanceIndex, SpectralProbe, bracket,
                                certify_violation, estimate_roundness,
                                exhaustive_config_count,
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


def _crossings(space, monkeypatch):
    """(witness, crossing) for the one witness of an estimate."""
    witnesses, crossings = [], []
    test, crossing = roundness._simplex_test, roundness._crossing

    def recording_test(space, ds, hi, *index):
        witnesses.append(ds)
        return test(space, ds, hi, *index)

    def recording_crossing(violates, lo, hi):
        crossings.append(crossing(violates, lo, hi))
        return crossings[-1]

    monkeypatch.setattr(roundness, "_simplex_test", recording_test)
    monkeypatch.setattr(roundness, "_crossing", recording_crossing)
    est = estimate_roundness(space)
    monkeypatch.undo()
    return est, list(zip(witnesses, crossings, strict=True))


CERTIFIER_CASES = pytest.mark.parametrize("n, seed, max_size", [
    (6, 3, 3), (8, 2, 3), (10, 1, 4), (20, 0, 3),
], ids=["r6", "r8", "r10-size4", "r20"])


@CERTIFIER_CASES
def test_decimal_certifier_matches_mpmath_reference(n, seed, max_size,
                                                    monkeypatch):
    # every witness an estimate finds, re-tested at every fractional probe
    # of the run, at its own crossing, one ulp below it and within 1e-9
    # and 1e-10 of it, where the distances are rational and the sums
    # inexact: the certifier (once a decimal re-sum, now the float radius
    # and its interval fallback) and the 320-bit mpmath re-sum give one
    # verdict, and each witness violates at its crossing. The one
    # spectral witness holds dozens to hundreds of points a family
    # (max_size is read by the scan-witness test below)
    space = random_rational_metric_space(n, seed)
    est, found = _crossings(space, monkeypatch)
    assert found and found[-1] == (est.witness, est.upper)
    _certifier_matches_reference(space, est, found)


@CERTIFIER_CASES
def test_decimal_certifier_matches_mpmath_reference_on_scan_witnesses(
        n, seed, max_size, monkeypatch):
    # as above, on the witnesses of at most max_size points that
    # find_violation_exhaustive returns at p = 4 and 16, each with its
    # crossing above the estimate's clean lower end
    space = random_rational_metric_space(n, seed)
    est = estimate_roundness(space)
    found = []
    for p in (4.0, 16.0):
        ds = find_violation_exhaustive(space, max_size, p)
        assert ds.r <= max_size
        found.append((ds, roundness._crossing(
            roundness._simplex_test(space, ds, p), est.lower, p)))
    _certifier_matches_reference(space, est, found)


def _certifier_matches_reference(space, est, found):
    ps = [probe["p"] for probe in est.probes if probe["p"] != int(probe["p"])]
    verdicts = []
    for ds, c in found:
        assert certify_violation(space, ds, c)
        near = [c, math.nextafter(c, 0), c - 1e-9, c + 1e-9, c - 1e-10]
        for p in ps + near:
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
    # off the diagonal D^0 is all ones, so no gap is negative at p = 0;
    # a listed metric space takes the spectral probe and never scans
    scan = kernels.min_gap_scan
    index = DistanceIndex(space)
    assert scan(index.power_matrix(0.0), 3, 0.0, index.floor(0.0),
                lambda xs, ys: pytest.fail("undecided at p = 0"))[0] is None
    calls = []

    def spy(dp, max_size, p, floor, resolve):
        calls.append(dp)
        return scan(dp, max_size, p, floor, resolve)

    # the probe calls the scan through the kernels module
    monkeypatch.setattr(kernels, "min_gap_scan", spy)
    assert find_violation_exhaustive(space, 3, 0.0) is None
    assert calls == []
    est = estimate_roundness(space)
    assert est.certified and calls == []
    # no zero off the diagonal: A(0) = I + J is not probed
    assert all(probe["p"] > 0 for probe in est.probes)
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
    est = estimate_roundness(space)
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
    assert (repr(DistanceIndex(space).power_matrix(p))
            == repr(reference_power_matrix(space, p)))


@pytest.mark.parametrize("make, distinct", [
    (lambda: random_rational_metric_space(20, 0), 21),
    (lambda: _asymmetric_unchecked(7, 5), None),
    (_MixedTypes, 7),
], ids=["r20", "asymmetric", "mixed-types"])
def test_power_matrix_takes_one_dpow_per_distinct_distance(make, distinct,
                                                           monkeypatch):
    space = make()
    n = space.size
    keys = {(type(d), d) for i in range(n) for j in range(n)
            for d in [space.distance(i, j)]}
    if distinct is not None:
        assert len(keys) == distinct
    index = DistanceIndex(space)
    calls, powers = [], DistanceIndex.powers

    def counting(index, p):
        calls.append(list(index.ratios))
        return powers(index, p)

    monkeypatch.setattr(DistanceIndex, "powers", counting)
    index.power_matrix(1.5)
    # one power per distinct (type, value): 1/2 as a Fraction and as a
    # float are two, 3 as a Fraction and as an int two; each is that key
    # over the largest distance
    assert sorted(index.keys, key=repr) == sorted((d for _, d in keys),
                                                  key=repr)
    assert calls == [index.ratios] and len(calls[0]) == len(keys)


class _Table:
    """A square table of the given entries, row by row, read unaudited."""

    def __init__(self, entries):
        self.size = math.isqrt(len(entries))
        self._entries = entries

    def distance(self, a, b):
        return self._entries[a * self.size + b]


# ratios a few ulps either side of NORMAL_MIN (2^52 ulps of 2^-1074), and
# subnormal ones: exact floats, one between two, one a tie to even, and
# one a third of an ulp
EDGE_RATIOS = ([Fraction(2 ** 52 + k, 2 ** 1074) for k in range(-3, 4)]
               + [Fraction(3 * 2 ** 52 + k, 3 * 2 ** 1074) for k in (-1, 1)]
               + [Fraction(1, 2 ** 1074), Fraction(3, 2 ** 1075),
                  Fraction(5, 2 ** 1075), Fraction(1, 3 * 2 ** 1074),
                  Fraction(7, 3 * 2 ** 1060)])


def _edge_table(seed):
    """Nine entries: 1 (the largest), a zero, and seven of EDGE_RATIOS,
    signed at random."""
    rng = random.Random(seed)
    picks = [rng.choice((1, -1)) * rng.choice(EDGE_RATIOS) for _ in range(7)]
    return _Table([1, 0, *picks])


def _seeded_table(seed):
    """Sixteen seeded ints and Fractions, signed, some zero."""
    rng = random.Random(seed)
    return _Table([rng.choice((rng.randint(-9, 9),
                               Fraction(rng.randint(-99, 99),
                                        rng.randint(1, 12))))
                   for _ in range(16)])


def _mixed_table(seed):
    """Sixteen seeded floats, ints and Fractions, signed: floats of every
    magnitude, subnormal ones among them, beside small rationals."""
    rng = random.Random(seed)
    return _Table([rng.choice((rng.choice((1, -1)) * rng.uniform(0, 2)
                               * 2.0 ** rng.randint(-1074, 1000),
                               rng.randint(-9, 9),
                               Fraction(rng.randint(-99, 99),
                                        rng.randint(1, 12))))
                   for _ in range(16)])


@pytest.mark.parametrize("seed", range(40))
def test_integer_ratios_match_the_fraction_rule(seed):
    # the ratios and `low` of the ints over one denominator are
    # those of each key as a Fraction over top, with top the largest
    # magnitude or given, on rational, float and mixed tables alike
    for space, top in ((_seeded_table(seed), None), (_edge_table(seed), None),
                       (_seeded_table(seed), Fraction(7, 3)),
                       (_edge_table(seed), 1), (_mixed_table(seed), None),
                       (_mixed_table(seed), 0.75),
                       (planar_points_space(6, seed), None),
                       (_MixedTypes(), None)):
        index = DistanceIndex(space, top=top)
        scale = Fraction(top or max(map(abs, index.keys)) or 1)
        exact = [Fraction(d) / scale for d in index.keys]
        assert repr(index.ratios) == repr([float(e) for e in exact])
        assert index.low is any(0 < abs(e) < NORMAL_MIN for e in exact)


def test_integer_ratios_meet_both_sides_of_normal_min():
    # NORMAL_MIN itself is not low, one ulp under it is, as is a ratio
    # that rounds up to it
    for ratio, low in ((Fraction(2 ** 52, 2 ** 1074), False),
                       (Fraction(2 ** 52 - 1, 2 ** 1074), True),
                       (Fraction(2 ** 52 + 1, 2 ** 1074), False),
                       (Fraction(2 ** 53 - 1, 2 ** 1075), True)):
        index = DistanceIndex(_Table([0, ratio, 1, 0]))
        assert index.low is low
        assert index.ratios == [0.0, float(ratio), 1.0]
    assert float(Fraction(2 ** 53 - 1, 2 ** 1075)) == NORMAL_MIN


def test_listed_estimate_builds_each_witness_index_once(monkeypatch):
    # the witness's DistanceIndex, built where the probe proves it, serves
    # its crossing and its recertification too (it was built three times)
    built, init = Counter(), DistanceIndex.__init__

    def counting(self, space, ds=None, top=None):
        built[ds] += 1
        init(self, space, ds, top)

    monkeypatch.setattr(DistanceIndex, "__init__", counting)
    est = estimate_roundness(random_rational_metric_space(20, 0))
    assert est.certified and est.witness is not None
    assert built[None] == 1 and built[est.witness] == 1
    assert max(built.values()) == 1


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
    est = estimate_roundness(C4, p_tolerance=1e-3)
    assert est.certified
    assert est.lower <= 1.0 <= est.upper
    assert est.upper - est.lower <= 1e-3
    assert est.witness is not None
    assert sorted(est.witness.xs + est.witness.ys) == [0, 1, 2, 3]
    assert certify_violation(C4, est.witness, est.witness_p)


def _c5_roundness(bits=320):
    """log2(8/3), the roundness of the 5-cycle over families of at most 3
    points, to `bits` bits: its witness (0, 0, 2; 1, 1, 4) has gap
    8 - 3 * 2^p."""
    import mpmath

    with mpmath.workprec(bits):
        return mpmath.log(mpmath.mpf(8) / 3, 2)


def _c5_spectral_value(bits=320):
    """2 log2 of the golden ratio, the roundness of the 5-cycle: the
    circulant eigenvalue 2 cos(4 pi / 5) + 2^(p+1) cos(8 pi / 5) of D^p
    changes sign where 2^p = phi^2."""
    import mpmath

    with mpmath.workprec(bits):
        return 2 * mpmath.log((1 + mpmath.sqrt(5)) / 2, 2)


@pytest.mark.parametrize("tol", [1e-3, 1e-9, 1e-12, 1e-14,
                                 2 * math.ulp(math.log2(8 / 3))])
def test_c5_bracket_holds_its_roundness_at_every_tolerance(tol):
    # the scan's verdicts are proven, so a clean scan tol / 2 below the
    # roundness over families of at most 3 points and a witness tol / 2
    # above it, whose crossing lies between, bracket it however fine the
    # tolerance, down to the finest above float resolution
    pytest.importorskip("mpmath")
    space, value = cycle_graph_space(5), _c5_roundness()
    lower, upper = float(value) - tol / 2, float(value) + tol / 2
    assert lower < value < upper
    assert find_violation_exhaustive(space, 3, lower) is None
    ds = find_violation_exhaustive(space, 3, upper)
    crossing = roundness._crossing(roundness._simplex_test(space, ds, upper),
                                   lower, upper)
    assert lower < crossing <= upper


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-9, 1e-12, 1e-14,
                                 2 * math.ulp(1.3884838272612348)])
def test_c5_bracket_holds_its_spectral_value_at_every_tolerance(tol):
    # the lower end is proven clean at every tolerance and closes to
    # within tol / 4 of the spectral value; the upper end is a witness's
    # crossing, whose families grow as tol^(-1/2): past WITNESS_POINTS
    # (tol below about 1e-9 here) the bracket stays wider than tol and
    # says so
    pytest.importorskip("mpmath")
    value = _c5_spectral_value()
    est = estimate_roundness(cycle_graph_space(5), tol)
    assert est.certified
    assert est.lower <= value <= est.upper
    assert value - est.lower <= tol
    assert certify_violation(cycle_graph_space(5), est.witness, est.upper)
    if tol >= 1e-9:
        assert est.flags == [] and est.upper - est.lower <= tol
    else:
        assert est.flags == [f"no witness of at most "
                             f"{roundness.WITNESS_POINTS} points per family "
                             f"within p_tolerance"]
        assert est.witness.r <= roundness.WITNESS_POINTS


def test_c5_failing_cap_without_witness_keeps_its_clean_end():
    # p_cap 1e-11 above 2 log2 phi fails the factorisation, and no witness
    # of at most WITNESS_POINTS points a family violates that close: the
    # bisection's clean end is kept, with no upper end, flagged
    pytest.importorskip("mpmath")
    value = _c5_spectral_value()
    est = estimate_roundness(cycle_graph_space(5), 1e-3,
                             p_cap=1.38848382727)
    assert value < est.p_cap
    assert est.certified and est.flags == ["no witness proven up to p_cap"]
    assert value - 1e-3 / 4 <= est.lower <= value
    assert est.upper == math.inf and est.witness is est.witness_p is None
    assert est.probes[0] == {"p": est.p_cap, "violation": True}


def test_c4_bracket_holds_one_below_float_resolution():
    est = estimate_roundness(C4, 1e-20)
    assert est.certified
    assert est.flags == ["tolerance below float resolution"]
    assert est.lower <= 1.0 <= est.upper
    assert est.upper == math.nextafter(est.lower, math.inf)


def _scaled(space, factor):
    n = space.size
    return FiniteMetricSpace.from_rows(
        [[space.distance(i, j) * factor for j in range(n)]
         for i in range(n)])


@pytest.mark.parametrize("make", [lambda: equilateral_space(3), lambda: C4],
                         ids=["equilateral-3", "c4"])
def test_scaled_space_reports_its_unscaled_bracket(make):
    # powers are taken over the largest distance, so neither distance 1000
    # at p_cap 200 nor 10^-300 overflows or underflows: the gap's sign,
    # and with it the bracket, does not change under scaling
    space = make()
    est = estimate_roundness(space, p_cap=200.0)
    for factor in (1000, Fraction(1, 10 ** 300)):
        assert estimate_roundness(_scaled(space, factor),
                                  p_cap=200.0) == est


def test_estimate_snowflake_doubles():
    half = snowflake(C4, Fraction(1, 2))
    est = estimate_roundness(half, p_tolerance=1e-3)
    assert est.lower <= 2.0 <= est.upper
    assert est.upper - est.lower <= 1e-3


def test_estimate_equilateral_unbounded():
    est = estimate_roundness(equilateral_space(5))
    assert math.isinf(est.upper)
    assert est.lower == est.p_cap
    assert "no violation up to p_cap" in est.flags
    assert est.to_dict()["unbounded"] is True
    assert est.to_dict()["upper"] is None


def test_planar_points_clean_at_two():
    space = planar_points_space(7, seed=11)
    assert find_violation_exhaustive(space, 3, 2.0) is None


def test_estimate_budget_partial_results():
    # one factorisation of the 4-cycle's A(p) takes 4 multiply-adds
    est = estimate_roundness(C4, budget=3)
    assert not est.certified
    assert any("budget exhausted" in f for f in est.flags)


@pytest.mark.parametrize("n, work", [(4, 4), (20, 1140), (64, 41664)])
def test_spectral_budget_counts_one_factorisation(n, work, monkeypatch):
    # (m - 1) m (m + 1) / 6 multiply-adds for m = n - 1: one short is
    # refused before any power is taken
    space = C4 if n == 4 else random_rational_metric_space(n, 0)
    monkeypatch.setattr(DistanceIndex, "powers", None)
    est = estimate_roundness(space, budget=work - 1)
    assert not est.certified and est.probes == []
    assert est.flags == [f"budget exhausted: factorisation needs {work} "
                         f"multiply-adds"]
    monkeypatch.undo()
    if n < 64:
        assert estimate_roundness(space, budget=work).certified


@pytest.mark.parametrize("make", [
    lambda: stage_space(4),
    # 43,757 characters, over the 25,000 the default allows at 16 units
    lambda: ProductCycleSpace(10, CycleSpace(16)),
], ids=["stage-4", "Z16^10"])
def test_large_product_refused_at_once_without_budget(make):
    # stage 3 has 729 units per cycle, which CycleSpace refuses as odd
    start = time.perf_counter()
    est = estimate_roundness(make())
    assert time.perf_counter() - start < 1.0
    assert not est.certified and est.probes == []
    assert len(est.flags) == 1
    assert est.flags[0].startswith("budget exhausted: character probe needs")


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
    table = probes.character_table(space)
    assert find_violation_characters(space, 3.0, table=table) == xi


def test_estimate_builds_one_character_table(monkeypatch):
    space = ProductCycleSpace(2, CycleSpace(16))
    built, build = [], probes.character_table

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(probes, "character_table", counted)
    est = estimate_roundness(space, p_tolerance=1e-2)
    # the default budget: TABLE_INTERVALS over units/2 intervals a row
    assert len(est.probes) > 2
    assert built == [(space, probes.TABLE_INTERVALS // 8)]
    # over budget: refused before any interval is computed, with the flag
    # the probe used to raise
    built.clear()
    monkeypatch.setattr(probes, "intervals", None)
    est = estimate_roundness(space, budget=43)
    assert built == [(space, 43)]
    assert est.probes == [] and not est.certified
    assert est.flags == ["budget exhausted: character probe needs 44 "
                         "characters"]


def test_estimate_keeps_no_character_table():
    # the table of (Z_16)^6 holds 24,016 intervals, about 10 MiB; once the
    # estimate returns none of it may stay reachable
    space = ProductCycleSpace(6, CycleSpace(16))
    estimate_roundness(ProductCycleSpace(2, CycleSpace(4)))  # load mpmath
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        est = estimate_roundness(space, p_tolerance=0.5, p_cap=1.0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the witness at p_cap sets the upper end at its crossing, below
    # p_tolerance, so no probe follows the one at p_cap
    assert est.certified and est.lower == 0.0 and 0 < est.upper < 0.5
    assert [probe["p"] for probe in est.probes] == [0.0, 1.0]
    assert retained < 2 ** 20


def test_estimate_search_mode_on_product_space():
    # acceptance 11's space: the characters certify a bracket for every
    # family size, around the exact value 1.6849e-4
    space = ProductCycleSpace(6, CycleSpace(8, Fraction(1)))
    est = estimate_roundness(space, p_tolerance=1e-6)
    assert est.certified
    assert est.lower <= 1.6849e-4 <= est.upper
    assert est.upper - est.lower <= 1e-6
    assert est.witness_p == est.upper
    doc = est.to_dict()
    assert doc["witness"] == {"character": list(est.witness)}
    assert "max_simplex_size" not in doc


@pytest.mark.parametrize("units, coords",
                         [(4, 2), (8, 2), (6, 2), (4, 3), (6, 3)])
def test_character_bracket_equals_dense_spectrum(units, coords):
    # both ends against the dense matrix [d(x, y)^p]: at lower no
    # eigenvalue on the sum-zero vectors exceeds 1e-9 times its largest
    # entry, and at upper the witness character's eigenvalue, summed over
    # every point in intervals, is positive
    space = ProductCycleSpace(coords, CycleSpace(units))
    est = estimate_roundness(space, p_tolerance=1e-3)
    assert est.certified and est.upper - est.lower <= 1e-3
    assert est.witness_p == est.upper
    top, largest = dense_top_eigenvalue(space, est.lower)
    assert top <= 1e-9 * largest
    assert interval_character_eigenvalue(space, est.witness, est.upper).a > 0
    assert interval_character_eigenvalue(space, est.witness, est.lower).a <= 0


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
        vanishes = probes._eigenvalue_vanishes(units, xi, p)
        assert vanishes == (abs(character_quotient(space, xi, p)) < 1e-9)
    assert not probes._eigenvalue_vanishes(units, (0,) * (coords - 1)
                                              + (2,), 1.5)


def test_undecided_eigenvalue_raises(monkeypatch):
    # at 8 bits the eigenvalue near the root of (Z_4)^2 straddles 0, and a
    # fractional p cannot be decided exactly
    monkeypatch.setattr(probes, "PRECISION_BITS", 8)
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
    # the scan covers families of at most 3 points, the characters all, so
    # the scan is clean at their lower end; listed, the product takes the
    # spectral probe, which covers all too, so the two brackets hold its
    # one spectral value
    product = ProductCycleSpace(2, CycleSpace(4))
    points = list(itertools.product(range(product.units),
                                    repeat=product.coords))
    listed = FiniteMetricSpace.from_rows(
        [[product.distance(x, y) for y in points] for x in points])
    chars = estimate_roundness(product)
    spectral = estimate_roundness(listed)
    assert chars.certified and spectral.certified
    # log2(1 + 3^(1 - c)) at c = 2, where A(p) turns singular, so the
    # float oracle of the listed space is good only to a few ulps
    assert abs(spectral_value(listed) - math.log2(4 / 3)) < 1e-12
    import mpmath

    with mpmath.workprec(320):
        value = mpmath.log(mpmath.mpf(4) / 3, 2)
        for est in (chars, spectral):
            assert est.lower <= value <= est.upper
    assert find_violation_exhaustive(listed, 3, chars.lower) is None


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


PRODUCT_SPACES = {
    "stage-2": lambda: stage_space(2),
    "Z4^3": lambda: ProductCycleSpace(3, CycleSpace(4)),
    "Z8^4": lambda: ProductCycleSpace(4, CycleSpace(8)),
    "Z8^10": lambda: ProductCycleSpace(10, CycleSpace(8)),
    "Z4^30": lambda: ProductCycleSpace(30, CycleSpace(4)),
}


@pytest.mark.parametrize("name, kwargs, sha256", [
    ("stage-2", {"p_tolerance": 1e-3},
     "87d488768a5ce5d3a51765cd245ce3c7e16f2afe5f80ae2449ba4239dd5ce4f0"),
    ("stage-2", {"p_tolerance": 1e-9},
     "722e049d61c2b7ae62b0486e3282fd1f357a0c8bd205fe8bee6dca5e6c50563c"),
    ("Z4^3", {"p_tolerance": 1e-3},
     "e7034672c12e51247e8ae7032c4b34720143b0f4f758bd6cde167b3d98541cf2"),
    ("Z4^3", {"p_tolerance": 1e-9},
     "0bd1da166972266d3dde8f0ae16aec23c87e8b3eee5ba090aca3ae14afac995f"),
    ("Z8^4", {"p_tolerance": 1e-3},
     "294ea4072c10d417cd074e23a927cf74d62f12c369eb5d822ce1c12e6a9cc691"),
    ("Z8^4", {"p_tolerance": 1e-9},
     "20ad118f6c88e2734889329862b310bbbdf7f014c9d1821917712c201f3a8225"),
    ("Z8^10", {"p_tolerance": 1e-3},
     "ce1d7477ce3c82b1137df35c5c446d7fa9580d5ebfbbb5612c9a3351ccc3404c"),
    ("Z8^10", {"p_tolerance": 1e-9},
     "53cb67a2d54ed8ac1d4419480232354bb0d58d93c42f0a4a9ebbc04950dd0333"),
    ("Z4^30", {"p_tolerance": 1e-3},
     "565817c8c2d4be42dcc923cd4e71db4543d3a1560300c7d54a50f2f5c0f4580e"),
    ("Z4^30", {"p_tolerance": 1e-9},
     "565817c8c2d4be42dcc923cd4e71db4543d3a1560300c7d54a50f2f5c0f4580e"),
    ("stage-2", {"budget": 1},
     "aa5a01c9206c3d21e3710ec547d45a1f917acd5c7ffa4834907b4afac4fd40b1"),
], ids=[f"{name}-{tol}" for name in PRODUCT_SPACES
        for tol in ("1e-3", "1e-9")] + ["stage-2-budget1"])
def test_product_estimates_frozen(name, kwargs, sha256):
    # no CLI body covers a cycle product, so its estimates are pinned
    # through the API, probes and flags included: the digests of the
    # sanitized records, recorded when the constant covers left them (the
    # records are otherwise those from before the character engine moved
    # onto the one bracket loop of both engines)
    import hashlib
    import json

    from roundlab.report import sanitize

    est = estimate_roundness(PRODUCT_SPACES[name](), **kwargs)
    body = json.dumps(sanitize(est), sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == sha256


class FakeProbe:
    """A probe for `bracket` whose clean set is [0, value] (empty for a
    negative value) and whose witness, where it `proves` one, crosses at
    value; each call to it is logged in `calls`."""

    def __init__(self, value, zeros=False, work=0, proves=True):
        self.value, self.zeros, self.work, self.proves = (value, zeros, work,
                                                          proves)
        self.calls = []

    def plan(self, budget):
        self.calls.append(("plan", budget))
        if budget is not None and self.work > budget:
            raise BudgetExceeded(f"fake probe needs {self.work} units",
                                 self.work)

    def clean(self, p):
        self.calls.append(("clean", p))
        return p <= self.value

    def witness(self, p):
        self.calls.append(("witness", p))
        return ("crosses at", self.value) if self.proves else None

    def narrow(self, clean, cap, tol, flags):
        # bisect to tol, then the witness's crossing is the upper end
        lower, upper = 0.0, cap
        while upper - lower > tol:
            mid = lower + (upper - lower) / 2
            if clean(mid):
                lower = mid
            else:
                upper = mid
        w = self.witness(upper)
        return (lower, math.inf, None) if w is None else (lower, self.value,
                                                          w)


def test_bracket_narrows_through_its_probe():
    # p_cap fails, so `narrow` closes the bracket and its witness
    # violates at the upper end; every clean call is listed, in order
    probe = FakeProbe(0.7)
    est = bracket(probe, 16.0, 1e-3)
    assert est.certified and est.flags == []
    assert est.lower <= 0.7 == est.upper == est.witness_p
    assert est.upper - est.lower <= 1e-3
    assert est.witness == ("crosses at", 0.7)
    assert probe.calls[:2] == [("plan", None), ("clean", 16.0)]
    assert [{"p": p, "violation": p > 0.7} for call, p in probe.calls
            if call == "clean"] == est.probes
    assert est.fields()["unbounded"] is False


def test_bracket_refuses_an_over_budget_probe_before_any_clean():
    probe = FakeProbe(0.7, zeros=True, work=10)
    est = bracket(probe, 16.0, 1e-3, budget=9)
    assert probe.calls == [("plan", 9)]
    assert not est.certified and est.probes == []
    assert est.flags == ["budget exhausted: fake probe needs 10 units"]
    assert (est.lower, est.upper, est.witness, est.witness_p) == (
        0.0, math.inf, None, None)
    assert bracket(FakeProbe(0.7, work=10), 16.0, 1e-3, budget=10).certified


@pytest.mark.parametrize("proves", [True, False])
def test_bracket_failing_at_zero_ends_there(proves):
    # a probe with `zeros` is probed at 0 first; where 0 fails, its
    # witness there ends the bracket at (0, 0), and with none proven the
    # failing probe only steered: (0, inf), flagged
    probe = FakeProbe(-1.0, zeros=True, proves=proves)
    est = bracket(probe, 16.0, 1e-3)
    assert probe.calls == [("plan", None), ("clean", 0.0), ("witness", 0.0)]
    assert est.certified and est.probes == [{"p": 0.0, "violation": True}]
    if proves:
        assert est.flags == ["violation at p=0"]
        assert (est.lower, est.upper, est.witness_p) == (0.0, 0.0, 0.0)
        assert est.witness == ("crosses at", -1.0)
    else:
        assert est.flags == ["no witness proven at p=0"]
        assert (est.lower, est.upper, est.witness, est.witness_p) == (
            0.0, math.inf, None, None)
    # a clean 0 goes on to p_cap
    est = bracket(FakeProbe(0.7, zeros=True), 16.0, 1e-3)
    assert est.probes[:2] == [{"p": 0.0, "violation": False},
                              {"p": 16.0, "violation": True}]


def test_bracket_clean_at_cap_is_unbounded():
    probe = FakeProbe(20.0)
    est = bracket(probe, 16.0, 1e-3)
    assert probe.calls == [("plan", None), ("clean", 16.0)]
    assert est.certified and est.flags == ["no violation up to p_cap"]
    assert est.probes == [{"p": 16.0, "violation": False}]
    assert (est.lower, est.upper, est.witness, est.witness_p) == (
        16.0, math.inf, None, None)
    assert est.fields()["unbounded"] is True


def test_bracket_without_a_witness_keeps_its_clean_end():
    # `narrow` proves no witness: the clean lower end stays, the upper one
    # is unbounded, and the bracket says so
    est = bracket(FakeProbe(0.7, proves=False), 16.0, 1e-3)
    assert est.certified and est.flags == ["no witness proven up to p_cap"]
    assert 0.7 - 1e-3 <= est.lower <= 0.7
    assert (est.upper, est.witness, est.witness_p) == (math.inf, None, None)


@pytest.mark.parametrize("kwargs", [
    {"p_tolerance": 0.0}, {"p_tolerance": -1e-3}, {"p_tolerance": math.nan},
    {"p_tolerance": math.inf}, {"p_cap": math.inf}, {"p_cap": -1.0},
    {"p_cap": 0.0}, {"p_cap": math.nan},
])
def test_estimate_rejects_bad_tolerance_and_cap(kwargs):
    # a zero tolerance would probe forever; an infinite cap would report
    # lower=inf as certified, a negative one lower=-1
    with pytest.raises(ValueError, match="finite and positive"):
        estimate_roundness(C4, **kwargs)


def test_estimate_tolerance_below_float_resolution_stops():
    est = estimate_roundness(C4, p_tolerance=1e-300)
    assert "tolerance below float resolution" in est.flags
    assert est.certified
    assert est.lower < est.upper == math.nextafter(est.lower, math.inf)


@pytest.mark.parametrize("target", [0.0, 3e-4, 0.917, 7.5, 15.9975])
@pytest.mark.parametrize("tol", [1e-1, 1e-3, 1e-6])
def test_close_bracket_probe_bound(target, tol):
    # every violating probe's witness crosses just under the probe, so
    # each crossing moves the upper end just over the step: closing at
    # upper - tol alone would take about (16 - target) / tol probes, the
    # doubling guard at most 2L(L+1), L the halvings from 16 to tol
    probed = []

    def probe(q):
        probed.append(q)
        return None if q <= target else "witness"

    def crossing(w, lo, hi):
        return max(hi - tol / 1000, math.nextafter(target, math.inf))

    halvings = probes._halvings(0.0, 16.0, tol)
    flags = []
    lower, upper, _ = probes._close_bracket(probe, crossing, 0.0, 16.0,
                                            "witness", tol, flags)
    assert lower <= target < upper and upper - lower <= tol
    assert flags == []
    assert len(probed) <= 2 * halvings * (halvings + 1)


@pytest.mark.parametrize("make, low, high", [
    (lambda: ProductCycleSpace(10, CycleSpace(8)), 8.009e-8, 8.103e-8),
    (lambda: ProductCycleSpace(30, CycleSpace(4)),
     math.log1p(3.0 ** -29) / math.log(2),
     math.log1p(3.0 ** -29) / math.log(2) * (1 + 1e-9)),
    (lambda: stage_space(2), 5.70595e-4, 5.70596e-4),
], ids=["Z8^10", "Z4^30", "stage-2"])
def test_small_roundness_gets_its_crossing_as_upper_end(make, low, high):
    # below the default p_tolerance the lower end stays 0 and the upper
    # end is the crossing of the witness at p_cap, certified there
    space = make()
    est = estimate_roundness(space)
    assert est.certified and est.lower == 0.0
    assert low <= est.upper <= high and est.witness_p == est.upper
    row = dict(probes.character_table(space))[est.witness]
    weights = probes._weights(space.units, est.upper)
    assert probes._eigenvalue(weights, row).a > 0


def test_estimate_recertifies_only_the_reported_witness(monkeypatch):
    # a repeated point is merged before the probes, so the witnesses they
    # try are of the merged points; the certifier runs once on the table
    # itself, on the witness reported in its labels, at the upper end
    calls, certify = [], roundness.certify_violation

    def recording(space, ds, p, **index):
        calls.append((space, ds, p))
        return certify(space, ds, p, **index)

    rows = [list(row) for row in random_rational_metric_space(20, 0).dist]
    rows = [row[:5] + [row[2]] + row[5:] for row in rows]
    space = FiniteMetricSpace.unchecked(rows[:5] + [rows[2]] + rows[5:])
    monkeypatch.setattr(roundness, "certify_violation", recording)
    est = estimate_roundness(space)
    assert len(est.probes) > 3
    assert [call for call in calls if call[0] is space] \
        == [(space, est.witness, est.upper)]
    assert est.witness_p == est.upper
    assert 5 not in est.witness.xs + est.witness.ys


def test_spectral_estimate_certifies_at_one_point(monkeypatch):
    # the spectral probe certifies only the roundings of one vector, all
    # at the one p above the last clean probe, and then the witness it
    # reports at its crossing; every rounding but the last fails
    calls, certify = [], roundness.certify_violation

    def recording(space, ds, p, **index):
        calls.append((ds, p, certify(space, ds, p, **index)))
        return calls[-1][2]

    monkeypatch.setattr(roundness, "certify_violation", recording)
    est = estimate_roundness(random_rational_metric_space(20, 0))
    *search, (ds, p, verdict) = calls
    assert (ds, p, verdict) == (est.witness, est.upper, True)
    assert len({q for _, q, _ in search}) == 1
    assert [v for _, _, v in search] == [False] * (len(search) - 1) + [True]
    assert search[-1][0] == est.witness
    assert est.lower < est.upper <= search[-1][1] <= est.lower + 1e-3


def test_failed_recertification_is_an_error(monkeypatch):
    # find_violation_exhaustive keeps its contract: a witness the
    # certifier does not confirm is an error, and so is a reported one;
    # the spectral probe finds none to report, and its failing probes
    # prove nothing: the clean lower end stays, the upper one is unbounded
    monkeypatch.setattr(roundness, "certify_violation",
                        lambda *args, **index: False)
    with pytest.raises(ArithmeticError, match="failed recertification"):
        find_violation_exhaustive(C4, 3, 1.5)
    est = estimate_roundness(C4)
    assert est.flags == ["no witness proven up to p_cap"]
    assert est.certified and 1 - 1e-3 <= est.lower <= 1
    assert est.upper == math.inf and est.witness is est.witness_p is None


SPECTRAL_SPACES = {
    "c5": lambda: cycle_graph_space(5),
    **{f"r20-{k}": (lambda k=k: random_rational_metric_space(20, k))
       for k in range(8)},
    "r64": lambda: random_rational_metric_space(64, 0),
}


@pytest.mark.parametrize("make", SPECTRAL_SPACES.values(),
                         ids=SPECTRAL_SPACES)
def test_spectral_bracket_contains_the_spectral_value(make):
    # a listed metric space is bracketed for every double simplex: the
    # clean end below the numpy oracle's value, the witness's crossing
    # above it, within the tolerance, and the witness recertifies there
    space = make()
    est = estimate_roundness(space, p_tolerance=1e-3)
    assert est.certified and est.flags == []
    assert est.lower <= spectral_value(space) <= est.upper
    assert est.upper - est.lower <= 1e-3
    assert est.witness_p == est.upper
    assert certify_violation(space, est.witness, est.witness_p)
    assert est.witness.xs == tuple(sorted(est.witness.xs))
    assert not set(est.witness.xs) & set(est.witness.ys)


def _exact_gram(space, p) -> list:
    """A(p) in Fractions, at integer p."""
    n = space.size
    d = [[Fraction(space.distance(i, j)) ** p for j in range(n)]
         for i in range(n)]
    return [[d[i][-1] + d[j][-1] - d[i][j] for j in range(n - 1)]
            for i in range(n - 1)]


def _exact_positive_definite(space, p) -> bool:
    """A(p) in Fractions, LDL^T without pivoting: positive definite
    exactly when every pivot is positive."""
    n = space.size
    a = _exact_gram(space, p)
    for k in range(n - 1):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n - 1):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n - 1):
                a[i][j] -= f * a[k][j]
    return True


def test_clean_factorisation_never_contradicts_exact_ldlt():
    # at integer p the powers of rational distances are exact: wherever
    # the float factorisation of A(p) - cI completes, A(p) is positive
    # definite in Fractions, and the probe's verdict is the exact one,
    # semidefinite (some planar-like spaces are singular at p = 2)
    verdicts = []
    for n in (4, 6, 9, 12, 16):
        for seed in range(8):
            space = random_rational_metric_space(n, seed)
            probe = SpectralProbe(space, DistanceIndex(space))
            for p in (1, 2):
                rows, shift = probe.matrix(p)
                factored = roundness._cholesky(rows, shift)[2] is None
                exact = _exact_positive_definite(space, p)
                assert exact or not factored, (n, seed, p)
                semidefinite = exact or _psd_value(
                    _exact_gram(space, p)) >= 0
                assert probe.clean(p) is semidefinite, (n, seed, p)
                verdicts.append(factored)
    assert True in verdicts and False in verdicts


def test_spectral_probe_settles_its_band(monkeypatch):
    # A(1) of the 4-cycle is singular: neither shifted factorisation
    # decides it, and the Fraction LDL^T proves it semidefinite; one float
    # above, the 160-bit intervals prove a negative pivot
    values = []

    def spy(evaluate, what):
        values.append(evaluate(Fraction))
        return settle(evaluate, what)

    monkeypatch.setattr("roundlab.exact.settle", spy)
    probe = SpectralProbe(C4, DistanceIndex(C4))
    assert probe.clean(1.0) and len(values) == 1
    assert values[0] == 0
    assert not probe.clean(math.nextafter(1.0, 2.0)) and len(values) == 2
    # 2^p is a float among rational powers: no exact verdict from it
    assert math.isnan(values[1])
    assert probe.clean(0.999) and not probe.clean(1.001)
    assert len(values) == 2


def test_psd_value_of_float_entries_decides_nothing():
    # [[2.0, 2.0], [2.0, 2.0]] leaves an exact 0.0 after one float step:
    # its sign is rounding's, so settle goes on to the intervals, where
    # the singular matrix stays undecided rather than proven either way
    assert math.isnan(_psd_value([[2.0, 2.0], [2.0, 2.0]]))
    assert math.isnan(_psd_value([[Fraction(2), 2.0], [2, 1]]))
    lifts = []

    def evaluate(lift):
        lifts.append(lift)
        if lift is Fraction:
            return _psd_value([[2.0, 2.0], [2.0, 2.0]])
        return _psd_value([[lift(2), lift(2)], [lift(2), lift(2)]])

    with pytest.raises(ArithmeticError, match="undecided"):
        settle(evaluate, "float band")
    assert lifts[0] is Fraction and lifts[1] is not Fraction


@pytest.mark.parametrize("rows, psd", [
    ([[Fraction(1), 1, 0], [1, 2, 1], [0, 1, 1]], True),
    ([[Fraction(0), 0], [0, 0]], True),
    ([[Fraction(0), 1], [1, 0]], False),
    ([[Fraction(1), 2], [2, 1]], False),
    ([[Fraction(2), -1], [-1, 2]], True),
], ids=["singular", "zero", "zero-diagonal", "indefinite", "definite"])
def test_psd_value_decides_exactly(rows, psd):
    assert (_psd_value(rows) >= 0) is psd


def _every_pair(space, ds):
    """The distances of ds's within and cross pairs, each listed once."""
    within = [space.distance(f[i], f[j]) for f in (ds.xs, ds.ys)
              for i in range(ds.r) for j in range(i + 1, ds.r)]
    return within, [space.distance(x, y) for x in ds.xs for y in ds.ys]


def _expanded_gap(space, ds, p):
    """`DistanceIndex.gap` over every pair of ds listed once each, as the
    index summed before it counted pairs."""
    within, cross = _every_pair(space, ds)
    top = Fraction(max(map(abs, within + cross)) or 1)

    def pw(d):
        e = float(Fraction(d) / top)
        return float(e ** p) if e else 0.0

    within, cross = [pw(d) for d in within], [pw(d) for d in cross]
    lhs, rhs = math.fsum(within), math.fsum(cross)
    radius = (roundness.gap_radius(p, 1) * (lhs + rhs)
              + len(within + cross) * DistanceIndex(space).floor(p))
    return rhs - lhs, radius, lhs, rhs


@pytest.mark.parametrize("seed", range(6))
def test_weighted_gap_matches_every_pair_summed(seed):
    # counting each distinct pair changes no bit of the gap, its radius
    # or its sides: a power times a power of two is exact, so one fsum
    # of the split counts is the correctly rounded sum over every pair,
    # also for unsorted families with runs of repeated points. At integer
    # p the exact sides are the Fraction sums over every pair, also where
    # Y shares X's points in shuffled order
    rng = random.Random(seed)
    space = random_rational_metric_space(7, seed)
    families = []
    for r in (2, 3, 17, 60):
        xs = tuple(rng.choice(range(7)) for _ in range(r))
        ys = tuple(rng.choice(range(7)) for _ in range(r))
        ds = DoubleSimplex(xs, ys)
        for p in (0.0, 0.5, 1.3, 2.0, 7.25):
            assert (repr(DistanceIndex(space, ds).gap(p))
                    == repr(_expanded_gap(space, ds, p)))
        assert (certify_violation(space, ds, 1.3)
                is mpmath_certify_violation(space, ds, 1.3))
        families.append(ds)
    for ds in list(families):
        # X against a shuffle of itself, and a shuffle of X's first half
        # with Y's second against X
        same = rng.sample(ds.xs, ds.r)
        mixed = rng.sample(ds.xs[:ds.r // 2] + ds.ys[ds.r // 2:], ds.r)
        families += [DoubleSimplex(ds.xs, tuple(same)),
                     DoubleSimplex(tuple(mixed), ds.xs)]
    for ds in families:
        for p in (0.5, 1.3):
            assert (repr(DistanceIndex(space, ds).gap(p))
                    == repr(_expanded_gap(space, ds, p)))
        for p in (0, 1, 2, 3):
            # 0^0 = 0, as in `power`
            lhs, rhs = (sum((Fraction(d) ** p for d in side if d),
                            Fraction(0))
                        for side in _every_pair(space, ds))
            got = simplex_gap(space, ds, p)
            assert got.exact
            assert (got.lhs, got.rhs, got.gap) == (lhs, rhs, rhs - lhs)
            if sorted(ds.xs) == sorted(ds.ys):
                assert got.gap == 0


@pytest.mark.parametrize("rows, ds, axiom, pair", [
    ([[0, -1, 2], [-1, 0, 1], [2, 1, 0]], ((0, 1), (2, 2)),
     "nonnegativity", (0, 1)),
    ([[0, -1, 2], [-1, 0, 1], [2, 1, 0]], ((2, 2), (1, 0)),
     "nonnegativity", (1, 0)),
    (None, ((1, 3), (2, 5)), "symmetry", (1, 3)),
    (None, ((2, 3), (5, 1)), "symmetry", (2, 1)),
], ids=["negative", "negative-shuffled", "asymmetric-within",
        "asymmetric-cross"])
def test_gaps_refuse_unfit_pairs_before_any_power(rows, ds, axiom, pair,
                                                  monkeypatch):
    # simplex_gap and certify_violation admit a double simplex by the
    # rule of the estimate and the scan, decided on the pairs it reads;
    # a mirror the index does not hold (d(1, 2) for the cross pair
    # (2, 1)) is read from the space. None of _asymmetric_unchecked's
    # nonzero diagonal is read, so symmetry fails first
    def unpowered(index, p):
        raise AssertionError(f"a distance powered at p={p}")

    monkeypatch.setattr(DistanceIndex, "powers", unpowered)
    space = (_asymmetric_unchecked(7, 5) if rows is None
             else FiniteMetricSpace.unchecked(rows))
    ds = DoubleSimplex(*ds)
    message = rf"^distance matrix fails {axiom} at \({pair[0]},{pair[1]}\)$"
    for p in (2, 1.5):
        with pytest.raises(ValueError, match=message):
            simplex_gap(space, ds, p)
        with pytest.raises(ValueError, match=message):
            certify_violation(space, ds, p)


@pytest.mark.parametrize("rows, axiom, pair", [
    ([[0, 1], [1, 1]], "identity", (1, 1)),
    ([[0, 1, 2], [1, 0, 1], [3, 1, 0]], "symmetry", (0, 2)),
    ([[0, -1, 2], [-1, 0, 1], [2, 1, 0]], "nonnegativity", (0, 1)),
], ids=["identity", "symmetry", "nonnegativity"])
def test_unfit_tables_are_refused_before_any_power(rows, axiom, pair,
                                                   monkeypatch):
    # a table outside a pseudometric's form names the axiom and the first
    # pair that fails it, in the estimate and the scan alike, and no
    # distance is powered
    space = FiniteMetricSpace.unchecked(rows)
    monkeypatch.setattr(DistanceIndex, "powers", None)
    message = rf"^distance matrix fails {axiom} at \({pair[0]},{pair[1]}\)$"
    with pytest.raises(ValueError, match=message):
        estimate_roundness(space)
    with pytest.raises(ValueError, match=message):
        find_violation_exhaustive(space, 3, 1.0)
    # the seeded unaudited table fails identity first, as a checked space
    # is audited
    with pytest.raises(ValueError, match="fails identity at"):
        estimate_roundness(_asymmetric_unchecked(7, 5))


def test_zero_table_probes_zero_first(monkeypatch):
    # [[0,0,1],[0,0,0],[1,0,0]] keeps a zero off the diagonal, where 0^0 = 0
    # leaves D^0 the 0/1 pattern of nonzero distances: A(0) is [[2, 1],
    # [1, 0]], whose determinant -1 makes it indefinite, so some signed
    # multiset, and with it a double simplex, has a negative gap at p = 0.
    # The estimate probes 0 first and reports its witness there
    space = FiniteMetricSpace.unchecked([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    probe = SpectralProbe(space, DistanceIndex(space))
    assert probe.matrix(0.0)[0] == [[2.0, 1.0], [1.0, 0.0]]
    assert _psd_value([[Fraction(2), 1], [1, 0]]) < 0
    est = estimate_roundness(space)
    assert est.probes == [{"p": 0.0, "violation": True}]
    assert est.flags == ["violation at p=0"]
    assert (est.lower, est.upper, est.witness_p) == (0.0, 0.0, 0.0)
    assert simplex_gap(space, est.witness, 0).gap < 0
    # with no witness proven there, the failing probe only steered
    monkeypatch.setattr(SpectralProbe, "witness", lambda self, p: None)
    est = estimate_roundness(space)
    assert est.flags == ["no witness proven at p=0"]
    assert (est.lower, est.upper, est.witness) == (0.0, math.inf, None)


@pytest.mark.parametrize("labels", [
    [*range(8), 0], [5, *range(8)], [0, 1, 2, 3, 3, 4, 5, 6, 3, 7, 7],
], ids=["last", "first", "repeated"])
def test_repeated_points_merge_into_their_first(labels):
    # a point at distance 0 from an earlier one with the same row merges
    # into it: the estimate of the table, whose k-th point is point
    # labels[k] of the space, is that of the table without its later
    # copies, with its witness in the table's labels, proven on the table
    base = random_rational_metric_space(8, 3)
    rows = [[base.dist[a][b] for b in labels] for a in labels]
    space = FiniteMetricSpace.unchecked(rows)
    kept = [k for k, a in enumerate(labels) if labels.index(a) == k]
    est = estimate_roundness(space)
    plain = estimate_roundness(FiniteMetricSpace.unchecked(
        [[rows[i][j] for j in kept] for i in kept]))
    assert est.witness == DoubleSimplex(
        *(tuple(kept[i] for i in fam) for fam in (plain.witness.xs,
                                                  plain.witness.ys)))
    assert est.fields() == {**plain.fields(), "witness": est.witness}
    assert certify_violation(space, est.witness, est.witness_p)
    assert est.lower <= spectral_value(base) <= est.upper


def test_asymmetric_table_is_refused_before_any_scan(monkeypatch):
    # one mirror entry of a metric space raised by 1: the scan would cover
    # one orientation of each pair of families and return its witness in
    # the other, which then failed recertification; now both entry points
    # refuse the table, naming symmetry, and no configuration is scanned
    rows = [list(row) for row in random_rational_metric_space(8, 3).dist]
    rows[0][1] += 1
    space = FiniteMetricSpace.unchecked(rows)

    def no_scan(*args):
        raise AssertionError("scanned an asymmetric table")

    monkeypatch.setattr(kernels, "min_gap_scan", no_scan)
    with pytest.raises(ValueError, match=r"fails symmetry at \(0,1\)"):
        estimate_roundness(space)
    with pytest.raises(ValueError, match=r"fails symmetry at \(0,1\)"):
        find_violation_exhaustive(space, 2, 2.0)
