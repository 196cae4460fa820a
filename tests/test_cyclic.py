"""Cycle products: classes, the simplex builder, transport, and counting."""

import hashlib
import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from roundlab import kernels
from roundlab.cyclic import (BudgetExceeded, CycleSpace, DoubleSimplex,
                             IncidenceCounts, Isometry, PairClass,
                             ProductCycleSpace, SimplexClass, build_simplex,
                             canonical_class_pair, completion_counts,
                             count_incidences, count_pairs_closed,
                             enumerate_pairs, is_pair, is_simplex,
                             stage_delta, stage_pair_class,
                             stage_range_warnings, stage_simplex_class,
                             stage_space, sample_pairs_sparse,
                             transport_pair)
from roundlab.obstruction import CircleEmbeddingMap, verify_chain_inequality

from oracles import (reference_anchored_count, reference_completion_count,
                     reference_simplex_count)


def mk(coords, units, quantum=Fraction(1)):
    return ProductCycleSpace(coords, CycleSpace(units, quantum))


# ---------------------------------------------------------------------------
# spaces

def test_cycle_space_rejects_odd_units():
    with pytest.raises(ValueError):
        CycleSpace(7, Fraction(1))


def test_cycle_distance_is_min_arc():
    c = CycleSpace(8, Fraction(1, 4))
    assert c.distance_quanta(0, 3) == 3
    assert c.distance_quanta(0, 5) == 3
    assert c.distance_quanta(1, 5) == 4
    assert c.distance(0, 5) == Fraction(3, 4)


def test_sup_metric():
    space = mk(3, 8, Fraction(1, 2))
    assert space.distance_quanta((0, 0, 0), (1, 3, 2)) == 3
    assert space.distance((0, 0, 0), (1, 3, 2)) == Fraction(3, 2)
    assert space.distance((0, 0, 0), (0, 0, 0)) == 0


def test_check_point():
    space = mk(2, 8)
    with pytest.raises(ValueError):
        space.check_point((0, 8))
    with pytest.raises(ValueError):
        space.check_point((0,))


# ---------------------------------------------------------------------------
# pair classes

def test_pair_class_validation():
    space = mk(4, 8)
    with pytest.raises(ValueError):
        PairClass(0, 1)
    with pytest.raises(ValueError):
        PairClass(1, 0)
    PairClass(5, 2).validate_for(mk(4, 12))
    with pytest.raises(ValueError):
        PairClass(5, 2).validate_for(space)  # delta beyond the antipode
    with pytest.raises(ValueError):
        PairClass(1, 5).validate_for(space)  # support beyond coords


def test_orientations_weight():
    space = mk(4, 8)
    assert PairClass(1, 2).orientations(space) == 2
    assert PairClass(3, 2).orientations(space) == 2
    assert PairClass(4, 2).orientations(space) == 1  # antipode


def test_is_pair():
    space = mk(4, 8)
    cls = PairClass(1, 2)
    assert is_pair(space, (0, 0, 0, 0), (1, 0, 7, 0), cls)
    assert not is_pair(space, (0, 0, 0, 0), (1, 0, 0, 0), cls)
    assert not is_pair(space, (0, 0, 0, 0), (1, 2, 0, 0), cls)


# ---------------------------------------------------------------------------
# counting

def test_count_pairs_closed_648():
    # binom(3,1) * 6^2 * 2 * 6 / 2 on the 3-fold product of the 6-cycle
    assert count_pairs_closed(mk(3, 6), PairClass(1, 1)) == 648


def test_count_pairs_antipodal_weight():
    space = mk(3, 6)
    # antipodal class has one orientation: binom(3,1) * 6^2 * 6 / 2
    assert count_pairs_closed(space, PairClass(3, 1)) == 324


@pytest.mark.parametrize("coords,units", [(3, 6), (2, 8), (2, 12)])
def test_closed_count_matches_census(coords, units):
    space = mk(coords, units)
    census, unclassified = kernels.pair_census(coords, units)
    for (delta, support), n in census.items():
        assert count_pairs_closed(space, PairClass(delta, support)) == n
    total = units ** coords
    assert sum(census.values()) + unclassified == total * (total - 1) // 2


@pytest.mark.parametrize("delta,support", [(1, 1), (2, 2), (3, 1), (1, 3)])
def test_enumerate_matches_closed(delta, support):
    space = mk(3, 6)
    cls = PairClass(delta, support)
    pairs = list(enumerate_pairs(space, cls, budget=None))
    assert len(pairs) == count_pairs_closed(space, cls)
    assert len(set(pairs)) == len(pairs)
    for x, y in pairs[:50]:
        assert is_pair(space, x, y, cls)
        assert x < y


def test_enumerate_budget():
    space = mk(4, 8)
    with pytest.raises(BudgetExceeded) as exc:
        list(enumerate_pairs(space, PairClass(1, 2), budget=100))
    assert exc.value.required == 49152


# sha256 of repr(list(enumerate_pairs(...))), recorded while the
# enumeration still built both orientations of every pair and dropped one
ENUMERATION_DIGESTS = {
    (4, 8, 1, 2): "a0697e570e42a8514f53fd79114b4e0e5c4e2d1919aab8cfced3cdf855f0f002",
    (4, 4, 1, 2): "9243266d7180cc969ac8623e84a158cf3f04f5ddc7f016509c8cdd8d272401c2",
    (3, 6, 3, 1): "5fcf4e8672bf69eee00eb7d59e7f70f83c3c99716221c5f1dbafc4e12962700e",
    (4, 8, 4, 2): "4f689c90ff1c3aec5a46f1554936f14568c5614ad18df9bb77e76b3a09464056",
    (1, 8, 1, 1): "a42b11eecafa742e8bb4c52b01d143fbb050f9a0a0a6582bf7bfac6b9d8d6b80",
    (2, 2, 1, 1): "0f419ebdc8c55328d29818df5dded26e661ed0e833f87983ffe462c8cc1de6c5",
    (3, 8, 1, 1): "2ae60f134c91cf43e0c7152aee379041e16678775cff6fb1bda2d43a9a2740b7",
}


@pytest.mark.parametrize("key", list(ENUMERATION_DIGESTS),
                         ids=[str(k) for k in ENUMERATION_DIGESTS])
def test_enumerate_sequence_frozen(key):
    # the antipodal classes (4, 4, 1, 2), (3, 6, 3, 1), (4, 8, 4, 2) and
    # (2, 2, 1, 1) have a single offset, and (1, 8, 1, 1) a single
    # coordinate
    coords, units, delta, support = key
    pairs = list(enumerate_pairs(mk(coords, units), PairClass(delta, support),
                                 budget=None))
    assert len(pairs) == count_pairs_closed(mk(coords, units),
                                            PairClass(delta, support))
    digest = hashlib.sha256(repr(pairs).encode()).hexdigest()
    assert digest == ENUMERATION_DIGESTS[key]


def test_enumerate_budget_refused_at_call():
    # the refusal comes from the call, before anything is iterated
    with pytest.raises(BudgetExceeded, match="49152 pairs, budget 49151"):
        enumerate_pairs(mk(4, 8), PairClass(1, 2), budget=49151)
    assert sum(1 for _ in enumerate_pairs(mk(4, 8), PairClass(1, 2),
                                          budget=49152)) == 49152


def test_canonical_pairs_distinct_and_in_class():
    space = mk(4, 8)
    cls = PairClass(1, 2)
    pairs = [canonical_class_pair(space, cls, i) for i in range(3)]
    assert len(set(pairs)) == 3
    for x, y in pairs:
        assert is_pair(space, x, y, cls)


def test_sample_pairs_sparse_deterministic_and_in_class():
    space = mk(6, 8)
    cls = PairClass(2, 3)
    a = sample_pairs_sparse(space, cls, 64, np.random.default_rng(5))
    b = sample_pairs_sparse(space, cls, 64, np.random.default_rng(5))
    assert np.array_equal(a.supports, b.supports)
    assert np.array_equal(a.x_vals, b.x_vals)
    assert np.array_equal(a.y_vals, b.y_vals)
    assert a.count == 64
    d = np.abs(a.x_vals - a.y_vals)
    d = np.minimum(d, space.units - d)
    assert np.all(d == cls.delta)
    for row in a.supports:
        assert len(set(row.tolist())) == cls.support


# (coords, support, rows per call): small support, support above half
# the coordinates, s == c, and fewer rows per call than support
SUBSET_CASES = [(7, 2, 4200), (7, 5, 4200), (5, 5, 50), (8, 4, 4)]


def draw_supports(coords, support, rows, total, seed):
    space = mk(coords, 8)
    cls = PairClass(1, support)
    rng = np.random.default_rng(seed)
    return np.concatenate([sample_pairs_sparse(space, cls, rows, rng).supports
                           for _ in range(total // rows)])


@pytest.mark.parametrize("coords,support,rows", SUBSET_CASES)
def test_sample_supports_sorted_distinct_in_range(coords, support, rows):
    sup = draw_supports(coords, support, rows, 4 * rows, 1)
    assert sup.shape == (4 * rows, support)
    assert sup.dtype == np.int64
    assert np.all(np.diff(sup, axis=1) > 0)
    assert sup.min() >= 0 and sup.max() < coords


@pytest.mark.parametrize("coords,support,rows", SUBSET_CASES)
def test_sample_supports_repeat_per_seed(coords, support, rows):
    space = mk(coords, 8)
    cls = PairClass(3, support)
    a = sample_pairs_sparse(space, cls, rows, np.random.default_rng(9))
    b = sample_pairs_sparse(space, cls, rows, np.random.default_rng(9))
    for field in ("supports", "x_vals", "y_vals"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


@pytest.mark.parametrize("coords,support,rows", SUBSET_CASES)
def test_sample_supports_uniform_chi_square(coords, support, rows):
    subsets = list(itertools.combinations(range(coords), support))
    index = {sub: i for i, sub in enumerate(subsets)}
    total = 200 * len(subsets)
    sup = draw_supports(coords, support, rows, total, 17)
    observed = np.bincount([index[tuple(r)] for r in sup.tolist()],
                           minlength=len(subsets))
    assert observed.sum() == total
    if len(subsets) == 1:
        return
    expected = total / len(subsets)
    chi2 = float(((observed - expected) ** 2).sum() / expected)
    # Wilson-Hilferty upper 0.1% point of chi-square with df degrees
    df = len(subsets) - 1
    h = 2.0 / (9.0 * df)
    assert chi2 < df * (1.0 - h + 3.09 * math.sqrt(h)) ** 3


def test_chain_report_frozen_at_seed():
    # built-in maps send a whole class to one distance, so each Monte Carlo
    # level mean is that distance to the power p, whatever the seed
    space = ProductCycleSpace(8, CycleSpace(32, Fraction(1)))
    emap = CircleEmbeddingMap(space)
    rep = verify_chain_inequality(emap, SimplexClass(1, 4, 2), 2, 2.0,
                                  mode="mc", samples=3000)
    levels = [(1, 8), (2, 4), (4, 2)]
    means = [emap.class_distance(PairClass(d, s)) ** 2.0 for d, s in levels]
    # the sampled means recorded before the closed form, within their noise
    assert means == pytest.approx(
        [7.974330912359689, 15.79543729226653, 30.388518513657065], rel=1e-15)
    assert rep.to_dict() == {
        "start_delta": 1, "start_support": 4, "families": 2, "levels": 2,
        "p": 2.0,
        "averages": [
            {"delta": d, "support": s, "p": 2.0, "mean": mean,
             "count": 3000, "mode": "mc"}
            for (d, s), mean in zip(levels, means)
        ],
        "steps": [
            {"delta": 1, "support": 4, "margin": means[0] - 0.5 * means[1],
             "holds": True, "assumed_roundness": False},
            {"delta": 2, "support": 2, "margin": means[1] - 0.5 * means[2],
             "holds": True, "assumed_roundness": False},
        ],
        "factor_total": 0.25,
        "cumulative_margin": means[0] - 0.25 * means[2],
        "cumulative_holds": True,
    }


# ---------------------------------------------------------------------------
# simplex builder

GRID = [(r, s, delta, c, u)
        for r in (2, 4) for s in (2, 4) for delta in (1, 2)
        for c in (s * r, s * r + 2) for u in (8, 16)]


@pytest.mark.parametrize("r,s,delta,c,u", GRID)
def test_build_simplex_grid(r, s, delta, c, u):
    space = mk(c, u)
    scls = SimplexClass(delta, s, r)
    ds = build_simplex(space, scls)
    assert is_simplex(space, ds, scls)
    assert ds.r == r
    assert len(set(ds.xs + ds.ys)) == 2 * r


def test_simplex_class_edge_conn():
    scls = SimplexClass(1, 2, 2)
    assert scls.edge_class() == PairClass(2, 2)
    assert scls.conn_class() == PairClass(1, 4)


def test_stage_simplex_instances():
    for n, t, m in [(4, -1, 1), (4, 0, 1), (4, 1, 2), (2, 0, 1)]:
        space = stage_space(n)
        scls = stage_simplex_class(n, t, m)
        ds = build_simplex(space, scls)
        assert is_simplex(space, ds, scls)


def test_is_simplex_rejects_wrong_class():
    space = mk(4, 8)
    scls = SimplexClass(1, 2, 2)
    ds = build_simplex(space, scls)
    assert not is_simplex(space, ds, SimplexClass(2, 2, 2))
    broken = DoubleSimplex(ds.xs, (ds.ys[0], ds.xs[0]))
    assert not is_simplex(space, broken, scls)


# ---------------------------------------------------------------------------
# transport

def test_transport_worked_example():
    space = mk(2, 8)
    cls = PairClass(1, 1)
    iso = transport_pair(space, ((0, 3), (1, 3)), ((5, 2), (4, 2)), cls)
    assert iso == Isometry(perm=(0, 1), rot=(5, 7), reflect=(True, False),
                           units=8)
    assert iso.apply((0, 3)) == (5, 2)
    assert iso.apply((1, 3)) == (4, 2)


def test_transport_preserves_class_and_distances():
    space = mk(4, 8)
    cls = PairClass(2, 2)
    rng = np.random.default_rng(3)
    pairs = list(enumerate_pairs(space, cls, budget=None))

    def draw():
        x, y = pairs[rng.integers(len(pairs))]
        return (x, y) if rng.integers(2) else (y, x)

    for _ in range(20):
        a = draw()
        b = draw()
        iso = transport_pair(space, a, b, cls)
        assert iso.apply(a[0]) == b[0]
        assert iso.apply(a[1]) == b[1]
        # isometry property on extra probe points
        probes = [tuple(int(v) for v in rng.integers(0, 8, size=4))
                  for _ in range(5)]
        for i, p in enumerate(probes):
            assert is_pair(space, iso.apply(a[0]), iso.apply(a[1]), cls)
            for q in probes[i + 1:]:
                assert (space.distance_quanta(p, q)
                        == space.distance_quanta(iso.apply(p), iso.apply(q)))


def test_transport_rejects_off_class_pairs():
    space = mk(2, 8)
    cls = PairClass(1, 1)
    with pytest.raises(ValueError):
        transport_pair(space, ((0, 0), (2, 0)), ((0, 0), (1, 0)), cls)


# ---------------------------------------------------------------------------
# incidences

def test_incidence_frozen_values():
    space = mk(4, 8)
    inc = count_incidences(space, SimplexClass(1, 2, 2))
    assert inc.s_count == 49152
    assert inc.k_count == 2
    assert inc.l_count == 6
    assert inc.n_edge_class == 49152
    assert inc.n_conn_class == 32768
    assert inc.ratio_identity_holds()


def test_incidence_identities_enforced():
    with pytest.raises(ArithmeticError):
        IncidenceCounts(1, 2, 2, 49152, 32768, 3, 6, 49152)


def test_completion_counts_pair_independent():
    space = mk(4, 8)
    scls = SimplexClass(1, 2, 2)
    edge, conn = scls.edge_class(), scls.conn_class()
    ks = [completion_counts(space, scls, canonical_class_pair(space, edge, i), True)
          for i in range(3)]
    ls = [completion_counts(space, scls, canonical_class_pair(space, conn, i), False)
          for i in range(3)]
    assert ks == [2, 2, 2]
    assert ls == [6, 6, 6]


R2_CLASSES = [(4, 8, 1, 1), (4, 8, 1, 2), (3, 8, 1, 1), (5, 8, 1, 2),
              (6, 12, 1, 2), (4, 4, 1, 1), (4, 4, 1, 2), (6, 8, 2, 1)]


@pytest.mark.parametrize("coords,units,delta,support", R2_CLASSES,
                         ids=[str(c) for c in R2_CLASSES])
def test_incidences_match_enumeration_r2(coords, units, delta, support):
    # (4, 4, 1, *) and (6, 8, 2, 1) have antipodal edge classes
    space = mk(coords, units)
    scls = SimplexClass(delta, support, 2)
    inc = count_incidences(space, scls, budget=None)
    edge, conn = scls.edge_class(), scls.conn_class()
    assert inc.s_count == reference_simplex_count(space, scls)
    assert inc.k_count == reference_completion_count(
        space, scls, *canonical_class_pair(space, edge), True)
    assert inc.l_count == reference_completion_count(
        space, scls, *canonical_class_pair(space, conn), False)


def mixed_sign_pair(space, cls):
    """A class pair whose differing coordinates alternate +delta, -delta."""
    x = tuple(range(space.coords))
    y = list(x)
    for c in range(cls.support):
        y[c] = (y[c] + (cls.delta if c % 2 == 0 else -cls.delta)) % space.units
    return x, tuple(y)


@pytest.mark.parametrize("coords,units,delta,support,families", [
    (4, 8, 1, 2, 2), (6, 8, 2, 1, 2), (4, 4, 1, 2, 2), (8, 8, 1, 2, 4)])
def test_completion_counts_match_enumeration(coords, units, delta, support,
                                             families):
    # translated pairs, and reflected ones whose partner sits at -delta
    space = mk(coords, units)
    scls = SimplexClass(delta, support, families)
    for role_edge, cls in ((True, scls.edge_class()), (False, scls.conn_class())):
        pairs = [canonical_class_pair(space, cls, i) for i in (0, 1, 3)]
        pairs += [(b, a) for a, b in pairs[:2]] + [mixed_sign_pair(space, cls)]
        want = reference_completion_count(space, scls, *pairs[0], role_edge)
        for a, b in pairs:
            assert completion_counts(space, scls, (a, b), role_edge) == want
            if families == 2:
                assert reference_completion_count(space, scls, a, b,
                                                  role_edge) == want


def anchored_groups(space, pair):
    """The (offset, columns) groups `completion_count` gives the DP."""
    a, b = pair
    return sorted(Counter((y - x) % space.units for x, y in zip(a, b)).items())


def assert_split_dp_matches_reference(coords, units, delta, support,
                                      families, pairs_by_role=None):
    """The meet-in-the-middle DP against the single-pass one: S's groups,
    and K's and L's for every given anchor (canonical ones by default)."""
    space = mk(coords, units)
    scls = SimplexClass(delta, support, families)
    if pairs_by_role is None:
        pairs_by_role = {
            True: [canonical_class_pair(space, scls.edge_class())],
            False: [canonical_class_pair(space, scls.conn_class())]}
    cases = [([(0, coords)], None)]
    for role_edge, pairs in pairs_by_role.items():
        cases += [(anchored_groups(space, pair), 1 if role_edge else families)
                  for pair in pairs]
    for groups, partner in cases:
        args = (coords, units, delta, support, families, groups, partner)
        assert (kernels._anchored_count(*args)
                == reference_anchored_count(*args)), (groups, partner)
    return cases


@pytest.mark.parametrize("coords,units,delta,support", R2_CLASSES,
                         ids=[str(c) for c in R2_CLASSES])
def test_split_dp_matches_single_pass_r2(coords, units, delta, support):
    assert_split_dp_matches_reference(coords, units, delta, support, 2)


@pytest.mark.parametrize("coords,units", [(8, 8), (12, 16)])
def test_split_dp_matches_single_pass_r4(coords, units):
    assert_split_dp_matches_reference(coords, units, 1, 2, 4)


@pytest.mark.parametrize("coords,units,delta,support,families", [
    (4, 8, 1, 2, 2), (6, 8, 2, 1, 2), (4, 4, 1, 2, 2), (8, 8, 1, 2, 4)])
def test_split_dp_matches_single_pass_on_moved_anchors(coords, units, delta,
                                                       support, families):
    # the anchors of test_completion_counts_match_enumeration: translated,
    # reflected and mixed-sign pairs
    space = mk(coords, units)
    scls = SimplexClass(delta, support, families)
    pairs_by_role = {}
    for role_edge, cls in ((True, scls.edge_class()),
                           (False, scls.conn_class())):
        pairs = [canonical_class_pair(space, cls, i) for i in (0, 1, 3)]
        pairs += [(b, a) for a, b in pairs[:2]] + [mixed_sign_pair(space, cls)]
        pairs_by_role[role_edge] = pairs
    assert_split_dp_matches_reference(coords, units, delta, support,
                                      families, pairs_by_role)


def straddles(groups, coords):
    """True when a group has columns on both sides of the DP's split."""
    mid, end = (coords + 1) // 2, 0
    for _, columns in groups:
        if end < mid < end + columns:
            return True
        end += columns
    return False


@pytest.mark.parametrize("coords,units,delta,support,families", [
    (7, 8, 1, 2, 2), (8, 8, 1, 2, 2), (9, 16, 2, 3, 2), (8, 16, 1, 2, 4),
    (9, 16, 1, 2, 4)])
def test_split_dp_matches_single_pass_across_the_split(coords, units, delta,
                                                       support, families):
    # odd and even column counts; the canonical K anchor's zero group and
    # the mixed-sign anchors' groups run across the split column
    space = mk(coords, units)
    scls = SimplexClass(delta, support, families)
    pairs_by_role = {
        role_edge: [canonical_class_pair(space, cls),
                    mixed_sign_pair(space, cls)]
        for role_edge, cls in ((True, scls.edge_class()),
                               (False, scls.conn_class()))}
    cases = assert_split_dp_matches_reference(coords, units, delta, support,
                                              families, pairs_by_role)
    assert any(straddles(groups, coords) for groups, _ in cases)


def test_incidences_r4_general():
    # the enumerated S takes seconds here, so only K and L are checked
    # against the oracle, in test_completion_counts_match_enumeration
    space = mk(8, 8)
    inc = count_incidences(space, SimplexClass(1, 2, 4), budget=None)
    r = 4
    assert inc.s_count * r * (r - 1) == inc.n_edge_class * inc.k_count
    assert inc.s_count * r * r == inc.n_conn_class * inc.l_count
    assert (inc.s_count, inc.k_count, inc.l_count) == (526133493760, 6720, 3920)
    assert inc.ratio_identity_holds()


def test_incidences_scale_with_units():
    # column values come from offsets of earlier points, never from a scan
    # of range(units): a 1024-unit cycle costs what a 16-unit one does
    scls = SimplexClass(1, 2, 2)
    small = count_incidences(mk(8, 16), scls, budget=None)
    t0 = time.perf_counter()
    large = count_incidences(mk(8, 1024), scls, budget=None)
    assert time.perf_counter() - t0 < 0.5
    assert (large.k_count, large.l_count) == (small.k_count, small.l_count)
    assert large.s_count == small.s_count * (1024 // 16) ** 8


def test_incidences_budget_guard():
    with pytest.raises(BudgetExceeded):
        count_incidences(mk(8, 8), SimplexClass(1, 2, 4), budget=1000)


def test_incidences_budget_bounds_dp_work():
    # the simplex DP of this class takes 10,720 column transitions, and
    # those of K and L (4,760 and 10,050) fewer
    scls = SimplexClass(1, 2, 4)
    with pytest.raises(BudgetExceeded, match="column transitions"):
        count_incidences(mk(8, 8), scls, budget=10 ** 4)
    inc = count_incidences(mk(8, 8), scls, budget=2 * 10 ** 4)
    assert (inc.s_count, inc.k_count, inc.l_count) == (526133493760, 6720, 3920)
    assert count_incidences(mk(8, 8), scls) == inc


# ---------------------------------------------------------------------------
# stage forms

def test_stage_space_shape():
    space = stage_space(4)
    assert space.coords == 256
    assert space.units == 65536
    assert space.quantum == Fraction(1, 256)


def test_stage_delta():
    assert stage_delta(4, 0) == 256
    assert stage_delta(4, -1) == 128
    assert stage_delta(4, 2) == 1024
    with pytest.raises(ValueError):
        stage_delta(3, -1)  # 27/2 is not an integer quanta count


def test_stage_form_round_trip():
    # delta = 2^t * n^n quanta and support = n^m
    for n, t, m, delta, support in [(4, -1, 1, 128, 4), (4, 0, 2, 256, 16),
                                    (4, 1, 1, 512, 4), (6, 0, 1, 46656, 6)]:
        assert stage_pair_class(n, t, m) == PairClass(delta, support)


def test_stage_range_warnings():
    assert stage_range_warnings(4, 0, 1) == []
    assert any("odd" in w for w in stage_range_warnings(3, 0, 1))
    assert any("outside" in w for w in stage_range_warnings(4, 0, 5))
    assert any("outside" in w for w in stage_range_warnings(4, 4, 1))
