"""The hot-loop kernels: census, class partners, r=2 counts, gap scan."""

import itertools
import math
import random

import pytest

from roundlab import kernels
from roundlab.numerics import dpow
from roundlab.roundness import estimate_roundness, exhaustive_config_count
from roundlab.spaces import path_graph_space, random_rational_metric_space


def reference_min_gap_scan(dp, max_size: int, rel_tol: float):
    """The scalar loop the vectorised gap scan replaced, kept as its oracle.

    The loop summed cs[v] with `sum()`, which adds floats left to right up
    to Python 3.11 (3.12 compensates); the explicit loop keeps that order.
    """
    npts = len(dp)
    min_gap = None
    scanned = 0
    for n in range(2, max_size + 1):
        families = list(itertools.combinations_with_replacement(range(npts), n))
        within = []
        for fam in families:
            s = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    s += dp[fam[i]][fam[j]]
            within.append(s)
        for xi, xs in enumerate(families):
            sx = within[xi]
            cs = [0.0] * npts
            for v in range(npts):
                dv = dp[v]
                s = 0.0
                for u in xs:
                    s += dv[u]
                cs[v] = s
            for yi in range(xi, len(families)):
                lhs = sx + within[yi]
                rhs = 0.0
                for u in families[yi]:
                    rhs += cs[u]
                gap = rhs - lhs
                scanned += 1
                if min_gap is None or gap < min_gap:
                    min_gap = gap
                scale = lhs if lhs > rhs else rhs
                if scale < 1.0:
                    scale = 1.0
                if gap < -rel_tol * scale:
                    return (xs, families[yi]), min_gap, scanned
    return None, min_gap, scanned


def dp_matrix(space, p):
    n = space.size
    return [[float(dpow(space.distance(i, j), p)) for j in range(n)]
            for i in range(n)]


def assert_same_scan(dp, max_size, rel_tol):
    got = kernels.min_gap_scan(dp, max_size, rel_tol)
    # repr is exact for floats, ints and tuples of them, and it also
    # matches a NaN min_gap, which == never does
    assert repr(got) == repr(reference_min_gap_scan(dp, max_size, rel_tol))
    witness, min_gap, scanned = got
    assert type(scanned) is int
    assert min_gap is None or type(min_gap) is float
    if witness is not None:
        assert all(type(i) is int for fam in witness for i in fam)
    return got


def test_pair_census_conservation():
    # classified pairs + unclassified pairs = all unordered pairs
    coords, units = 4, 8
    counts, unclassified = kernels.pair_census(coords, units)
    total = units ** coords
    assert sum(counts.values()) + unclassified == total * (total - 1) // 2
    for v in counts.values():
        assert type(v) is int
    assert type(unclassified) is int


@pytest.mark.parametrize("delta,support", [(1, 2), (4, 3), (2, 1), (3, 4)])
def test_class_partners_deterministic(delta, support):
    pt = (1, 2, 3, 0)
    first = kernels.class_partners(4, 8, delta, support, pt)
    assert kernels.class_partners(4, 8, delta, support, pt) == first
    # exactly the points that form a class pair with pt, each once
    assert len(set(first)) == len(first)
    brute = {y for y in itertools.product(range(8), repeat=4)
             if kernels.is_class_pair(4, 8, delta, support, pt, y)}
    assert set(first) == brute


def test_simplex_count_value():
    n = kernels.simplex_count_r2(4, 8, 1, 2)
    assert n == 49152
    assert type(n) is int


def test_min_gap_scan_no_violation():
    # the 4-cycle at p=1 has gap exactly 0 on the diagonal configuration
    d = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    dp = [[float(v) for v in row] for row in d]
    witness, min_gap, scanned = kernels.min_gap_scan(dp, 3, 1e-12)
    assert witness is None
    assert min_gap == 0.0
    assert scanned == 55 + 210  # cwr(4,2) and cwr(4,3) family pairs


def test_min_gap_scan_finds_first_violation():
    # squared 4-cycle distances violate at p=1; the scan stops at the first
    # witness in canonical order
    d = [[0, 1, 4, 1], [1, 0, 1, 4], [4, 1, 0, 1], [1, 4, 1, 0]]
    dp = [[float(v) for v in row] for row in d]
    witness, min_gap, scanned = kernels.min_gap_scan(dp, 2, 1e-12)
    assert witness == ((0, 2), (1, 3))
    assert min_gap == 4.0 * 1.0 - (4.0 + 4.0)
    assert scanned == 10 + 9 + 5  # stops at families 2 and 6 of cwr(4,2)


@pytest.mark.parametrize("seed", range(5))
def test_min_gap_scan_matches_reference(seed):
    # the last bisection probes sit where the smallest gaps are nearest the
    # violation threshold, so a reassociated sum would flip decisions there
    space = random_rational_metric_space(6 + seed, seed)
    probes = [pr["p"] for pr in
              estimate_roundness(space, max_size=3, p_tolerance=1e-4).probes]
    for p in sorted(set(probes[-4:] + [0.5, 1.0, 2.5])):
        dp = dp_matrix(space, p)
        for max_size in (2, 3, 4):
            for rel_tol in (1e-12, 0.0):
                assert_same_scan(dp, max_size, rel_tol)


def test_min_gap_scan_small_inputs():
    assert assert_same_scan([], 4, 1e-12) == (None, None, 0)
    # one point: one all-zero configuration per family size
    assert assert_same_scan([[0.0]], 4, 1e-12) == (None, 0.0, 3)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_min_gap_scan_nan_gaps_like_the_loop():
    # inf - inf gaps are NaN: the running minimum skips them, unless the
    # very first gap is NaN, which no later gap replaces
    inf = float("inf")
    witness, min_gap, scanned = assert_same_scan([[0.0, inf], [inf, 0.0]],
                                                 3, 1e-12)
    assert min_gap == 0.0 and scanned == 6 + 10
    witness, min_gap, _ = assert_same_scan([[inf, 1.0], [1.0, 0.0]], 3, 1e-12)
    assert math.isnan(min_gap)


def _gap_block_of(npts, n, x_index):
    """First family of the block holding first family `x_index`, stepping
    through the size-n blocks as the scan does."""
    m = math.comb(npts + n - 1, n)
    x0 = 0
    while True:
        x1 = min(m, x0 + max(1, kernels.GAP_BLOCK // (m - x0)))
        if x_index < x1:
            return x0
        x0 = x1


@pytest.mark.parametrize("block", [1, 37, 500])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_min_gap_scan_matches_reference_across_blocks(block, monkeypatch):
    # the cases above each fit one default block; small blocks split every
    # scan, including the inf/NaN matrices, into many
    monkeypatch.setattr(kernels, "GAP_BLOCK", block)
    inf = float("inf")
    for dp in ([[0.0, inf], [inf, 0.0]], [[inf, 1.0], [1.0, 0.0]]):
        assert_same_scan(dp, 3, 1e-12)
    # a negative diagonal e puts the first gap at 2e: on the threshold
    # -rel_tol, and past it; the scan reads any matrix as the loop does, so
    # asymmetric ones tell the scanned pairs from their swaps
    for e in (-0.05, math.nextafter(-0.05, -inf), -0.075):
        assert_same_scan([[e, 1.0], [1.0, 0.0]], 3, 0.1)
    rng = random.Random(block)
    for npts in (3, 4, 5, 6):
        dp = [[rng.choice((0.0, 0.5, 1.0, 2.0, 3.0)) for _ in range(npts)]
              for _ in range(npts)]
        for rel_tol in (1e-12, 0.1):
            assert_same_scan(dp, 3, rel_tol)
    # at rel_tol 0.1 the (6, 6) space keeps a tolerated gap below the
    # first violating one, earlier in the block
    for npts, seed, p in ((5, 5, 2.5), (6, 0, 2.0), (6, 0, 3.0), (6, 6, 2.5),
                          (7, 4, 2.0), (8, 0, 1.5)):
        dp = dp_matrix(random_rational_metric_space(npts, seed), p)
        for max_size in (2, 3):
            for rel_tol in (1e-12, 0.0, 0.1):
                assert_same_scan(dp, max_size, rel_tol)


def test_min_gap_scan_first_violation_inside_a_later_block(monkeypatch):
    # the first violation sits in the second block, and neither its first
    # family is the block's first nor its second family is: the first hit
    # of a block is taken in (X, Y) order wherever it lies in the block
    monkeypatch.setattr(kernels, "GAP_BLOCK", 500)
    dp = dp_matrix(random_rational_metric_space(6, 0), 2.0)
    witness, _, scanned = assert_same_scan(dp, 3, 1e-12)
    families = list(itertools.combinations_with_replacement(range(6), 3))
    xi, yi = families.index(witness[0]), families.index(witness[1])
    x0 = _gap_block_of(6, 3, xi)
    assert x0 > 0 and xi > x0 and yi > x0
    assert witness == ((0, 3, 5), (4, 4, 4)) and scanned == 1083


def test_min_gap_scan_rejects_negative_tolerance():
    with pytest.raises(ValueError, match="nonnegative"):
        kernels.min_gap_scan([[0.0, 1.0], [1.0, 0.0]], 2, -1e-12)


def test_min_gap_scan_counts_per_probe_frozen(monkeypatch):
    # configs scanned by each bisection probe of the 20-point space,
    # recorded before the scan gathered rows and shared prefix sums; one
    # more scan of 20 points reuses the cached family index
    scans = []
    scan = kernels.min_gap_scan

    def recording(*args):
        result = scan(*args)
        scans.append(result[2])
        return result

    monkeypatch.setattr(kernels, "min_gap_scan", recording)
    space = random_rational_metric_space(20, 0)
    estimate_roundness(space, max_size=3, p_tolerance=1e-3)
    clean = exhaustive_config_count(20, 3)
    assert clean == 1208725
    assert scans == [clean, 30, 30, 64, 273, 187614, clean, clean, clean,
                     407362, clean, 519915, clean, 519915, clean, clean]
    misses = kernels._family_index.cache_info().misses
    scan(dp_matrix(space, 1.0), 3, 1e-12)
    assert kernels._family_index.cache_info().misses == misses


def test_min_gap_scan_clean_scans_everything():
    # subsets of the line have roundness 2, so p=1.5 never violates
    space = path_graph_space(8)
    witness, min_gap, scanned = assert_same_scan(dp_matrix(space, 1.5), 4,
                                                 1e-12)
    assert witness is None
    assert scanned == exhaustive_config_count(8, 4)
