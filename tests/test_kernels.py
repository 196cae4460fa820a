"""The hot-loop kernels: census, class partners, r=2 counts, gap scan."""

import itertools
import math

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


def test_min_gap_scan_clean_scans_everything():
    # subsets of the line have roundness 2, so p=1.5 never violates
    space = path_graph_space(8)
    witness, min_gap, scanned = assert_same_scan(dp_matrix(space, 1.5), 4,
                                                 1e-12)
    assert witness is None
    assert scanned == exhaustive_config_count(8, 4)
