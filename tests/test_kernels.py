"""The hot-loop kernels: census, class partners, r=2 counts, gap scan."""

import itertools
import math
import random

import pytest

from roundlab import kernels, roundness
from roundlab.cyclic import DoubleSimplex
from roundlab.metric import FiniteMetricSpace
from roundlab.numerics import gap_radius, violation
from roundlab.probes import exhaustive_config_count
from roundlab.roundness import DistanceIndex, estimate_roundness, simplex_gap
from roundlab.spaces import (cycle_graph_space, path_graph_space,
                             random_rational_metric_space)


FLOOR = 2.0 ** -1072


def reference_min_gap_scan(dp, max_size: int, p, floor, resolve):
    """The scalar loop the vectorised gap scan replaced, kept as its oracle:
    each gap, in canonical order, decided by `numerics.violation` against
    its radius, and `resolve` asked wherever that leaves it undecided.

    The loop summed cs[v] with `sum()`, which adds floats left to right up
    to Python 3.11 (3.12 compensates); the explicit loop keeps that order.
    """
    npts = len(dp)
    zero_diagonal = all(dp[i][i] == 0 for i in range(npts))
    largest = (max(abs(v) for row in dp for v in row)
               if any(v < 0 for row in dp for v in row) else None)
    min_gap = None
    scanned = 0
    for n in range(2, max_size + 1):
        rel = gap_radius(p, max(n * (n - 1) // 2, 2 * n - 2))
        terms = 2 * n * n - n
        absolute = terms * floor
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
                if yi == xi and zero_diagonal:
                    continue
                if not math.isnan(gap) and (min_gap is None or gap < min_gap):
                    min_gap = gap
                mags = 2 * lhs + gap if largest is None else terms * largest
                verdict = violation(gap, rel * mags + absolute)
                if verdict is None:
                    verdict = resolve(xs, families[yi])
                if verdict:
                    return (xs, families[yi]), min_gap, scanned
    return None, min_gap, scanned


def dp_matrix(space, p):
    return DistanceIndex(space).power_matrix(p)


def parity(xs, ys):
    """A stand-in resolve: deterministic, and answering both ways."""
    return sum(xs) % 2 == 1


def assert_same_scan(dp, max_size, p, resolve=parity):
    calls = {}
    for name, scan in (("kernel", kernels.min_gap_scan),
                       ("loop", reference_min_gap_scan)):
        asked = calls[name] = []

        def recording(xs, ys):
            asked.append((xs, ys))
            return resolve(xs, ys)

        calls[name + "-result"] = scan(dp, max_size, p, FLOOR, recording)
    got = calls["kernel-result"]
    # repr is exact for floats, ints and tuples of them, and it also
    # matches a NaN min_gap, which == never does
    assert repr(got) == repr(calls["loop-result"])
    assert calls["kernel"] == calls["loop"]
    witness, min_gap, scanned = got
    assert type(scanned) is int
    assert min_gap is None or type(min_gap) is float
    if witness is not None:
        assert all(type(i) is int for fam in witness for i in fam)
    return got


def exact_resolve(space, p):
    """resolve by the exact gap: integer p on rational distances."""
    def resolve(xs, ys):
        return simplex_gap(space, DoubleSimplex(xs, ys), p).gap < 0
    return resolve


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
    # and its kin: each sits inside its radius, and the exact gap settles
    # it as clean; X = Y configurations are never asked about
    space = cycle_graph_space(4)
    asked = []

    def resolve(xs, ys):
        asked.append((xs, ys))
        return exact_resolve(space, 1)(xs, ys)

    witness, min_gap, scanned = assert_same_scan(dp_matrix(space, 1), 3, 1,
                                                 resolve)
    assert witness is None
    assert min_gap == 0.0
    assert scanned == 55 + 210  # cwr(4,2) and cwr(4,3) family pairs
    assert ((0, 2), (1, 3)) in asked
    assert all(xs != ys for xs, ys in asked)
    assert all(simplex_gap(space, DoubleSimplex(xs, ys), 1).gap == 0
               for xs, ys in asked)


def test_min_gap_scan_finds_first_violation():
    # squared 4-cycle distances violate at p=1; the scan stops at the first
    # witness in canonical order
    d = [[0, 1, 4, 1], [1, 0, 1, 4], [4, 1, 0, 1], [1, 4, 1, 0]]
    dp = [[float(v) for v in row] for row in d]
    witness, min_gap, scanned = assert_same_scan(dp, 2, 1.0)
    assert witness == ((0, 2), (1, 3))
    assert min_gap == 4.0 * 1.0 - (4.0 + 4.0)
    assert scanned == 10 + 9 + 5  # stops at families 2 and 6 of cwr(4,2)


@pytest.mark.parametrize("seed", range(5))
def test_min_gap_scan_matches_reference(seed, scan_only):
    # the last probes sit where the smallest gaps are nearest their
    # radius, so a reassociated sum would flip decisions there
    space = random_rational_metric_space(6 + seed, seed)
    probes = [pr["p"] for pr in
              estimate_roundness(space, max_size=3, p_tolerance=1e-4).probes]
    for p in sorted(set(probes[-4:] + [0.5, 1.0, 2.5])):
        dp = dp_matrix(space, p)
        for max_size in (2, 3, 4):
            assert_same_scan(dp, max_size, p)


@pytest.mark.parametrize("seed", range(6))
def test_min_gap_scan_agrees_with_exact_gaps(seed):
    # at integer p on rational distances the first violation the scan
    # proves, resolving undecided gaps exactly, is the first whose exact
    # gap is negative, and a clean scan has none
    space = random_rational_metric_space(5 + seed % 3, seed)
    for p in (1, 2, 3, 16):
        witness, _, _ = kernels.min_gap_scan(
            dp_matrix(space, p), 3, p, FLOOR, exact_resolve(space, p))
        expected = None
        for n in (2, 3):
            families = list(itertools.combinations_with_replacement(
                range(space.size), n))
            for i, xs in enumerate(families):
                for ys in families[i:]:
                    if (expected is None and simplex_gap(
                            space, DoubleSimplex(xs, ys), p).gap < 0):
                        expected = (xs, ys)
        assert witness == expected, (p, witness, expected)


def test_min_gap_scan_small_inputs():
    assert assert_same_scan([], 4, 1.0) == (None, None, 0)
    # one point: one all-zero configuration per family size, X = Y, so no
    # gap is decided and none is the least
    assert assert_same_scan([[0.0]], 4, 1.0) == (None, None, 3)


def test_min_gap_scan_refuses_infinite_entries():
    # an infinite entry gives gaps with no radius (inf - inf is NaN); the
    # power matrix never holds one, its entries being at most 1
    inf = float("inf")
    for dp in ([[0.0, inf], [inf, 0.0]], [[math.nan, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            kernels.min_gap_scan(dp, 3, 1.0, FLOOR, parity)


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
def test_min_gap_scan_matches_reference_across_blocks(block, monkeypatch):
    # the cases above each fit one default block; small blocks split every
    # scan into many
    monkeypatch.setattr(kernels, "GAP_BLOCK", block)
    # a negative diagonal e puts the first gap, X = Y, at 2e: past 0 and
    # on it; a nonzero diagonal leaves X = Y gaps to be decided, and the
    # scan reads any matrix as the loop does, so asymmetric ones tell the
    # scanned pairs from their swaps
    for e in (-0.05, -5e-324, -0.0):
        assert_same_scan([[e, 1.0], [1.0, 0.0]], 3, 1.0)
    rng = random.Random(block)
    for npts in (3, 4, 5, 6):
        dp = [[rng.choice((0.0, 0.5, 1.0, 2.0, 3.0)) for _ in range(npts)]
              for _ in range(npts)]
        for p in (1.0, 2.0):
            assert_same_scan(dp, 3, p)
    # gaps of exactly 0 off X = Y are undecided: the 4-cycle has them
    assert_same_scan(dp_matrix(cycle_graph_space(4), 1), 3, 1)
    for npts, seed, p in ((5, 5, 2.5), (6, 0, 2.0), (6, 0, 3.0), (6, 6, 2.5),
                          (7, 4, 2.0), (8, 0, 1.5)):
        dp = dp_matrix(random_rational_metric_space(npts, seed), p)
        for max_size in (2, 3):
            assert_same_scan(dp, max_size, p)


def test_min_gap_scan_first_violation_inside_a_later_block(monkeypatch):
    # the first violation sits in the second block, and neither its first
    # family is the block's first nor its second family is: the first hit
    # of a block is taken in (X, Y) order wherever it lies in the block
    monkeypatch.setattr(kernels, "GAP_BLOCK", 500)
    dp = dp_matrix(random_rational_metric_space(6, 0), 2.0)
    witness, _, scanned = assert_same_scan(dp, 3, 2.0)
    families = list(itertools.combinations_with_replacement(range(6), 3))
    xi, yi = families.index(witness[0]), families.index(witness[1])
    x0 = _gap_block_of(6, 3, xi)
    assert x0 > 0 and xi > x0 and yi > x0
    assert witness == ((0, 3, 5), (4, 4, 4)) and scanned == 1083


def test_min_gap_scan_counts_per_probe_frozen(monkeypatch, scan_only):
    # configs scanned by each probe of the 20-point space, less the clean
    # p = 0 probe, which does not scan: every violating probe moves the
    # upper end to its witness's crossing and the one clean scan, at
    # upper - tol, closes the bracket; one more scan of 20 points reuses
    # the cached family index. No gap outside X = Y lies within its
    # radius, so no probe resolves one
    scans = []
    scan = kernels.min_gap_scan
    resolved = []

    def recording(dp, max_size, p, floor, resolve):
        def counting(xs, ys):
            resolved.append((xs, ys))
            return resolve(xs, ys)
        result = scan(dp, max_size, p, floor, counting)
        scans.append(result[2])
        return result

    monkeypatch.setattr(kernels, "min_gap_scan", recording)
    space = random_rational_metric_space(20, 0)
    est = estimate_roundness(space, max_size=3, p_tolerance=1e-3)
    clean = exhaustive_config_count(20, 3)
    assert clean == 1208725
    assert scans == [30, 64, 74, 273, 304, 1313, 1329, 6516, 14182, 63993,
                     64249, 187614, 407362, 519915, clean]
    assert scans.count(clean) == 1
    assert resolved == []
    assert [probe["violation"] for probe in est.probes[1:]] \
        == [True] * 14 + [False]
    misses = kernels._family_index.cache_info().misses
    scan(dp_matrix(space, 1.0), 3, 1.0, FLOOR, parity)
    assert kernels._family_index.cache_info().misses == misses


def test_min_gap_scan_clean_scans_everything():
    # subsets of the line have roundness 2, so p=1.5 never violates
    space = path_graph_space(8)
    witness, min_gap, scanned = assert_same_scan(
        dp_matrix(space, 1.5), 4, 1.5,
        lambda xs, ys: roundness.certify_violation(
            space, DoubleSimplex(xs, ys), 1.5))
    assert witness is None
    assert scanned == exhaustive_config_count(8, 4)
