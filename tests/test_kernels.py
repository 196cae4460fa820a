"""The hot-loop kernels: census, class partners, r=2 counts, gap scan."""

import hashlib
import itertools
import math

import pytest

from roundlab import kernels, roundness
from roundlab.cyclic import DoubleSimplex
from roundlab.roundness import (DistanceIndex, exhaustive_config_count,
                                simplex_gap)
from roundlab.spaces import (cycle_graph_space, path_graph_space,
                             random_rational_metric_space)


FLOOR = 2.0 ** -1072


def dp_matrix(space, p):
    return DistanceIndex(space).power_matrix(p)


def parity(xs, ys):
    """A stand-in resolve: deterministic, and answering both ways."""
    return sum(xs) % 2 == 1


def checked_scan(dp, max_size, p, resolve=parity):
    """`kernels.min_gap_scan` at FLOOR, the types of its result checked."""
    got = kernels.min_gap_scan(dp, max_size, p, FLOOR, resolve)
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

    witness, min_gap, scanned = checked_scan(dp_matrix(space, 1), 3, 1,
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
    witness, min_gap, scanned = checked_scan(dp, 2, 1.0)
    assert witness == ((0, 2), (1, 3))
    assert min_gap == 4.0 * 1.0 - (4.0 + 4.0)
    assert scanned == 10 + 9 + 5  # stops at families 2 and 6 of cwr(4,2)


def test_min_gap_scan_first_violation_inside_a_later_block():
    # the first violation sits deep in the size-3 families, and neither its
    # first family is the first of its size nor its second family is: the
    # first hit is taken in (X, Y) order wherever it lies
    dp = dp_matrix(random_rational_metric_space(6, 0), 2.0)
    witness, _, scanned = checked_scan(dp, 3, 2.0)
    families = list(itertools.combinations_with_replacement(range(6), 3))
    xi, yi = families.index(witness[0]), families.index(witness[1])
    assert 0 < xi < yi
    assert witness == ((0, 3, 5), (4, 4, 4)) and scanned == 1083


# the last four probes the scan bracket of families up to 3 points took
# at p_tolerance 1e-4 when `estimate_roundness` still scanned, where the
# smallest gaps sit nearest their radius
SCAN_PROBES = {
    0: [2.073882658884571, 2.063770638964913, 2.021251331999618,
        1.7653359647087978],
    1: [2.023043382048949, 2.0049209297688773, 1.2321088527883663,
        1.1444487085329682],
    2: [1.3794346475679982, 1.3668090909603188, 1.3613156764543641,
        1.326800312050377],
    3: [1.0533819781686509, 0.9999000000000042, 0.9857225593332493,
        0.9348879404911757],
    4: [1.5978227771490032, 1.5642260270660697, 1.3095781178470323,
        1.127699101489006],
}

# sha256 of the results and resolve calls of the scans below, recorded
# from the numpy block kernel, which summed every gap in this order
SCAN_DIGESTS = {
    0: "9bb316511861110c35964b8be18bf722a9736609c3d0fe05bfb8575e568ecc74",
    1: "b9dd14a49ddef1f55131831e10ab8d0987948e358580495eb12bf5cb641e8c70",
    2: "bc640a86029e1f01572415cca1b05352a6369a7e6e4a02cf2fc56e9e76ebdee7",
    3: "77ae092ea8bc8c9255b3b5b3caa4077175e67bf59f0936848fa303c4106e1b23",
    4: "d7caec46ec78b28a3accd0b83b3731583e0e1bcf60f6d03b829c806bb3a2b022",
}


@pytest.mark.parametrize("seed", range(5))
def test_min_gap_scan_matches_reference(seed):
    # a reassociated sum would flip decisions at these probes: every
    # witness, least gap (by repr, so bit for bit), count and resolve
    # call is the block kernel's
    space = random_rational_metric_space(6 + seed, seed)
    text = []
    for p in sorted(set(SCAN_PROBES[seed] + [0.5, 1.0, 2.5])):
        dp = dp_matrix(space, p)
        for max_size in (2, 3, 4):
            asked = []

            def recording(xs, ys):
                asked.append((xs, ys))
                return parity(xs, ys)

            text.append(repr((checked_scan(dp, max_size, p, recording),
                              asked)))
    digest = hashlib.sha256("\n".join(text).encode()).hexdigest()
    assert digest == SCAN_DIGESTS[seed]


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
    assert checked_scan([], 4, 1.0) == (None, None, 0)
    # one point: one all-zero configuration per family size, X = Y, so no
    # gap is decided and none is the least
    assert checked_scan([[0.0]], 4, 1.0) == (None, None, 3)


def test_min_gap_scan_refuses_infinite_entries():
    # an infinite entry gives gaps with no radius (inf - inf is NaN); the
    # power matrix never holds one, its entries being at most 1
    inf = float("inf")
    for dp in ([[0.0, inf], [inf, 0.0]], [[math.nan, 1.0], [1.0, 0.0]]):
        with pytest.raises(ValueError, match="finite"):
            kernels.min_gap_scan(dp, 3, 1.0, FLOOR, parity)


def test_min_gap_scan_clean_scans_everything():
    # subsets of the line have roundness 2, so p=1.5 never violates
    space = path_graph_space(8)
    witness, min_gap, scanned = checked_scan(
        dp_matrix(space, 1.5), 4, 1.5,
        lambda xs, ys: roundness.certify_violation(
            space, DoubleSimplex(xs, ys), 1.5))
    assert witness is None
    assert scanned == exhaustive_config_count(8, 4)
