"""The hot-loop kernels: census, class partners, r=2 counts, gap scan."""

import itertools

import pytest

from roundlab import kernels


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
