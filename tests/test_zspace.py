"""Block-union distance audit: literal violations, corrected certificate,
ball counts, and point serialization."""

import math
from fractions import Fraction

import pytest

from oracles import representatives_space
from roundlab.cycles import stage_space
from roundlab.metric import validate_metric
from roundlab.zspace import (DENSE_COORD_LIMIT, BallCensus, ZPoint,
                             ball_census, block_diameter, block_distance,
                             certify_corrected, cross_distance,
                             find_triangle_violation,
                             scan_triangle_violations, zeta)


def test_block_shape():
    # block 2 is stage_space(2): 4 coordinates, 16 units, quantum 1/4
    antipode = ZPoint.antipode(2)
    assert antipode.to_dict() == {"block": 2, "residues": [8, 0, 0, 0]}
    assert block_distance(ZPoint.zero(2), antipode) == 2
    assert block_distance(ZPoint.zero(2), ZPoint.make(2, {3: 15})) \
        == Fraction(1, 4)
    assert block_diameter(2) == 2
    assert block_diameter(8) == 8388608


def test_zpoint_validation():
    with pytest.raises(ValueError):
        ZPoint.make(3)  # odd block
    with pytest.raises(ValueError):
        ZPoint(2, ((4, 1),))  # coordinate out of range
    with pytest.raises(ValueError):
        ZPoint(2, ((0, 16),))  # residue out of range
    with pytest.raises(ValueError):
        ZPoint(2, ((0, 1), (0, 2)))  # repeated coordinate
    # make drops explicit zeros instead of rejecting them
    assert ZPoint.make(2, {0: 0, 1: 3}).residues == ((1, 3),)


def test_block_distance_min_arc_and_sup():
    x = ZPoint.make(2, {0: 15})
    assert block_distance(x, ZPoint.zero(2)) == Fraction(1, 4)
    a = ZPoint.make(2, {0: 1, 1: 7})
    b = ZPoint.make(2, {1: 2})
    assert block_distance(a, b) == Fraction(5, 4)
    with pytest.raises(ValueError):
        block_distance(ZPoint.zero(2), ZPoint.zero(4))


def test_zeta_variants():
    assert zeta(ZPoint.zero(2), ZPoint.antipode(2)) == 2
    assert zeta(ZPoint.zero(4), ZPoint.zero(6), "literal") == 4 ** 10
    assert zeta(ZPoint.zero(4), ZPoint.zero(6), "corrected") == 4 ** 4 + 6 ** 6
    with pytest.raises(ValueError):
        cross_distance(2, 4, "garbled")


# ---------------------------------------------------------------------------
# literal violations

def test_literal_cross_detour():
    hit = find_triangle_violation("literal", 6)
    assert hit is not None
    assert hit.kind == "cross_detour"
    assert (hit.x.block, hit.y.block, hit.z.block) == (4, 6, 2)
    assert hit.lhs == 1048576
    assert hit.rhs == 69632
    assert hit.slack == 978944


def test_literal_within_block_detour():
    hits = scan_triangle_violations("literal", 8)
    within = [h for h in hits if h.kind == "within_block_detour"]
    assert len(within) == 1
    h = within[0]
    assert (h.x.block, h.z.block) == (8, 2)
    assert h.y == ZPoint.antipode(8)
    assert h.lhs == 8388608
    assert h.rhs == 2097152


def test_literal_scan_bound8_inventory():
    hits = scan_triangle_violations("literal", 8)
    cross = [(h.x.block, h.y.block, h.z.block)
             for h in hits if h.kind == "cross_detour"]
    assert cross == [(4, 6, 2), (4, 8, 2), (6, 8, 2), (6, 8, 4)]
    assert all(h.lhs > h.rhs for h in hits)


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_triangle_violations("zany", 6)
    with pytest.raises(ValueError):
        scan_triangle_violations("literal", 1)


# ---------------------------------------------------------------------------
# corrected certificate

def test_corrected_has_no_violations():
    assert find_triangle_violation("corrected", 12) is None


def test_corrected_certificate_counts():
    cert6 = certify_corrected(6)
    assert cert6.ok
    assert cert6.checked_cases == 192  # (3^3 - 3) shapes * 8 extreme picks
    cert8 = certify_corrected(8)
    assert cert8.ok
    assert cert8.checked_cases == 480
    cert12 = certify_corrected(12)
    assert cert12.ok
    assert cert12.checked_cases == 1680
    assert cert12.violations == []


def test_corrected_certificate_dict():
    d = certify_corrected(6).to_dict()
    assert d["ok"] is True
    assert d["block_bound"] == 6
    assert d["violations"] == []


# ---------------------------------------------------------------------------
# ball census

def test_ball_census_small_radius():
    cen = ball_census(ZPoint.zero(2), Fraction(1, 2))
    assert cen.total == 625
    assert [e.block for e in cen.entries] == [2]
    assert cen.entries[0].formula == "5^4"


def test_ball_census_radius_growth():
    totals = [ball_census(ZPoint.zero(2), r).total
              for r in (0, Fraction(1, 4), Fraction(1, 2), 1)]
    assert totals == [1, 81, 625, 6561]
    assert totals == sorted(totals)


def test_ball_census_crossing_threshold():
    # the corrected cross distance from block 2 to block 4 is 4 + 256 = 260
    below = ball_census(ZPoint.zero(2), 259, block_bound=4)
    assert below.total == 65536  # own block saturates at units^coords
    at = ball_census(ZPoint.zero(2), 260, block_bound=4)
    assert [e.block for e in at.entries] == [2, 4]
    assert at.total == 65536 + 65536 ** 256


def test_ball_census_digit_estimate():
    # block 6 has 46656 coordinates, past the dense limit
    assert stage_space(6).coords > DENSE_COORD_LIMIT
    cen = ball_census(ZPoint.zero(2), 4 + 6 ** 6, block_bound=6)
    assert [e.block for e in cen.entries] == [2, 4, 6]
    assert cen.entries[2].count is None
    assert cen.total is None
    top = 46656 * 12 * math.log10(6)
    assert cen.total_log10 == pytest.approx(top, rel=1e-9)
    assert cen.entries[2].count_log10 == pytest.approx(top, rel=1e-12)


def test_ball_census_validation():
    with pytest.raises(ValueError):
        ball_census(ZPoint.zero(2), -1)
    with pytest.raises(ValueError):
        ball_census(ZPoint.zero(2), 1, variant="zany")


def test_ball_census_dict_round():
    d = ball_census(ZPoint.zero(2), Fraction(1, 2)).to_dict()
    assert d["total"] == 625
    assert d["center"]["block"] == 2
    assert isinstance(d, dict) and isinstance(d["entries"], list)


# ---------------------------------------------------------------------------
# serialization

def test_zpoint_json_dense_round_trip():
    p = ZPoint.make(2, {0: 8, 3: 1})
    d = p.to_dict()
    assert d == {"block": 2, "residues": [8, 0, 0, 1]}
    assert ZPoint.from_json_dict(d) == p


def test_zpoint_json_sparse_round_trip():
    p = ZPoint.make(8, {12345: 7, 0: 1})
    d = p.to_dict()
    assert "sparse" in d and "residues" not in d
    assert ZPoint.from_json_dict(d) == p


def test_zpoint_json_dense_length_check():
    with pytest.raises(ValueError):
        ZPoint.from_json_dict({"block": 2, "residues": [1, 2]})
    # the block is checked before its coordinate count is read
    for block in (-2, 0, 1, 3):
        with pytest.raises(ValueError, match=f"block size must be even and "
                           f">= 2, got {block}"):
            ZPoint.from_json_dict({"block": block, "residues": [0]})


# ---------------------------------------------------------------------------
# representatives audit

def test_representatives_literal_not_metric():
    space, pts = representatives_space([2, 4, 6], "literal")
    assert len(pts) == 6
    rep = validate_metric(space)
    assert not rep.ok
    assert rep.violations


def test_representatives_corrected_is_metric():
    space, _ = representatives_space([2, 4, 6, 8], "corrected")
    rep = validate_metric(space)
    assert rep.ok
    assert space.labels[0] == "M2:zero"
    assert space.labels[1] == "M2:antipode"
