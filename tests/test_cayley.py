"""Word metrics, the cyclic-product comparison, roundness probes, and the
block projection check."""

import tracemalloc

import numpy as np
import pytest

from roundlab import cayley
from roundlab.cayley import (CutoffExceeded, ExplicitGenerators,
                             FamilyGenerators, MStarSpace, _bfs_distance,
                             bfs_ball, block_projection_check,
                             cayley_roundness_upper, family_word_distances,
                             projection_generators, standard_basis_generators,
                             verify_mstar_isometry, word_distance)

from oracles import enumerated_mstar_pairs


def test_family_validation():
    with pytest.raises(ValueError):
        FamilyGenerators(0, 3)
    with pytest.raises(ValueError):
        FamilyGenerators(2, 1)
    with pytest.raises(ValueError):
        FamilyGenerators(2, 3, "zigzag")


def test_family_counts():
    merged = FamilyGenerators(4, 3, "merged")
    literal = FamilyGenerators(4, 3, "literal")
    assert merged.count() == 624
    assert literal.count() == 160
    assert len(merged.enumerate()) == 624
    assert len(literal.enumerate()) == 160
    assert merged.contains((1, -3, 0, 1))
    assert not merged.contains((2, 0, 0, 0))
    assert literal.contains((3, -3, 0, 3))
    assert literal.contains((1, 0, -1, 1))
    assert not literal.contains((1, 3, 0, 0))  # mixes units with jumps
    with pytest.raises(ValueError):
        FamilyGenerators(8, 3, "merged").enumerate()  # 390624 generators


def test_explicit_generator_validation():
    with pytest.raises(ValueError):
        ExplicitGenerators.make(2, [(1, 0)])  # inverse missing
    with pytest.raises(ValueError):
        ExplicitGenerators.make(2, [(0, 0)])
    gens = standard_basis_generators(2)
    assert gens.count() == 4
    assert gens.contains((0, -1))
    assert not gens.contains((1, 1))


def test_word_distance_explicit_bfs():
    gens = standard_basis_generators(2)
    assert word_distance((0, 0), (2, 3), gens) == 5
    assert word_distance((1, 1), (1, 1), gens) == 0
    with pytest.raises(CutoffExceeded) as exc:
        word_distance((0, 0), (2, 3), gens, cutoff=3)
    assert exc.value.lower_bound == 4


def test_word_distance_family_cutoff():
    gens = FamilyGenerators(1, 5, "merged")
    assert word_distance((0,), (7,), gens) == 3  # jump 5 plus two units
    with pytest.raises(CutoffExceeded) as exc:
        word_distance((0,), (50,), gens, cutoff=5)
    assert exc.value.lower_bound == 10


@pytest.mark.parametrize("variant", ["merged", "literal"])
def test_family_solver_matches_bfs(variant):
    gens = FamilyGenerators(3, 4, variant)
    ball = bfs_ball(gens.enumerate(), 3)
    states = np.array(list(ball), dtype=np.int64)
    depths = np.array([ball[tuple(s)] for s in states.tolist()])
    solved = family_word_distances(states, 4, variant)
    assert np.array_equal(solved, depths)


def test_family_solver_merged_vs_literal_diverge():
    # one mixed step suffices merged; literal pays for the unit separately
    d = np.array([[1, 3]], dtype=np.int64)
    assert family_word_distances(d, 3, "merged")[0] == 1
    assert family_word_distances(d, 3, "literal")[0] == 2


def test_bfs_ball_diamond():
    ball = bfs_ball(standard_basis_generators(2).enumerate(), 2)
    assert len(ball) == 13
    assert ball[(1, 1)] == 2
    with pytest.raises(ValueError):
        bfs_ball([], 2)


# ---------------------------------------------------------------------------
# cyclic-product comparison

def test_mstar_space_shape():
    space = MStarSpace(2)
    assert space.coords == 4
    assert space.period == 4
    assert space.jump == 3
    assert space.distance((1, 1, 1, 1), (1, 1, 2, 4)) == 1
    with pytest.raises(ValueError):
        MStarSpace(3)
    with pytest.raises(ValueError):
        space.distance((0, 1, 1, 1), (1, 1, 1, 1))


def test_mstar_merged_exhaustive_clean():
    rep = verify_mstar_isometry(2, "merged")
    assert rep.ok
    assert rep.values_scanned == 4
    assert rep.mismatch_count == 0
    assert rep.max_word_distance == 2
    assert rep.to_dict()["covers"] == "every pair"


def test_mstar_literal_exhaustive_fails():
    rep = verify_mstar_isometry(2, "literal")
    assert not rep.ok
    assert rep.values_scanned == 16
    assert rep.mismatch_count == 2
    assert rep.max_word_distance == 2
    assert rep.mismatches == [
        {"abs_diff": [1, 3], "cyclic": 1, "word": 2},
        {"abs_diff": [3, 1], "cyclic": 1, "word": 2}]
    assert rep.to_dict()["covers"] == (
        "pairs whose difference has at most 2 nonzero coordinates")


@pytest.mark.parametrize("variant, n, scanned, mismatches, max_word, first", [
    ("merged", 4, 256, 0, 128, None),
    ("merged", 6, 46_656, 0, 23_328, None),
    ("literal", 4, 65_536, 16_256, 128, [1, 255]),
])
def test_mstar_scan_pinned(variant, n, scanned, mismatches, max_word, first):
    rep = verify_mstar_isometry(n, variant)
    assert rep.values_scanned == scanned
    assert rep.mismatch_count == mismatches
    assert rep.max_word_distance == max_word
    assert len(rep.mismatches) == min(mismatches, 20)
    if first is not None:
        assert rep.mismatches[0]["abs_diff"] == first
    diffs = [m["abs_diff"] for m in rep.mismatches]
    assert diffs == sorted(diffs)


def test_mstar_scan_over_enum_limit_refused(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no scan expected")

    monkeypatch.setattr(cayley, "family_word_distances", refuse)
    for n, variant, size in ((8, "merged", 8 ** 8), (6, "literal", 6 ** 12)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"scan of {size} "):
                verify_mstar_isometry(n, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, variant, peak)
    with pytest.raises(ValueError, match="unknown variant"):
        verify_mstar_isometry(2, "jitter")
    with pytest.raises(ValueError):
        verify_mstar_isometry(3)


def test_mstar_proof_clean_and_deterministic():
    a = verify_mstar_isometry(4)
    assert a.ok
    assert a.values_scanned == 256
    assert a.to_dict() == verify_mstar_isometry(4).to_dict()
    c = verify_mstar_isometry(4, variant="literal")
    assert not c.ok
    assert c.to_dict() == verify_mstar_isometry(4, variant="literal").to_dict()


def _abs_pattern(diff):
    """|diff| on its nonzero coordinates, padded to two and sorted, or None
    when more than two coordinates differ."""
    nonzero = [abs(int(x)) for x in diff if x]
    if len(nonzero) > 2:
        return None
    return tuple(sorted(nonzero + [0] * (2 - len(nonzero))))


@pytest.mark.parametrize("variant", ["merged", "literal"])
def test_mstar_scan_agrees_with_pair_enumeration(variant):
    u, v, word, cyc = enumerated_mstar_pairs(2, variant)
    assert len(u) == 32_640
    bad = word != cyc
    rep = verify_mstar_isometry(2, variant)
    assert rep.ok == (not bad.any())
    assert rep.mismatch_count == len(rep.mismatches)
    mismatched = {(tuple(a), tuple(b))
                  for a, b in zip(u[bad].tolist(), v[bad].tolist())}
    # each witness, expanded into a full pair, is an enumerated mismatch
    for m in rep.mismatches:
        a0, a1 = m["abs_diff"]
        assert ((1, 1, 1, 1), (1 + a0, 1 + a1, 1, 1)) in mismatched
    # and every enumerated mismatch of support <= 2 is a witness up to
    # signs and coordinate order
    enumerated = {_abs_pattern(d) for d in (v[bad] - u[bad]).tolist()}
    enumerated.discard(None)
    assert enumerated == {tuple(sorted(m["abs_diff"])) for m in rep.mismatches}
    if variant == "merged":
        assert rep.max_word_distance == int(word.max())


def test_mstar_scan_values_match_bfs():
    space = MStarSpace(2)
    merged = ExplicitGenerators.make(
        4, FamilyGenerators(4, 3, "merged").enumerate())
    for a in range(space.period):
        cyclic = space.distance((1, 1, 1, 1), (1 + a, 1, 1, 1))
        assert _bfs_distance((a, 0, 0, 0), merged, 4) == cyclic
    literal = ExplicitGenerators.make(
        4, FamilyGenerators(4, 3, "literal").enumerate())
    rep = verify_mstar_isometry(2, "literal")
    assert rep.mismatches
    for m in rep.mismatches:
        a0, a1 = m["abs_diff"]
        assert _bfs_distance((a0, a1, 0, 0), literal, 4) == m["word"]
        assert space.distance((1, 1, 1, 1), (1 + a0, 1 + a1, 1, 1)) \
            == m["cyclic"]


# ---------------------------------------------------------------------------
# roundness probes

def test_roundness_z2():
    gens = standard_basis_generators(2)
    rep = cayley_roundness_upper(gens, (1, 0), (0, 1))
    assert rep.edges == (2, 2)
    assert rep.conns == (1, 1, 1, 1)
    assert rep.canonical
    assert rep.critical_p == 1.0
    assert rep.gap_at_2 == -4.0
    assert rep.witness.xs == ((0, 0), (1, 1))


def test_roundness_probe_dim4():
    gens = FamilyGenerators(4, 3, "merged")
    rep = cayley_roundness_upper(gens, (1, 1, 1, 1), (1, -1, 1, -1))
    assert rep.edges == (2, 2)
    assert rep.conns == (1, 1, 1, 1)
    assert rep.critical_p == 1.0
    assert rep.gap_at_2 == -4.0
    d = rep.to_dict()
    assert d["statement"].startswith("roundness")


def test_roundness_probe_degeneracies():
    merged2 = FamilyGenerators(2, 3, "merged")
    with pytest.raises(ValueError):
        # e1 + e2 is itself a merged generator
        cayley_roundness_upper(merged2, (1, 0), (0, 1))
    gens = standard_basis_generators(2)
    with pytest.raises(ValueError):
        cayley_roundness_upper(gens, (1, 0), (1, 0))
    with pytest.raises(ValueError):
        cayley_roundness_upper(gens, (1, 0), (-1, 0))
    with pytest.raises(ValueError):
        cayley_roundness_upper(gens, (2, 0), (0, 1))  # not a generator


# ---------------------------------------------------------------------------
# block projection

def test_projection_generators_literal_count():
    gens = projection_generators((2, 2), (3, 8), "literal")
    assert len(gens) == 96  # 8 jumps per block plus 80 unit moves
    assert all(any(g) for g in gens)
    as_set = set(gens)
    assert all(tuple(-x for x in g) in as_set for g in gens)
    with pytest.raises(ValueError):
        projection_generators((2, 2), (3,), "literal")


def test_block_projection_default_toy():
    rep = block_projection_check()
    assert rep.ok
    assert rep.mismatch_count == 0
    assert rep.states_full == 15769
    assert len(rep.block_reports) == 2
    assert all(b["generators"] == 16 for b in rep.block_reports)
    assert all(b["states_checked_in_full"] > 0 for b in rep.block_reports)


def test_block_projection_merged_toy():
    rep = block_projection_check(variant="merged", radius=2)
    assert rep.ok
    assert rep.mismatch_count == 0
