"""Word metrics, the cyclic-product comparison, roundness probes, and the
block projection check."""

import hashlib
import tracemalloc

import pytest

from roundlab import cayley
from roundlab.cayley import (ExplicitGenerators, FamilyGenerators, bfs_ball,
                             block_projection_check, cayley_roundness_upper,
                             projection_generators, standard_basis_generators,
                             verify_mstar_isometry)
from roundlab.cycles import cyclic_distance

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
    # a nonpositive dim is refused as FamilyGenerators refuses it
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be positive"):
            standard_basis_generators(dim)


def test_word_distance_explicit_bfs():
    ball = bfs_ball(standard_basis_generators(2).enumerate(), 5)
    assert ball[(2, 3)] == 5
    assert ball[(0, 0)] == 0
    assert (3, 3) not in ball  # six steps away, past the radius


def test_word_distance_family_solver():
    # jump 5 plus two units
    assert FamilyGenerators(1, 5, "merged").distance([7]) == 3
    assert FamilyGenerators(1, 5, "merged").distance([50]) == 10
    # exact at any size, with no walk over |w| / jump: the floor-and-ceiling
    # candidates alone, so 10**30 and 2**70 return at once
    for variant in ("merged", "literal"):
        gens = FamilyGenerators(1, 3, variant)
        assert gens.distance([10 ** 30]) == (10 ** 30 - 1) // 3 + 1
        assert gens.distance([-2 ** 70]) == (2 ** 70 - 1) // 3 + 1
    # 2**70 jumps plus one unit: merged mixes the unit into a jump step,
    # literal spends a step on it
    assert FamilyGenerators(2, 3, "merged").distance([3 * 2 ** 70, 1]) \
        == 2 ** 70
    assert FamilyGenerators(2, 3, "literal").distance([3 * 2 ** 70, 1]) \
        == 2 ** 70 + 1
    for variant in ("merged", "literal"):
        with pytest.raises(ValueError, match="length 3, expected 2"):
            FamilyGenerators(2, 3, variant).distance([1, 2, 3])


# (dim, radius): each ball stays inside SUM_LIMIT for jumps 2-6
_BALL_RADII = ((1, 12), (2, 6), (3, 3))


@pytest.mark.parametrize("variant", ["merged", "literal"])
def test_family_solver_matches_bfs(variant):
    # every state of every ball, 87,366 in all
    states = 0
    for dim, radius in _BALL_RADII:
        for jump in range(2, 7):
            gens = FamilyGenerators(dim, jump, variant)
            ball = bfs_ball(gens.enumerate(), radius)
            assert {s: gens.distance(s) for s in ball} == ball, (dim, jump)
            states += len(ball)
    assert states == {"merged": 55_027, "literal": 32_339}[variant]


def test_family_solver_merged_vs_literal_diverge():
    # one mixed step suffices merged; literal pays for the unit separately
    assert FamilyGenerators(2, 3, "merged").distance((1, 3)) == 1
    assert FamilyGenerators(2, 3, "literal").distance((1, 3)) == 2


def test_bfs_ball_diamond():
    ball = bfs_ball(standard_basis_generators(2).enumerate(), 2)
    assert len(ball) == 13
    assert ball[(1, 1)] == 2
    for gens in ([], [(1, 0), (1,)]):
        with pytest.raises(ValueError, match="nonempty list"):
            bfs_ball(gens, 2)
    basis = standard_basis_generators(2).enumerate()
    assert bfs_ball(basis, 0) == {(0, 0): 0}
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        bfs_ball(basis, -1)


# sha256 of repr(list(bfs_ball(...).items())), recorded when the search ran
# on numpy: each depth in sorted order, distances and order both pinned
_BFS_DIGESTS = {
    "basis-2-r5": (standard_basis_generators(2), 5, 61,
                   "a865704090deff81deb4cdb48180c295"
                   "a21c3532547db0be1d777e5e88b90944"),
    "literal-3-4-r3": (FamilyGenerators(3, 4, "literal"), 3, 5061,
                       "aaa83ccd9c7a898af3ee5effc1906fa2"
                       "231182196e7eccdb259e8327d71ebe10"),
    "merged-3-4-r3": (FamilyGenerators(3, 4, "merged"), 3, 9261,
                      "43cc69f6ac1d1a9e4253883695ac144c"
                      "2e817e63ce65a67c527e1407bc324b7b"),
}


@pytest.mark.parametrize("gens, radius, size, digest", _BFS_DIGESTS.values(),
                         ids=_BFS_DIGESTS)
def test_bfs_ball_order_frozen(gens, radius, size, digest):
    ball = bfs_ball(gens.enumerate(), radius)
    assert len(ball) == size
    text = repr(list(ball.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# cyclic-product comparison

def test_mstar_space_shape(monkeypatch):
    # n = 2 compares (Z_4)^4 with the family of jump P - 1 = 3: a merged
    # scan reads the P = 4 values of |w_0|, a literal one P^2 patterns
    # from a table of the P residuals
    jumps = []

    def spy(name):
        real = getattr(cayley, name)

        def helper(a, jump, *k):
            jumps.append((name, jump))
            return real(a, jump, *k)
        monkeypatch.setattr(cayley, name, helper)

    spy("_merged_cost")
    spy("_residual")
    assert verify_mstar_isometry(2).values_scanned == 4
    assert jumps == [("_merged_cost", 3)] * 4
    jumps.clear()
    assert verify_mstar_isometry(2, "literal").values_scanned == 16
    assert jumps == [("_residual", 3)] * 4
    jumps.clear()
    assert verify_mstar_isometry(4).values_scanned == 256
    assert jumps == [("_merged_cost", 255)] * 256
    for n in (3, 0, -2):
        with pytest.raises(ValueError, match=r"^n must be even and >= 2$"):
            verify_mstar_isometry(n, "jitter")


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

    monkeypatch.setattr(cayley, "_merged_cost", refuse)
    monkeypatch.setattr(cayley, "_residual", refuse)
    for n, variant, size in ((8, "merged", 8 ** 8), (6, "literal", 6 ** 12)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"scan of {size} "):
                verify_mstar_isometry(n, variant)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, variant, peak)
    # the variant is checked before the size, even past the limit
    for n in (2, 8):
        with pytest.raises(ValueError, match="unknown variant 'jitter'"):
            verify_mstar_isometry(n, "jitter")
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
    # n = 2: period 4, jump 3; every distance here is at most 2, so a
    # radius-2 ball holds them all
    merged = bfs_ball(FamilyGenerators(4, 3, "merged").enumerate(), 2)
    for a in range(4):
        assert merged.get((a, 0, 0, 0)) == cyclic_distance(4, 0, a)
    literal = bfs_ball(FamilyGenerators(4, 3, "literal").enumerate(), 2)
    rep = verify_mstar_isometry(2, "literal")
    assert rep.mismatches
    for m in rep.mismatches:
        a0, a1 = m["abs_diff"]
        assert literal.get((a0, a1, 0, 0)) == m["word"]
        assert max(cyclic_distance(4, 0, a0), cyclic_distance(4, 0, a1)) \
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


# (generator set, admissible (g, h) pairs): the standard basis in
# dimensions 1-3, the jump families in dimensions 1-2 with jumps 2, 3, 5
_ROUNDNESS_SETS = {
    **{f"basis-{dim}": (standard_basis_generators(dim), admitted)
       for dim, admitted in ((1, 0), (2, 8), (3, 24))},
    **{f"{variant}-{dim}-{jump}": (FamilyGenerators(dim, jump, variant),
                                   admitted)
       for variant, table in (
           ("merged", {(1, 2): 0, (1, 3): 8, (1, 5): 8,
                       (2, 2): 72, (2, 3): 368, (2, 5): 368}),
           ("literal", {(1, 2): 0, (1, 3): 8, (1, 5): 8,
                        (2, 2): 72, (2, 3): 144, (2, 5): 144}))
       for (dim, jump), admitted in table.items()},
}


@pytest.mark.parametrize("gens, admissible", _ROUNDNESS_SETS.values(),
                         ids=_ROUNDNESS_SETS)
def test_roundness_closed_form_matches_bfs(gens, admissible):
    # the report's distances, read off a radius-2 ball instead; a pair the
    # probe refuses must break one of its stated conditions
    listed = gens.enumerate()
    ball = bfs_ball(listed, 2)
    admitted = 0
    for g in listed:
        for h in listed:
            gh = tuple(a + b for a, b in zip(g, h))
            hg = tuple(b - a for a, b in zip(g, h))
            try:
                rep = cayley_roundness_upper(gens, g, h)
            except ValueError:
                assert (g == h or not any(gh) or gens.contains(gh)
                        or gens.contains(hg))
                continue
            admitted += 1
            # d(0, g+h), d(g, h); then d(0, g), d(0, h), d(g+h, g), d(g+h, h)
            edges = (ball.get(gh), ball.get(hg))
            conns = (ball.get(g), ball.get(h), ball.get(tuple(-x for x in h)),
                     ball.get(tuple(-x for x in g)))
            assert edges == (2, 2) and conns == (1, 1, 1, 1), (g, h)
            assert (rep.edges, rep.conns) == (edges, conns)
            d = rep.to_dict()
            assert d["edge_distances"] == [2, 2]
            assert d["conn_distances"] == [1, 1, 1, 1]
            assert (d["critical_p"], d["gap_at_2"], d["canonical"]) \
                == (1.0, -4.0, True)
            assert d["witness"] == {"xs": [[0] * gens.dim, list(gh)],
                                    "ys": [list(g), list(h)]}
    assert admitted == admissible


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


# sha256 of repr(projection_generators(...)), recorded when the function
# listed each block's jump entries itself instead of padding the block's
# FamilyGenerators list
_PROJECTION_DIGESTS = {
    "literal-2,2-3,8": ((2, 2), (3, 8), "literal", 96,
                        "bd49d972594118ac2338b8f613494bb5"
                        "31839eb41a42a0f5ca820fdb83d71cdb"),
    "merged-2,2-3,8": ((2, 2), (3, 8), "merged", 112,
                       "9ac08bf38086258ece4bf9131533b9c0"
                       "0a89f5e56bf1b6788948a838b45d09cc"),
    "literal-1,2-2,7": ((1, 2), (2, 7), "literal", 36,
                        "0854e70c4535963636a03e00b29930e9"
                        "ae2d79b22a8363aded4d5a96a85c892a"),
    "merged-2,1,1-4,3,9": ((2, 1, 1), (4, 3, 9), "merged", 100,
                           "1d246f1278d2b8c2ddf3b90eaa70cabe"
                           "a556b3c8eb063d992a602ceaa2947a36"),
}


@pytest.mark.parametrize("dims, jumps, variant, size, digest",
                         _PROJECTION_DIGESTS.values(),
                         ids=_PROJECTION_DIGESTS)
def test_projection_generators_frozen(dims, jumps, variant, size, digest):
    gens = projection_generators(dims, jumps, variant)
    assert len(gens) == size
    assert hashlib.sha256(repr(gens).encode()).hexdigest() == digest


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
