"""Level structures, the three injection builders, and the pairwise verifier."""

import math
from fractions import Fraction

import pytest

from oracles import hunted_ballchain_level, hunted_gap_level
from roundlab.inject import (RATIO_RADIUS, SeqVector, ballchain_level,
                             build_ballchain_injection, build_ell0_injection,
                             build_ellp_injection, build_injection,
                             build_level_structure, cauchy_sequence_target,
                             default_modulus_for, ell0_distance,
                             ellp_convention, ellp_distance, gap_level,
                             interval_chain_target, point_gaps,
                             resolve_modulus, verify_injection, InjectionTable)
from roundlab.metric import FiniteMetricSpace
from roundlab.exact import to_mpf
from roundlab.spaces import (cycle_graph_space, random_rational_metric_space,
                             two_point_space)


def test_seqvector_validation():
    SeqVector(((1, Fraction(1)), (3, Fraction(2))))
    with pytest.raises(ValueError):
        SeqVector(((2, 1), (2, 2)))  # level repeated
    with pytest.raises(ValueError):
        SeqVector(((3, 1), (2, 2)))  # levels decreasing
    with pytest.raises(ValueError):
        SeqVector(((1, 0),))  # zero value


def test_ell0_distance_exact():
    a = SeqVector(((1, Fraction(1)),))
    b = SeqVector(((1, Fraction(2)),))
    d = ell0_distance(a, b)
    assert d == Fraction(1, 4)
    assert isinstance(d, Fraction)
    assert ell0_distance(a, a) == 0


def test_ellp_distance_conventions():
    a = SeqVector(((1, Fraction(3)), (2, Fraction(1))))
    b = SeqVector(((2, Fraction(5)),))
    assert ellp_distance(a, b, 1) == 7
    assert ellp_distance(a, b, 2) == 5  # 3-4-5 triangle
    assert ellp_distance(a, b, Fraction(1, 2)) == 3 ** Fraction(1, 2) + 2
    assert ellp_convention(2) == "norm"
    assert ellp_convention(Fraction(1, 2)) == "pth_power_metric"
    with pytest.raises(ValueError):
        ellp_distance(a, b, 0)


def test_gap_level():
    assert gap_level(Fraction(1)) == 1
    assert gap_level(Fraction(2)) == 1
    assert gap_level(Fraction(1, 2)) == 2
    assert gap_level(Fraction(1, 3)) == 3
    with pytest.raises(ValueError):
        gap_level(0)
    with pytest.raises(ValueError):
        gap_level(None)


def test_level_structure_shrinks_and_empties():
    # seed 5 puts every point on level 1; seed 1 spreads them over four
    for seed, levels in ((5, 1), (1, 4)):
        space = random_rational_metric_space(12, seed=seed)
        st = build_level_structure(space)
        assert st.levels == max(st.kappas) == len(st.h_index) == levels
        # A_n is the set of points without an index at level n
        excluded = [set(range(space.size)) - set(idx) for idx in st.h_index]
        for earlier, later in zip(excluded, excluded[1:]):
            assert later <= earlier
        assert excluded[-1] == set()
        for lvl, idx in enumerate(st.h_index, 1):
            assert sorted(idx) == [i for i in range(space.size)
                                   if Fraction(2, 2 ** lvl) <= st.gaps[i]]
            assert sorted(idx.values()) == list(range(1, len(idx) + 1))
        gaps = point_gaps(space)
        assert list(st.gaps) == gaps
        assert all(Fraction(2, 2 ** k) <= g for k, g in zip(st.kappas, gaps))


def _boundary_gaps(lowest: int, ns):
    """Exact powers of two from 2^lowest to 2^8 and their neighbours on
    either side, as Fractions and floats, then the same around each 1/n."""
    gaps = []
    for t in [Fraction(2) ** e for e in range(lowest, 9)] + [
            Fraction(1, n) for n in ns]:
        gaps += [t, t * Fraction(999, 1000), t * Fraction(1001, 1000),
                 float(t), math.nextafter(float(t), 0),
                 math.nextafter(float(t), math.inf)]
    return gaps + [Fraction(3, 7), 0.3, Fraction(10 ** 9, 3)]


# the ball-chain hunt takes 1/g steps, so its gaps stay above 2^-12
@pytest.mark.parametrize("level, hunted, gaps", [
    (gap_level, hunted_gap_level, _boundary_gaps(-60, (3, 7, 10 ** 7))),
    (ballchain_level, hunted_ballchain_level,
     _boundary_gaps(-12, (3, 7, 10, 1000))),
], ids=["gap", "ballchain"])
def test_closed_form_levels_match_hunt(level, hunted, gaps):
    for g in gaps:
        assert level(g) == hunted(g), g


def test_closed_form_levels_need_no_cap():
    # far past any level a step-by-step hunt could reach
    assert gap_level(Fraction(1, 2 ** 2_000_000)) == 2_000_001
    assert ballchain_level(Fraction(1, 10 ** 7)) == 10 ** 7
    assert ballchain_level(Fraction(2, 10 ** 7 + 1)) == 5 * 10 ** 6 + 1
    assert ballchain_level(None) == 1
    with pytest.raises(ValueError):
        ballchain_level(0)


def test_single_point_warning():
    from roundlab.metric import FiniteMetricSpace
    space = FiniteMetricSpace.from_rows([[0]])
    table = build_ell0_injection(space)
    assert any("single point" in w for w in table.warnings)
    rep = verify_injection(space, table)
    assert rep.ok and rep.checked_pairs == 0


# ---------------------------------------------------------------------------
# builders on the 4-cycle

def test_ell0_two_point_quarter():
    space = two_point_space(Fraction(1))
    table = build_ell0_injection(space)
    d = ell0_distance(table.images[0], table.images[1])
    assert d == Fraction(1, 4)


def test_ell0_on_cycle_worst_ratio():
    space = cycle_graph_space(4)
    table = build_ell0_injection(space)
    rep = verify_injection(space, table)
    assert rep.ok
    assert rep.injective
    assert rep.worst_ratio == Fraction(3, 8)
    assert rep.worst_pair == (0, 3)
    assert rep.modulus == "identity"


def test_ellp_on_cycle():
    space = cycle_graph_space(4)
    for p in (Fraction(1, 2), 1, 2):
        table = build_ellp_injection(space, p)
        rep = verify_injection(space, table)
        assert rep.ok, (p, rep.violations)
        assert rep.modulus == ("identity" if p < 1 else f"root:{p}")
        assert rep.convention == ellp_convention(p)


def test_ellp_rejects_bad_p():
    with pytest.raises(ValueError):
        build_ellp_injection(cycle_graph_space(4), 0)


# ---------------------------------------------------------------------------
# seeded sweep (the acceptance run does 25 spaces; a slice keeps this fast)

@pytest.mark.parametrize("seed,size", [(0, 3), (1, 8), (2, 15), (3, 30), (4, 50)])
def test_random_space_injections(seed, size):
    space = random_rational_metric_space(size, seed=seed)
    for build in (build_ell0_injection,
                  lambda s: build_ellp_injection(s, Fraction(1, 2)),
                  lambda s: build_ellp_injection(s, 1),
                  lambda s: build_ellp_injection(s, 2)):
        table = build(space)
        rep = verify_injection(space, table)
        assert rep.injective
        assert not rep.violations
        if isinstance(rep.worst_ratio, Fraction):
            assert rep.worst_ratio <= 1
        else:
            assert rep.worst_ratio <= 1 + 1e-12


# ---------------------------------------------------------------------------
# ball chains

def test_ballchain_targets_pass():
    for target in (interval_chain_target(), cauchy_sequence_target()):
        for seed in (0, 7):
            space = random_rational_metric_space(20, seed=seed)
            table = build_ballchain_injection(space, target)
            rep = verify_injection(space, table)
            assert rep.ok, (target.name, seed, rep.violations)
            assert len(set(table.images)) == space.size


def test_ballchain_candidates_fit_their_ball():
    space = cycle_graph_space(6)
    table = build_ballchain_injection(space, interval_chain_target())
    # unit gaps put everything in ball 1; candidates 1/2, 1/3, ...
    assert table.images == [Fraction(1, k) for k in range(2, 8)]
    assert table.descriptor == "intervals"


@pytest.mark.parametrize("target", [interval_chain_target(),
                                    cauchy_sequence_target()],
                         ids=lambda t: t.name)
def test_ballchain_below_a_millionth(target):
    # a gap of 10^-7 puts both points in ball 10^7
    space = two_point_space(Fraction(1, 10 ** 7))
    table = build_ballchain_injection(space, target)
    first = 10 ** 7 + target.shift
    assert table.images == [Fraction(1, first), Fraction(1, first + 1)]
    rep = verify_injection(space, table)
    assert rep.ok


def test_load_ballchain_target():
    space = cycle_graph_space(4)
    for name in ("intervals", "cauchy"):
        table = build_injection(space, f"ballchain:{name}")
        assert table.target == "ballchain" and table.descriptor == name
    assert build_injection(space, "ell0").target == "ell0"
    assert build_injection(space, "ellp:1/2").p == Fraction(1, 2)
    for spec in ("ballchain:moebius", "ballchain:target.json", "ellp:",
                 "ellp", "ell1", "hilbert"):
        with pytest.raises(ValueError, match="unknown target"):
            build_injection(space, spec)


# ---------------------------------------------------------------------------
# verifier details

def test_verifier_catches_duplicates():
    space = cycle_graph_space(4)
    table = build_ell0_injection(space)
    table.images[3] = table.images[0]
    rep = verify_injection(space, table)
    assert not rep.injective
    assert rep.duplicate_pair == (0, 3)
    assert not rep.ok


def test_verifier_catches_expansion():
    space = cycle_graph_space(4)
    table = build_ellp_injection(space, 1)
    table.images[0] = SeqVector(((1, Fraction(1000)),))
    rep = verify_injection(space, table)
    assert rep.violations
    assert rep.violations[0]["pair"] == [0, 1]
    assert not rep.ok


def _ballchain_pair(images, d):
    """Verify a hand-built two-point ball-chain table at domain distance d."""
    table = InjectionTable(target="ballchain", images=list(images),
                           labels=("a", "b"), p=None, descriptor=None,
                           warnings=[])
    return verify_injection(two_point_space(d), table)


def test_verifier_float_ratio_boundary():
    # a float ratio is decided on the exact values, with no tolerance: 1
    # and the float below it pass, the float above 1 and 1 + 1e-13 fail,
    # as the exact ratio of the same values says
    for image, d in ((1.0, Fraction(1)), (math.nextafter(1.0, 0), 1),
                     (1 + 1e-13, Fraction(1)),
                     (math.nextafter(1.0, 2), Fraction(1)),
                     (1.0, math.nextafter(1.0, 0))):
        rep = _ballchain_pair([0.0, image], d)
        exact = Fraction(image) / Fraction(d)
        assert rep.worst_ratio == float(image) / float(d)
        assert rep.ok is (exact <= 1)
        assert rep.violations == ([] if exact <= 1 else
                                  [{"pair": [0, 1], "ratio": image / d}])


def test_verifier_decides_inexact_roots():
    # the images and the modulus are irrational here: ellp:2 coordinates
    # 2^(-n/2)(1 - 2^-j) and the root:2 modulus, decided on the float
    # ratio and its radius, checked pair by pair against a 320-bit
    # re-evaluation of the same ratio
    mpmath = pytest.importorskip("mpmath")
    space = random_rational_metric_space(7, 3)
    table = build_ellp_injection(space, 2)
    rep = verify_injection(space, table)
    assert isinstance(rep.worst_ratio, float)
    assert rep.ok
    # a domain shrunk below the images' own norm breaks the bound on
    # every pair, each by more than the float error
    shrunk = FiniteMetricSpace.from_rows(
        [[space.distance(i, j) / 10 ** 6 for j in range(7)]
         for i in range(7)])
    rep = verify_injection(shrunk, table)
    with mpmath.workprec(320):
        for v in rep.violations:
            i, j = v["pair"]
            a, b = table.images[i].as_dict(), table.images[j].as_dict()
            di = mpmath.sqrt(mpmath.fsum(
                (to_mpf(a.get(n, 0)) - to_mpf(b.get(n, 0))) ** 2
                for n in set(a) | set(b)))
            assert di > mpmath.sqrt(to_mpf(shrunk.distance(i, j)))
    assert len(rep.violations) == 21 and not rep.ok


def _ellp_table(p, *images):
    return InjectionTable(target="ellp",
                          images=[SeqVector(img) for img in images],
                          labels=tuple(map(str, range(len(images)))),
                          p=Fraction(p), descriptor=None, warnings=[])


def test_verifier_settles_tight_irrational_pairs():
    # images (1, 1) and 0 in ellp:2 sit sqrt(2) apart, the root:2 modulus
    # of distance 2: the float ratio is 1, and the bound holds with
    # equality, which the p-th powers 2 <= 2 decide exactly; a domain
    # distance 10^-30 shorter breaks it
    table = _ellp_table(2, ((1, Fraction(1)), (2, Fraction(1))), ())
    rep = verify_injection(two_point_space(Fraction(2)), table)
    assert rep.worst_ratio == 1.0 and rep.ok
    rep = verify_injection(
        two_point_space(2 - Fraction(1, 10 ** 30)), table)
    assert rep.worst_ratio == 1.0 and not rep.ok
    # thirds, which no interval holds exactly: 2/9 <= 2/9 in Fractions
    third = Fraction(1, 3)
    table = _ellp_table(2, ((1, third), (2, third)), ())
    rep = verify_injection(two_point_space(Fraction(2, 9)), table)
    assert rep.worst_ratio == 1.0 and rep.ok


def test_verifier_settles_inexact_powers_on_intervals():
    # in ellp:3/2 the images (1, 2) and 0 lie (1 + 2^(3/2))^(2/3) apart,
    # irrational; domain distances at the floats around it leave the float
    # ratio within RATIO_RADIUS of 1 and are decided on intervals, as a
    # 320-bit evaluation says
    mpmath = pytest.importorskip("mpmath")
    table = _ellp_table(Fraction(3, 2), ((1, Fraction(1)), (2, Fraction(2))),
                        ())
    with mpmath.workprec(320):
        exact = (1 + mpmath.mpf(2) ** 1.5) ** (mpmath.mpf(2) / 3)
    near = float(exact)
    verdicts = set()
    for d in (math.nextafter(near, 0), near, math.nextafter(near, 3)):
        rep = verify_injection(two_point_space(Fraction(d)), table,
                               "identity")
        assert abs(rep.worst_ratio - 1) <= RATIO_RADIUS
        assert rep.ok is (exact <= d)
        verdicts.add(rep.ok)
    assert verdicts == {True, False}


def test_verifier_reads_mixed_tables_exactly():
    # Python subtracts a float from a Fraction after rounding the Fraction
    # to a float: 1/3 - 0.3333333333333333 would read 0, where it is about
    # 1.85e-17, past the bound of a domain distance 10^-17; the table is
    # read in Fractions
    rep = _ballchain_pair([Fraction(1, 3), 0.3333333333333333],
                          Fraction(1, 10 ** 17))
    exact = (Fraction(1, 3) - Fraction(0.3333333333333333)) * 10 ** 17
    assert rep.worst_ratio == exact and not rep.ok


def test_verifier_fraction_ratio_is_exact():
    # a Fraction ratio of 1 passes, and any Fraction above 1 fails, with no
    # tolerance
    rep = _ballchain_pair([Fraction(0), Fraction(1, 3)], Fraction(1, 3))
    assert rep.worst_ratio == 1 and type(rep.worst_ratio) is Fraction
    assert rep.ok
    rep = _ballchain_pair([Fraction(0), Fraction(10 ** 12 + 1, 10 ** 12)],
                          Fraction(1))
    assert not rep.ok


def test_verifier_image_count_mismatch():
    space = cycle_graph_space(4)
    table = build_ell0_injection(cycle_graph_space(5))
    with pytest.raises(ValueError):
        verify_injection(space, table)


def test_modulus_resolution():
    fn, name = resolve_modulus("root:2")
    assert fn(Fraction(4)) == 2
    assert name == "root:2"
    fn_id, _ = resolve_modulus("identity")
    assert fn_id(Fraction(3, 7)) == Fraction(3, 7)
    with pytest.raises(ValueError):
        resolve_modulus("root:0")
    with pytest.raises(ValueError):
        resolve_modulus("cubic")
    table2 = build_ellp_injection(cycle_graph_space(4), 2)
    assert default_modulus_for(table2) == "root:2"
    tableh = build_ellp_injection(cycle_graph_space(4), Fraction(1, 2))
    assert default_modulus_for(tableh) == "identity"


# ---------------------------------------------------------------------------
# serialization

def test_table_json_round_trip():
    space = random_rational_metric_space(9, seed=3)
    table = build_ellp_injection(space, Fraction(1, 2))
    data = table.to_json_dict(space)
    back, back_space = InjectionTable.from_json_dict(data)
    assert back.images == table.images
    assert back.p == Fraction(1, 2)
    assert back_space is not None
    assert back_space.dist == space.dist
    rep = verify_injection(back_space, back)
    assert rep.ok


def test_table_json_ballchain_round_trip():
    space = cycle_graph_space(5)
    table = build_ballchain_injection(space, interval_chain_target())
    data = table.to_json_dict()
    back, back_space = InjectionTable.from_json_dict(data)
    assert back_space is None
    assert back.images == table.images
    assert back.descriptor == "intervals"


def test_root_modulus_past_the_float_range():
    # the cube root of 2^2001 is 2^667, exact; one more is no cube and is
    # powered in floats. Neither converts 2^2001 to a float on the way
    table = build_injection(two_point_space(Fraction(2 ** 2001)), "ell0")
    for d in (Fraction(2 ** 2001), Fraction(2 ** 2001 + 1)):
        rep = verify_injection(two_point_space(d), table, "root:3")
        assert rep.ok and float(rep.worst_ratio) == pytest.approx(2.0 ** -670)
        assert isinstance(rep.worst_ratio, Fraction) is (d == 2 ** 2001)
