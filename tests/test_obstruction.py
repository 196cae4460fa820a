"""Averaged comparison steps, chains, and the two obstruction reports."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from roundlab import cyclic, obstruction, parallel
from roundlab.cyclic import (CycleSpace, PairClass,
                             ProductCycleSpace, SimplexClass,
                             count_pairs_closed, sample_pairs_sparse, stage_pair_class,
                             stage_space)
from roundlab.exact import power
from roundlab.moduli import empirical_moduli
from roundlab.obstruction import (CircleEmbeddingMap, ConstantMap,
                                  IdentityMap, SnowflakeMap, chain_classes,
                                  class_extremes, coarse_obstruction_report,
                                  euler_factor, euler_factor_exact,
                                  euler_factors, level_average,
                                  resolve_builtin_map,
                                  uniform_obstruction_report,
                                  verify_chain_inequality, verify_step_inequality)

from oracles import enumerated_level_terms


def small_space():
    return ProductCycleSpace(4, CycleSpace(8, Fraction(1)))


# ---------------------------------------------------------------------------
# euler factor

def test_euler_factor_exact_values():
    assert euler_factor_exact(2) == Fraction(9, 16)
    assert euler_factor_exact(4) == Fraction(625, 1296)


def test_euler_factor_above_inverse_e():
    for n in (1, 2, 10, 1000, 10 ** 6):
        assert euler_factor(n) > 1.0 / math.e


def test_euler_factors_vectorized_matches_scalar():
    ns = np.array([1, 2, 3, 10, 100, 4096])
    vec = euler_factors(ns)
    for n, v in zip(ns, vec):
        assert v == pytest.approx(euler_factor(int(n)), rel=1e-14)
    assert np.all(np.diff(euler_factors(np.arange(1, 10_000))) < 0)


# ---------------------------------------------------------------------------
# maps

def test_resolve_builtin_maps():
    space = small_space()
    assert isinstance(resolve_builtin_map("builtin:identity", space), IdentityMap)
    assert isinstance(resolve_builtin_map("circle", space), CircleEmbeddingMap)
    assert isinstance(resolve_builtin_map("builtin:constant", space), ConstantMap)
    snow = resolve_builtin_map("builtin:snowflake:1/2", space)
    assert isinstance(snow, SnowflakeMap)
    assert snow.alpha == 0.5
    with pytest.raises(ValueError):
        resolve_builtin_map("builtin:moebius", space)
    with pytest.raises(ValueError):
        SnowflakeMap(space, 1.5)


def test_circle_map_chord_geometry():
    space = small_space()
    emap = CircleEmbeddingMap(space)
    # full circumference is units * quantum; chord at the antipode is 2R
    assert emap.chord(4) == pytest.approx(2 * emap.radius)
    assert emap.image_distance((0, 0, 0, 0), (4, 0, 0, 0)) == pytest.approx(
        2 * emap.radius)
    # two coordinates combine in l2
    d = emap.image_distance((0, 0, 0, 0), (1, 1, 0, 0))
    assert d == pytest.approx(math.sqrt(2) * emap.chord(1))


def test_circle_chord_keeps_its_floats_and_refuses_below_the_normals():
    # while units is a float the angle rounds as pi * float(q) / units
    # did, so depths up to 78 keep every bit; past the float range of
    # units (n = 80 on) it still reports, and from n = 128 the fine
    # angle is below NORMAL_MIN, where CLASS_ROUNDING fails: refused with
    # the depth named, not read as a sup_fine of 0 (it is 3.9e109 at 140)
    for n in range(2, 80, 2):
        space = stage_space(n + 2)
        emap = CircleEmbeddingMap(space)
        units, radius = space.units, emap.radius
        for cls in (stage_pair_class(n + 2, -n, n + 1),
                    stage_pair_class(n + 2, 0, 1)):
            c = 2.0 * radius * math.sin(math.pi * float(cls.delta) / units)
            assert emap.class_distance(cls) == math.sqrt(
                cls.support * (c * c)), (n, cls)
    for n in (80, 126):
        entry = uniform_obstruction_report("builtin:circle", [n],
                                           2.0).entries[0]
        assert 0 < entry["sup_fine"] < math.inf and entry["holds"] is True
    for n in (128, 140):
        with pytest.raises(ValueError, match=rf"^depth n={n}: circle chord "
                           "angle .* is below the normal floats$"):
            uniform_obstruction_report("builtin:circle", [n], 2.0)


# ---------------------------------------------------------------------------
# level averages

def test_level_average_exact_identity():
    space = small_space()
    emap = IdentityMap(space)
    avg = level_average(emap, PairClass(2, 2), 2.0, mode="exact")
    assert avg.mean == pytest.approx(4.0)  # constant distance 2, squared
    assert avg.count == 49152
    # an exact average reports no sampling statistic
    assert avg.to_dict() == {"delta": 2, "support": 2, "p": 2.0,
                             "mean": avg.mean, "count": 49152,
                             "mode": "exact"}


def test_level_average_mc_matches_exact():
    space = small_space()
    emap = CircleEmbeddingMap(space)
    cls = PairClass(1, 2)
    exact = level_average(emap, cls, 2.0, mode="exact")
    mc = level_average(emap, cls, 2.0, mode="mc", samples=20_000)
    # class-constant distance: both modes read that distance squared
    assert mc.mean == exact.mean == emap.class_distance(cls) ** 2.0
    assert mc.count == 20_000
    assert exact.count == count_pairs_closed(space, cls)


def test_level_average_exact_mean_is_not_rounded_twice():
    # every one of the 49,152 edge pairs has d^2 = 6.484555753109616;
    # rounding their total before dividing by the count gives the float
    # below it
    emap = CircleEmbeddingMap(small_space())
    edge = SimplexClass(1, 2, 2).edge_class()
    avg = level_average(emap, edge, 2.0, mode="exact")
    assert avg.count == 49152
    assert avg.mean == emap.class_distance(edge) ** 2 == 6.484555753109616


def test_level_average_mc_closed_form():
    space = small_space()
    cls = PairClass(3, 2)
    for emap in builtin_maps(space):
        dist = emap.class_distance(cls)
        for p in (0.0, 0.5, 1.0, 2.0):
            avg = level_average(emap, cls, p, mode="mc", samples=7)
            want = (1.0 if dist > 0 else 0.0) if p == 0.0 else dist ** p
            assert avg.mean == want, (type(emap).__name__, p)
            assert avg.count == 7
            assert avg.to_dict()["mode"] == "mc"


def test_sample_count_must_be_positive():
    emap = CircleEmbeddingMap(small_space())
    cls = PairClass(1, 2)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            level_average(emap, cls, 2.0, mode="mc", samples=samples)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            class_extremes(emap, cls, samples=samples)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            uniform_obstruction_report("builtin:circle", [2], 2.0,
                                       samples=samples)
    # one sample is the smallest count, reported as given
    assert level_average(emap, cls, 2.0, mode="mc", samples=1).count == 1
    assert class_extremes(emap, cls, samples=1)[2] == 1


@pytest.mark.parametrize("coords,units", [(3, 6), (4, 4), (4, 8), (3, 8)])
def test_level_average_exact_closed_form_matches_enumeration(coords, units):
    space = ProductCycleSpace(coords, CycleSpace(units))
    ps = (0.0, 0.5, 1.0, 2.0)
    for delta in range(1, units // 2 + 1):
        for support in range(1, coords + 1):
            cls = PairClass(delta, support)
            emaps = (IdentityMap(space), CircleEmbeddingMap(space),
                     SnowflakeMap(space, 0.5), SnowflakeMap(space, 1 / 3),
                     ConstantMap(space))
            for emap, terms in zip(emaps, enumerated_level_terms(emaps, cls, ps)):
                for p in ps:
                    avg = level_average(emap, cls, p, mode="exact")
                    where = (type(emap).__name__, cls, p)
                    # every pair's term equals the mean bit for bit
                    assert terms[p] == {avg.mean}, where
                    assert avg.count == count_pairs_closed(space, cls)
                    mc = level_average(emap, cls, p, mode="mc", samples=3)
                    assert mc.mean == avg.mean == \
                        float(power(emap.class_distance(cls), p)), where


@dataclass(frozen=True)
class PairwiseMap:
    """Delegates `image_distance` to `inner` but declares no
    `class_distance`, so every class average and extreme refuses it."""

    inner: object
    declared_roundness = None

    @property
    def space(self):
        return self.inner.space

    def image_distance(self, x, y):
        return self.inner.image_distance(x, y)


def test_class_extremes_constant_class():
    space = small_space()
    emap = CircleEmbeddingMap(space)
    lo, hi, used = class_extremes(emap, PairClass(1, 4), samples=2000)
    assert lo == hi == emap.class_distance(PairClass(1, 4))
    assert used == 2000


def builtin_maps(space):
    return [IdentityMap(space), CircleEmbeddingMap(space),
            SnowflakeMap(space, 0.5), SnowflakeMap(space, 1 / 3),
            ConstantMap(space)]


@pytest.mark.parametrize("space, cls, rows", [
    (small_space(), PairClass(1, 2), 500),            # two orientations
    (small_space(), PairClass(3, 3), 500),
    (small_space(), PairClass(4, 2), 500),            # antipodal: 2*delta == units
    (small_space(), PairClass(1, 4), 500),            # support == coords
    (small_space(), PairClass(4, 4), 500),
    (ProductCycleSpace(300, CycleSpace(6, Fraction(1, 3))),
     PairClass(2, 129), 300),
    (stage_space(6), stage_pair_class(6, -4, 5), 128),  # uniform fine, n=4
], ids=["c4-d1-s2", "c4-d3-s3", "antipodal", "full-support",
        "antipodal-full", "c300-s129", "uniform-fine-n4"])
def test_class_distance_equals_every_sampled_row(space, cls, rows):
    rng = np.random.default_rng(7)
    batch = sample_pairs_sparse(space, cls, rows, rng)
    # each sampled row as a full pair: random shared coordinates, the
    # row's residues on its support
    pairs = []
    for i in range(rows):
        x = rng.integers(0, space.units, space.coords)
        y = x.copy()
        x[batch.supports[i]] = batch.x_vals[i]
        y[batch.supports[i]] = batch.y_vals[i]
        pairs.append((tuple(x.tolist()), tuple(y.tolist())))
    for emap in builtin_maps(space):
        name = type(emap).__name__
        dist = emap.class_distance(cls)
        assert type(dist) is float
        assert all(emap.image_distance(x, y) == dist for x, y in pairs), name
        # the batch form reads the class distance on every row
        vals = emap.image_distance_batch(batch)
        assert vals.shape == (rows,)
        assert np.all(vals == dist), name
    # the sup distance of a class is delta quanta, rounded once to float
    want = float(space.quantum * cls.delta)
    assert IdentityMap(space).class_distance(cls) == want
    assert SnowflakeMap(space, 0.5).class_distance(cls) == want ** 0.5


def test_class_distance_builds_no_batch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no batch expected")

    # a batch is built only in the census module, by its class or its
    # sampler, which obstruction resolves there on lookup; patching the
    # lookup too would leave the stub behind as a real obstruction global
    monkeypatch.setattr(cyclic, "SparsePairBatch", refuse)
    monkeypatch.setattr(cyclic, "sample_pairs_sparse", refuse)
    space = stage_space(6)
    cls = stage_pair_class(6, -4, 5)
    for emap in builtin_maps(space):
        assert emap.class_distance(cls) >= 0.0
        with pytest.raises(ValueError, match="exceeds"):
            emap.class_distance(PairClass(space.units, 1))


def test_mc_needs_declared_class_distance():
    # both modes refuse a map without a class distance: nothing enumerates
    emap = PairwiseMap(CircleEmbeddingMap(small_space()))
    cls = PairClass(1, 3)
    for mode in ("exact", "mc"):
        with pytest.raises(ValueError, match="class_distance"):
            level_average(emap, cls, 2.0, mode=mode, samples=4000)
        with pytest.raises(ValueError, match="class_distance"):
            verify_step_inequality(emap, SimplexClass(1, 2, 2), 2.0,
                                   mode=mode)
    with pytest.raises(ValueError, match="class_distance"):
        class_extremes(emap, cls, samples=4000)


class ClassDistanceOnly:
    """A custom map with `space`, `image_distance` and `class_distance`,
    but no `declared_roundness`."""

    def __init__(self, inner):
        self.space = inner.space
        self.image_distance = inner.image_distance
        self.class_distance = inner.class_distance


def test_map_without_declared_roundness_is_refused():
    # a map that declares no roundness gets the ValueError naming what it
    # lacks, not an AttributeError; None declares no claim
    emap = ClassDistanceOnly(CircleEmbeddingMap(small_space()))
    for levels in (None, 2):
        with pytest.raises(ValueError, match="declares no declared_roundness"):
            if levels is None:
                verify_step_inequality(emap, SimplexClass(1, 2, 2), 2.0)
            else:
                verify_chain_inequality(emap, SimplexClass(1, 2, 2), levels,
                                        2.0)
    emap.declared_roundness = None
    assert verify_step_inequality(emap, SimplexClass(1, 2, 2), 2.0).holds


def test_declared_class_distance_draws_nothing_and_starts_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no pair draw or pool expected")

    monkeypatch.setattr(cyclic, "sample_pairs_sparse", refuse)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
    emap = CircleEmbeddingMap(ProductCycleSpace(8, CycleSpace(32)))
    step = verify_step_inequality(emap, SimplexClass(1, 2, 2), 2.0,
                                  mode="mc", samples=4000)
    assert step.conn.count == step.edge.count == 4000
    chain = verify_chain_inequality(emap, SimplexClass(1, 4, 2), 2, 2.0,
                                    mode="mc", samples=4000)
    assert [a.count for a in chain.averages] == [4000] * 3
    rep = uniform_obstruction_report("builtin:circle", [2], 2.0,
                                     samples=4000)
    assert rep.entries[0]["samples_fine"] == 4000


# ---------------------------------------------------------------------------
# averaged step and chain inequalities

def test_step_circle_p2_exact_margin():
    space = small_space()
    emap = CircleEmbeddingMap(space)
    rep = verify_step_inequality(emap, SimplexClass(1, 2, 2), 2.0, mode="exact")
    c1 = emap.chord(1)
    c2 = emap.chord(2)
    assert rep.conn.mean == pytest.approx(4 * c1 * c1, rel=1e-12)
    assert rep.edge.mean == pytest.approx(2 * c2 * c2, rel=1e-12)
    assert rep.margin == pytest.approx(4 * c1 * c1 - c2 * c2, rel=1e-12)
    assert rep.margin == pytest.approx(0.5562869376523274, abs=1e-12)
    assert rep.holds
    assert not rep.assumed_roundness  # the circle map declares roundness 2


@pytest.mark.parametrize("alpha, p", [("1/5", 5.0), ("1/10", 10.0)])
def test_snowflake_tie_reads_its_exact_alpha(alpha, p):
    # alpha p = 1 exactly: conn d against (1 - 1/2) (2d) is a tie, settled
    # as holding on the exact alpha the spec names. The float nearest
    # alpha gives the same float class distance, but its p-th power is
    # d^(1 + ~1e-16), which settles as failing
    space = small_space()
    emap = resolve_builtin_map(f"builtin:snowflake:{alpha}", space)
    assert emap.alpha == Fraction(alpha)
    rep = verify_step_inequality(emap, SimplexClass(1, 2, 2), p)
    assert rep.holds is True
    rounded = SnowflakeMap(space, float(Fraction(alpha)))
    for cls in (PairClass(1, 2), PairClass(2, 1)):
        assert rounded.class_distance(cls) == emap.class_distance(cls)
    assert verify_step_inequality(rounded, SimplexClass(1, 2, 2),
                                  p).holds is False


def test_step_past_the_float_range_settles_exactly():
    # at p = 1100 the edge mean 2^1100 passes the float range: the float
    # margin is -inf, and the exact class powers decide the step
    emap = IdentityMap(small_space())
    assert emap.class_power(2, 1, 1100.0, Fraction) == 2 ** 1100
    rep = verify_step_inequality(emap, SimplexClass(1, 2, 2), 1100.0)
    assert rep.edge.mean == math.inf and rep.margin == -math.inf
    assert rep.holds is False


def test_step_identity_p01_exact_margin():
    space = small_space()
    emap = IdentityMap(space)
    rep = verify_step_inequality(emap, SimplexClass(1, 2, 2), 0.1, mode="exact")
    assert rep.margin == pytest.approx(1.0 - 0.5 * 2 ** 0.1, abs=1e-12)
    assert rep.margin == pytest.approx(0.46411326873185343, abs=1e-12)
    assert rep.holds
    assert rep.assumed_roundness  # identity declares nothing


def test_step_identity_fails_at_p2():
    # sup-metric distances are class constant: delta^p vs (1-1/r)(2 delta)^p
    space = small_space()
    emap = IdentityMap(space)
    rep = verify_step_inequality(emap, SimplexClass(1, 2, 2), 2.0, mode="exact")
    assert rep.margin == pytest.approx(1.0 - 0.5 * 4.0)
    assert not rep.holds


def test_step_rejects_underdeclared_map():
    space = small_space()
    emap = CircleEmbeddingMap(space)
    with pytest.raises(ValueError):
        verify_step_inequality(emap, SimplexClass(1, 2, 2), 3.0, mode="exact")


def test_chain_classes_halving():
    chain = chain_classes(SimplexClass(1, 4, 2), 3)
    assert [(c.delta, c.support) for c in chain] == [(1, 4), (2, 2), (4, 1)]
    with pytest.raises(ValueError):
        chain_classes(SimplexClass(1, 3, 2), 2)  # support not divisible
    with pytest.raises(ValueError):
        chain_classes(SimplexClass(1, 4, 2), 0)


def test_chain_telescopes():
    # each level's edge class is the next level's connecting class
    chain = chain_classes(SimplexClass(1, 4, 2), 3)
    for a, b in zip(chain, chain[1:]):
        assert a.edge_class() == b.conn_class()


def test_chain_circle_holds():
    space = ProductCycleSpace(8, CycleSpace(32, Fraction(1)))
    emap = CircleEmbeddingMap(space)
    rep = verify_chain_inequality(emap, SimplexClass(1, 4, 2), 2, 2.0,
                                mode="mc", samples=3000)
    assert all(s["holds"] for s in rep.steps)
    assert rep.cumulative_holds
    assert rep.factor_total == pytest.approx(0.25)
    assert len(rep.averages) == 3  # two conn levels plus the last edge


def test_chain_identity_fails():
    space = ProductCycleSpace(8, CycleSpace(32, Fraction(1)))
    emap = IdentityMap(space)
    rep = verify_chain_inequality(emap, SimplexClass(1, 4, 2), 2, 2.0,
                                mode="mc", samples=3000)
    assert not any(s["holds"] for s in rep.steps)
    assert not rep.cumulative_holds


# ---------------------------------------------------------------------------
# coarse obstruction

def L(samples):
    return empirical_moduli([(Fraction(d), Fraction(i)) for d, i in samples])


def test_coarse_example_table():
    moduli = L([(1, 1)] + [(2 ** k, k) for k in range(1, 9)])
    rep = coarse_obstruction_report(moduli, 1.0)
    assert rep.found
    assert rep.n == 3
    assert rep.alpha == 3.0
    assert rep.alpha_exact == "3"
    assert rep.margin == pytest.approx(3.0 / math.e - 1.0, rel=1e-12)
    assert rep.odd_n_warning
    assert [row["n"] for row in rep.scanned] == [1, 2, 3]


def test_coarse_no_growth():
    rep = coarse_obstruction_report(L([(1, 1), (2, 1), (4, 1)]), 1.0,
                                    n_range=range(1, 3))
    assert not rep.found
    assert "does not outgrow" in rep.binding_constraint


def test_coarse_rho2_undefined():
    rep = coarse_obstruction_report(L([(2, 1), (4, 2)]), 1.0)
    assert not rep.found
    assert "rho2(1) undefined" in rep.binding_constraint


def test_coarse_envelope_exhausted():
    moduli = L([(1, 1)] + [(2 ** k, k) for k in range(1, 9)])
    rep = coarse_obstruction_report(moduli, 0.1)
    assert not rep.found
    assert "exhausted" in rep.binding_constraint


def test_coarse_overflowing_power_finds_the_obstruction():
    # alpha = 4 at n = 1, and 4^2000 is past every float: lhs is inf and
    # the obstruction is found there, as at any p where nothing overflows
    moduli = L([(1, 1), (2, 4), (4, 16), (8, 64), (1024, 1048576)])
    rep = coarse_obstruction_report(moduli, 2000.0)
    assert rep.found and rep.n == 1 and rep.alpha == 4.0
    assert rep.scanned == [{"n": 1, "rho1": 4.0, "alpha": 4.0,
                            "lhs": math.inf}]
    assert rep.margin == math.inf
    low = coarse_obstruction_report(moduli, 2.0)
    assert low.found and low.n == 1
    assert low.scanned[0]["lhs"] == 4.0 ** 2.0 * math.exp(-1.0)


def test_coarse_p_validation():
    # a NaN p is refused too, as step, chain and uniform refuse it, not
    # scanned into rows of lhs nan
    moduli = L([(1, 1), (2, 2)])
    for p in (0.0, math.inf, float("nan")):
        with pytest.raises(ValueError, match="p must be positive and finite"):
            coarse_obstruction_report(moduli, p)


# ---------------------------------------------------------------------------
# uniform obstruction

def test_uniform_identity_fails_as_predicted():
    rep = uniform_obstruction_report("builtin:identity", [2], 2.0,
                                     samples=2000)
    e = rep.entries[0]
    assert e["sup_fine"] == 0.25  # 2^-n exactly, distances class constant
    assert e["inf_coarse"] == 1.0
    # deeper rungs stay exact: the sup distance of a class is rounded once
    deep = uniform_obstruction_report("builtin:identity", [2, 4], 2.0,
                                      samples=2000).entries[1]
    assert (deep["sup_fine"], deep["inf_coarse"]) == (0.0625, 1.0)
    assert deep["margin"] == 0.0625 - math.exp(-0.5)
    assert e["bound"] == pytest.approx(math.exp(-0.5))
    assert not e["holds"]
    assert rep.obstruction_found
    assert rep.first_violation_n == 2
    assert "cannot be a uniform embedding" in rep.conclusion


def test_uniform_constant_map_degenerate():
    rep = uniform_obstruction_report("builtin:constant", [2], 2.0,
                                     samples=1000)
    assert not rep.obstruction_found
    assert "collapses" in rep.conclusion
    assert rep.entries[0]["inf_coarse"] == 0.0


def test_uniform_p_infinite_factor_one():
    rep = uniform_obstruction_report("builtin:identity", [2], math.inf,
                                     samples=1000)
    assert rep.entries[0]["factor"] == 1.0
    assert rep.to_dict()["p_infinite"] is True
    assert rep.obstruction_found


def test_uniform_rejects_nan_p():
    with pytest.raises(ValueError, match="p must be positive"):
        uniform_obstruction_report("builtin:circle", [2], float("nan"))


def test_uniform_ladder_validation():
    with pytest.raises(ValueError):
        uniform_obstruction_report("builtin:identity", [3], 2.0, samples=64)
    with pytest.raises(ValueError):
        uniform_obstruction_report("builtin:identity", [0], 2.0, samples=64)


def test_coarse_at_a_huge_exponent_settles_on_intervals():
    # alpha = 1/2: at p = 10^15 no float radius is finite, so each scale
    # is settled, and 2^(-10^15) is past EXACT_POWER_BITS: intervals
    # decide it at once where the exact power would never finish
    moduli = L([(1, 2), (2, 1), (4, 1)])
    rep = coarse_obstruction_report(moduli, 1e15, n_range=range(1, 3))
    assert not rep.found
    assert [row["lhs"] for row in rep.scanned] == [0.0, 0.0]


@pytest.mark.parametrize("sign, margin", [(1, math.inf), (-1, -math.inf),
                                          (0, math.inf)])
def test_margin_of_two_infinite_terms_is_the_verdicts_infinity(sign, margin):
    # inf - inf is NaN, which no float rule decides: the settled value's
    # sign picks the infinity, and a settled 0 holds
    assert obstruction._margin(math.inf, math.inf, 0.5, 1e-15,
                               lambda lift: lift(sign), "margin") \
        == (margin, sign >= 0)
