"""Acceptance suite: the eleven numbered checks the package must pass.

Each test records one PASS/FAIL line with its wall time; conftest prints
them in a terminal-summary section after the run.  Every criterion also
enforces its stated runtime budget.
"""

import contextlib
import functools
import io
import math
import time
from fractions import Fraction

import numpy as np

from roundlab import kernels
from roundlab.cli import main
from roundlab.cayley import (FamilyGenerators, block_projection_check,
                             cayley_roundness_upper,
                             standard_basis_generators, verify_mstar_isometry)
from roundlab.cyclic import (CycleSpace, PairClass, ProductCycleSpace,
                             SimplexClass, build_simplex,
                             canonical_class_pair, completion_counts,
                             count_incidences, count_pairs_closed, is_simplex,
                             stage_simplex_class, stage_space)
from roundlab.inject import (build_ballchain_injection, build_ell0_injection,
                             build_ellp_injection, cauchy_sequence_target,
                             interval_chain_target, verify_injection)
from roundlab.metric import snowflake
from roundlab.obstruction import (CircleEmbeddingMap, IdentityMap,
                                  euler_factor, euler_factor_exact,
                                  euler_factors, verify_chain_inequality,
                                  verify_step_inequality)
from roundlab.report import Report
from roundlab.roundness import estimate_roundness, find_violation_exhaustive
from roundlab.spaces import (cycle_graph_space, equilateral_space,
                             planar_points_space,
                             random_rational_metric_space)
from roundlab.zspace import (certify_corrected, find_triangle_violation,
                             scan_triangle_violations)

from oracles import enumerated_level_terms, enumerated_mstar_pairs


RESULTS: list[str] = []


def criterion(num: int, desc: str, limit_s: float):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                wall = time.perf_counter() - t0
                RESULTS.append(f"ACCEPTANCE {num:>2} FAIL ({wall:7.2f}s)  {desc}")
                raise
            wall = time.perf_counter() - t0
            if wall >= limit_s:
                RESULTS.append(f"ACCEPTANCE {num:>2} FAIL ({wall:7.2f}s)  "
                               f"{desc} [over {limit_s:.0f}s budget]")
                raise AssertionError(
                    f"criterion {num} exceeded its {limit_s:.0f}s budget")
            RESULTS.append(f"ACCEPTANCE {num:>2} PASS ({wall:7.2f}s)  {desc}")
        return wrapper
    return deco


@criterion(1, "simplex builder verifies across the grid and large instances", 10)
def test_criterion_01_simplex_builder():
    for r in (2, 4):
        for s in (2, 4):
            for delta in (1, 2):
                for coords in (s * r, s * r + 2):
                    for units in (8, 16):
                        space = ProductCycleSpace(coords, CycleSpace(units))
                        scls = SimplexClass(delta, s, r)
                        ds = build_simplex(space, scls)
                        assert is_simplex(space, ds, scls), (r, s, delta,
                                                             coords, units)
    for n, ts, ms in ((4, (-1, 0, 1), (1, 2)), (6, (0,), (1,))):
        space = stage_space(n)
        for t in ts:
            for m in ms:
                scls = stage_simplex_class(n, t, m)
                ds = build_simplex(space, scls)
                assert is_simplex(space, ds, scls), (n, t, m)


@criterion(2, "closed pair counts equal exhaustive census on every class", 60)
def test_criterion_02_counting():
    for coords, units in ((4, 8), (3, 6), (2, 12)):
        total = units ** coords
        assert total <= 10 ** 5
        space = ProductCycleSpace(coords, CycleSpace(units))
        classes, unclassified = kernels.pair_census(coords, units)
        covered = 0
        for delta in range(1, units // 2 + 1):
            for support in range(1, coords + 1):
                closed = count_pairs_closed(space,
                                            PairClass(delta, support))
                assert closed == classes.get((delta, support), 0), (
                    coords, units, delta, support)
                covered += closed
        assert covered == sum(classes.values())
        assert covered + unclassified == total * (total - 1) // 2
        if (coords, units) == (3, 6):
            assert classes[(1, 1)] == 648


@criterion(3, "incidence identities hold exactly; K and L pair-independent", 600)
def test_criterion_03_incidence_identity():
    space = ProductCycleSpace(4, CycleSpace(8))
    scls = SimplexClass(1, 2, 2)
    inc = count_incidences(space, scls)
    assert inc.s_count == 49152
    assert inc.s_count * 2 * 1 == inc.n_edge_class * inc.k_count
    assert inc.s_count * 2 * 2 == inc.n_conn_class * inc.l_count
    ks = [completion_counts(space, scls,
                            canonical_class_pair(space, scls.edge_class(), i),
                            True) for i in range(3)]
    ls = [completion_counts(space, scls,
                            canonical_class_pair(space, scls.conn_class(), i),
                            False) for i in range(3)]
    assert ks == [inc.k_count] * 3
    assert ls == [inc.l_count] * 3


@criterion(4, "single averaged step verified by full enumeration", 600)
def test_criterion_04_single_step():
    space = ProductCycleSpace(4, CycleSpace(8))
    scls = SimplexClass(1, 2, 2)
    circle = verify_step_inequality(CircleEmbeddingMap(space), scls, 2.0,
                                  mode="exact")
    assert circle.holds
    assert math.isclose(circle.margin, 0.5562869376523274, abs_tol=1e-12)
    ident = verify_step_inequality(IdentityMap(space), scls, 0.1, mode="exact")
    assert ident.holds
    assert math.isclose(ident.margin, 0.46411326873185343, abs_tol=1e-12)
    # exact mode reads the class distance in closed form; every pair of
    # both classes, enumerated, must have the mean as its term bit for bit
    for emap, rep in ((CircleEmbeddingMap(space), circle),
                      (IdentityMap(space), ident)):
        for avg in (rep.conn, rep.edge):
            terms = enumerated_level_terms([emap], avg.cls, [rep.p])[0]
            assert terms[rep.p] == {avg.mean}


@criterion(5, "averaged chain holds at scale, each level in closed form", 600)
def test_criterion_05_chain_at_scale():
    space = stage_space(4)
    assert (space.coords, space.units) == (256, 65536)
    emap = CircleEmbeddingMap(space)
    rep = verify_chain_inequality(emap, SimplexClass(1, 64, 4), 4, 2.0,
                                  mode="mc", samples=100_000)
    assert len(rep.steps) == 4
    assert all(step["holds"] for step in rep.steps)
    assert rep.cumulative_holds
    assert all(avg.count == 100_000 for avg in rep.averages)
    assert all(avg.mean == emap.class_distance(avg.cls) ** 2.0
               for avg in rep.averages)


@criterion(6, "the product factor stays above 1/e and decreases", 5)
def test_criterion_06_product_factor():
    ns = np.arange(0, 1_000_001)
    vals = euler_factors(ns)
    assert np.all(vals > math.exp(-1.0))
    assert np.all(np.diff(vals) < 0)
    assert euler_factor_exact(2) == Fraction(9, 16)
    assert euler_factor(10 ** 6) > math.exp(-1.0)


@criterion(7, "roundness estimator brackets and clean-set checks", 300)
def test_criterion_07_roundness_estimator():
    est = estimate_roundness(cycle_graph_space(4), max_size=3,
                             p_tolerance=1e-3)
    assert est.lower <= 1.0 <= est.upper
    assert est.upper - est.lower <= 1e-3
    assert est.certified

    for k in (3, 5, 9):
        eq = estimate_roundness(equilateral_space(k))
        assert math.isinf(eq.upper)
        assert eq.lower == eq.p_cap

    for seed in range(6):
        planar = planar_points_space(10 + (seed % 3), seed=seed)
        assert find_violation_exhaustive(planar, 3, 2.0) is None

    snow = estimate_roundness(snowflake(cycle_graph_space(4), Fraction(1, 2)),
                              max_size=3, p_tolerance=1e-3)
    assert snow.lower <= 2.0 <= snow.upper
    assert snow.upper - snow.lower <= 1e-3


@criterion(8, "block-union audit: two exact violations, corrected certified", 10)
def test_criterion_08_block_union_audit():
    first = find_triangle_violation("literal", 6)
    assert first is not None
    assert (first.x.block, first.y.block, first.z.block) == (4, 6, 2)
    assert first.lhs == 1048576 and first.rhs == 69632

    within = [v for v in scan_triangle_violations("literal", 8)
              if v.kind == "within_block_detour"]
    assert len(within) == 1
    assert (within[0].x.block, within[0].z.block) == (8, 2)
    assert within[0].lhs == 8388608 and within[0].rhs == 2097152

    cert = certify_corrected(12)
    assert cert.ok and not cert.violations


@criterion(9, "injection builders verified on 25 seeded spaces", 60)
def test_criterion_09_injections():
    builders = [
        ("ell0", build_ell0_injection),
        ("ellp 1/2", lambda s: build_ellp_injection(s, Fraction(1, 2))),
        ("ellp 1", lambda s: build_ellp_injection(s, 1)),
        ("ellp 2", lambda s: build_ellp_injection(s, 2)),
    ]
    for i in range(25):
        size = 5 + (7 * i) % 46
        space = random_rational_metric_space(size, seed=100 + i)
        assert space.size <= 50
        for name, build in builders:
            rep = verify_injection(space, build(space))
            assert rep.injective, (name, i)
            assert not rep.violations, (name, i)
            if isinstance(rep.worst_ratio, Fraction):
                assert rep.worst_ratio <= 1
            else:
                assert rep.worst_ratio <= 1 + 1e-12
        for target in (interval_chain_target(), cauchy_sequence_target()):
            rep = build_verify_ballchain(space, target)
            assert rep.ok, (target.name, i)


def build_verify_ballchain(space, target):
    table = build_ballchain_injection(space, target)
    return verify_injection(space, table)


@criterion(10, "word metrics, roundness probes, and block projections", 900)
def test_criterion_10_cayley():
    # each merged scan is a proof for every pair of (Z_P)^P, P = n^n
    for n, values in ((2, 4), (4, 256), (6, 46_656)):
        proof = verify_mstar_isometry(n, variant="merged")
        assert proof.values_scanned == values
        assert proof.mismatch_count == 0
        assert proof.max_word_distance == values // 2

    z2 = cayley_roundness_upper(standard_basis_generators(2), (1, 0), (0, 1))
    assert z2.critical_p == 1.0 and z2.canonical

    probe = cayley_roundness_upper(FamilyGenerators(4, 3, "merged"),
                                   (1, 1, 1, 1), (1, -1, 1, -1))
    assert probe.critical_p == 1.0 and probe.canonical

    proj = block_projection_check((2, 2), (3, 8), 3, "literal")
    assert proj.ok and proj.mismatch_count == 0


@criterion(11, "same-seed runs byte-identical; worker count irrelevant", 600)
def test_criterion_11_determinism():
    def body(command, results):
        return Report(command, {"seed": "fixed"}, results,
                      {"backend": kernels.BACKEND}).body_json()

    def cli_run(argv, want_code):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == want_code
        return [line for line in out.getvalue().splitlines()
                if '"wall_time_s"' not in line]

    chain = ["obstruct", "chain", "--map", "builtin:circle", "--n", "4",
             "--delta", "1", "--support", "64", "--size", "4", "--levels",
             "4", "--p", "2", "--mode", "mc", "--samples", "100000",
             "--seed", "7", "--workers"]
    assert (cli_run(chain + ["1"], 0) == cli_run(chain + ["1"], 0)
            == cli_run(chain + ["8"], 0))

    uniform = ["obstruct", "uniform", "--map", "builtin:identity",
               "--n-ladder", "2,4", "--p", "2", "--samples", "20000",
               "--seed", "11", "--workers"]
    assert (cli_run(uniform + ["1"], 2) == cli_run(uniform + ["1"], 2)
            == cli_run(uniform + ["8"], 2))

    def cayley_run():
        return body("cayley", verify_mstar_isometry(4).to_dict())

    assert cayley_run() == cayley_run()

    # the scan's verdict and witnesses agree with every pair at n = 2
    for variant in ("merged", "literal"):
        u, v, word, cyc = enumerated_mstar_pairs(2, variant)
        bad = word != cyc
        rep = verify_mstar_isometry(2, variant=variant)
        assert rep.ok == (not bad.any())
        mismatched = {(tuple(a), tuple(b))
                      for a, b in zip(u[bad].tolist(), v[bad].tolist())}
        for m in rep.mismatches:
            a0, a1 = m["abs_diff"]
            assert ((1, 1, 1, 1), (1 + a0, 1 + a1, 1, 1)) in mismatched

    def search_run():
        space = ProductCycleSpace(6, CycleSpace(8))
        est = estimate_roundness(space, max_size=2, p_tolerance=1e-2,
                                 mode="search", budget=4000, seed=3)
        return body("estimate", est.to_dict())

    assert search_run() == search_run()
