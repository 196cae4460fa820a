"""End-to-end command line runs: exit codes, report bodies, determinism."""

import hashlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import roundlab
from roundlab.cli import COMMANDS, build_parser, command_path, main
from roundlab.metric import FiniteMetricSpace
from roundlab.spaces import (cycle_graph_space, random_rational_metric_space,
                             write_space_csv)


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    doc = json.loads(out) if out.strip() else None
    return code, doc, err


def strip_wall(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"wall_time_s"' not in line)


@pytest.fixture
def c4_csv(tmp_path):
    path = tmp_path / "c4.csv"
    write_space_csv(cycle_graph_space(4), str(path))
    return str(path)


@pytest.fixture
def broken_csv(tmp_path):
    rows = [[0, 1, 10], [1, 0, 1], [10, 1, 0]]
    space = FiniteMetricSpace.unchecked(rows)
    path = tmp_path / "broken.csv"
    write_space_csv(space, str(path))
    return str(path)


# ---------------------------------------------------------------------------
# validate and gr

def test_validate_ok(c4_csv, capsys):
    code, doc, _ = run(["validate", "--input", c4_csv], capsys)
    assert code == 0
    assert doc["results"]["ok"] is True
    assert doc["schema"] == 7
    assert doc["command"] == "validate"


def test_validate_violation(broken_csv, capsys):
    code, doc, _ = run(["validate", "--input", broken_csv], capsys)
    assert code == 2
    assert doc["results"]["ok"] is False
    assert doc["results"]["violations"]


def test_gr_estimate_cycle(c4_csv, capsys):
    code, doc, _ = run(["gr", "estimate", "--input", c4_csv], capsys)
    assert code == 0
    res = doc["results"]
    assert res["lower"] <= 1.0 <= res["upper"]
    assert res["upper"] - res["lower"] <= 1e-3
    assert res["certified"] is True
    assert doc["provenance"]["backend"] == "pure"
    assert "wall_time_s" in doc


def _relabelled(space, seed):
    labels = list(range(space.size))
    random.Random(seed).shuffle(labels)
    return FiniteMetricSpace.from_rows([[space.dist[i][j] for j in labels]
                                        for i in labels])


@pytest.mark.parametrize("space, argv, results_sha256", [
    (lambda: random_rational_metric_space(20, 0),
     ["--max-size", "3", "--tol", "1e-3"],
     "753370f2e6594a272c4d05f5e2e15f9ce1fdacf3d8416c8a8c40da2630713a44"),
    (lambda: _relabelled(random_rational_metric_space(20, 0), 7),
     ["--max-size", "3", "--tol", "1e-3"],
     "8061240b9375247c5ce80e497f312c8fec16b7fd5df18a9de8c715a18e1b1800"),
    (lambda: random_rational_metric_space(10, 1), ["--max-size", "4"],
     "56435d514f19f334ebef9dc3ea6113c8f67a8aa2c66857fd7e87d8bef652066d"),
    (lambda: cycle_graph_space(5), [],
     "cef2ae739ef864412083d5e651cfaf1d9d5b2d64378c831607ee83088e5e9758"),
], ids=["r20", "r20-relabelled", "r10-size4", "c5"])
def test_gr_estimate_results_frozen(space, argv, results_sha256, tmp_path,
                                    capsys):
    # digests recorded before the gap scan gathered rows and shared
    # prefix sums, at schema 6, whose results held `search_mode` where
    # schema 7 holds `covers`
    path = tmp_path / "space.csv"
    write_space_csv(space(), str(path))
    code, doc, _ = run(["gr", "estimate", "--input", str(path), *argv],
                       capsys)
    assert code == 0
    results = doc["results"]
    max_size = results["max_simplex_size"]
    assert results.pop("covers") == (f"double simplices with at most "
                                     f"{max_size} points per family")
    results["search_mode"] = "exhaustive"
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == results_sha256


@pytest.mark.parametrize("flag,value", [
    ("--tol", "0"), ("--tol", "nan"), ("--p-cap", "inf"), ("--p-cap", "-1"),
])
def test_gr_estimate_rejects_bad_tol_and_cap(c4_csv, capsys, flag, value):
    code, doc, err = run(["gr", "estimate", "--input", c4_csv, flag, value],
                         capsys)
    assert code == 1
    assert doc is None
    assert err.startswith("error: ") and "finite and positive" in err


def test_gr_estimate_unchecked_negative_distance_is_an_error(tmp_path,
                                                             capsys):
    # d(0, 1) = -1 has no real power at the first fractional probe
    path = tmp_path / "negative.csv"
    path.write_text("3\n0 -1 2\n-1 0 1\n2 1 0\n")
    code, doc, err = run(["gr", "estimate", "--unchecked",
                          "--input", str(path)], capsys)
    assert code == 1
    assert doc is None
    assert err == ("error: distance between points 0 and 1 is negative "
                   "(-1): no real power at p=2.5\n")


def test_gr_estimate_deterministic(c4_csv, capsys):
    main(["gr", "estimate", "--input", c4_csv])
    first = capsys.readouterr().out
    main(["gr", "estimate", "--input", c4_csv])
    second = capsys.readouterr().out
    assert strip_wall(first) == strip_wall(second)
    doc = json.loads(first)
    assert set(doc["params"]) == {"input", "max_size", "tol", "budget",
                                  "p_cap"}
    assert "seed" not in doc["provenance"]
    assert doc["results"]["covers"] == ("double simplices with at most 3 "
                                        "points per family")


def test_gr_estimate_modes_exclusive(c4_csv, capsys):
    # the scan is the one probe of a listed space, so no option picks one
    for extra in (["--search"], ["--exhaustive"], ["--seed", "5"]):
        with pytest.raises(SystemExit) as exc:
            main(["gr", "estimate", "--input", c4_csv, *extra])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(extra)}" in err


# ---------------------------------------------------------------------------
# simplex and counts

@pytest.mark.parametrize("argv,code,err_lines", [
    (["counts", "pairs", "--n", "2", "--t", "1", "--m", "0"], 0,
     ["stage form: n=2 -> coords=4 units=16 quantum=1/4",
      "stage form: (t=1, m=0) -> delta=8 support=1",
      "warning: m = 0 outside the studied range 0 < m <= 2"]),
    (["counts", "incidences", "--n", "2", "--t", "-1", "--m", "1"], 0,
     ["stage form: n=2 -> coords=4 units=16 quantum=1/4",
      "stage form: (t=-1, m=1) -> delta=2 support=2 families=2"]),
    (["counts", "pairs", "--n", "2", "--t", "0"], 1,
     ["stage form: n=2 -> coords=4 units=16 quantum=1/4",
      "error: stage form needs --n, --t and --m together"]),
], ids=["pair-m-range", "simplex", "pair-partial"])
def test_stage_form_messages(argv, code, err_lines, capsys):
    got, _, err = run(argv, capsys)
    assert got == code
    assert err.splitlines() == err_lines


def test_simplex_build_stage_form(capsys):
    code, doc, err = run(["simplex", "build", "--n", "2", "--t", "0",
                          "--m", "1"], capsys)
    assert code == 0
    assert doc["results"]["verified"] is True
    assert doc["results"]["families"] == 2
    assert "stage form:" in err


def test_simplex_build_explicit(capsys):
    code, doc, _ = run(["simplex", "build", "--coords", "4", "--units", "8",
                        "--delta", "1", "--support", "2", "--size", "2"],
                       capsys)
    assert code == 0
    assert len(doc["results"]["xs"]) == 2
    assert len(doc["results"]["ys"]) == 2


def test_counts_pairs_648(capsys):
    code, doc, _ = run(["counts", "pairs", "--coords", "3", "--units", "6",
                        "--delta", "1", "--support", "1",
                        "--enumerate-budget", "1000"], capsys)
    assert code == 0
    assert doc["results"]["count"] == 648
    assert doc["results"]["enumerated"] == 648


def test_counts_pairs_budget_error(capsys):
    code, doc, err = run(["counts", "pairs", "--coords", "4", "--units", "8",
                          "--delta", "1", "--support", "2",
                          "--enumerate-budget", "100"], capsys)
    assert code == 1
    assert doc is None
    assert "budget exceeded" in err


def test_counts_incidences_frozen(capsys):
    code, doc, _ = run(["counts", "incidences", "--coords", "4", "--units",
                        "8", "--delta", "1", "--support", "2", "--size", "2"],
                       capsys)
    assert code == 0
    res = doc["results"]
    assert res["simplices"] == 49152
    assert res["simplices_per_edge_pair"] == 2
    assert res["simplices_per_conn_pair"] == 6
    assert res["ratio_identity_holds"] is True


_STAGE_PAIRS = ["counts", "pairs", "--n", "4", "--t", "0", "--m", "1"]
_EXPLICIT_PAIRS = ["counts", "pairs", "--coords", "256", "--units", "65536",
                   "--quantum", "1/256", "--delta", "256", "--support", "4"]
# the README chain
_STAGE_CHAIN = ["obstruct", "chain", "--map", "builtin:circle", "--n", "4",
                "--delta", "1", "--support", "64", "--size", "4",
                "--levels", "4", "--p", "2", "--mode", "mc",
                "--samples", "100000", "--seed", "7"]


@pytest.mark.parametrize("argv, want", [
    (_STAGE_PAIRS, {"n": 4, "t": 0, "m": 1, "coords": 256, "units": 65536,
                    "quantum": "1/256", "delta": 256, "support": 4}),
    (_STAGE_CHAIN, {"n": 4, "t": None, "m": None, "coords": 256,
                    "units": 65536, "quantum": "1/256", "delta": 1,
                    "support": 64, "size": 4}),
], ids=["counts-pairs", "chain-mc"])
def test_stage_form_params_record_the_resolved_space(argv, want, capsys):
    # n, t and m as given; the space and class as the run resolved them
    code, doc, _ = run(argv, capsys)
    assert code == 0
    assert {k: doc["params"][k] for k in want} == want


def test_stage_form_params_match_the_explicit_run(capsys):
    _, stage, _ = run(_STAGE_PAIRS, capsys)
    _, explicit, _ = run(_EXPLICIT_PAIRS, capsys)
    assert stage["results"] == explicit["results"]
    for flag in ("n", "t", "m"):
        assert explicit["params"].pop(flag) is None
        stage["params"].pop(flag)
    assert stage["params"] == explicit["params"]


# ---------------------------------------------------------------------------
# obstruction commands

@pytest.fixture
def growth_moduli(tmp_path):
    path = tmp_path / "moduli.json"
    samples = [[1, 1]] + [[2 ** k, k] for k in range(1, 9)]
    path.write_text(json.dumps({"samples": samples}))
    return str(path)


def test_obstruct_coarse_found(growth_moduli, capsys):
    code, doc, _ = run(["obstruct", "coarse", "--moduli", growth_moduli,
                        "--p", "1"], capsys)
    assert code == 2
    res = doc["results"]
    assert res["found"] is True
    assert res["n"] == 3
    assert res["alpha_exact"] == "3"


def test_obstruct_coarse_not_found(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps([[1, 1], [2, 1], [4, 1]]))
    code, doc, _ = run(["obstruct", "coarse", "--moduli", str(path),
                        "--p", "1"], capsys)
    assert code == 0
    assert doc["results"]["found"] is False


def test_obstruct_uniform_workers_byte_identical(capsys):
    argv = ["obstruct", "uniform", "--map", "builtin:identity",
            "--n-ladder", "2", "--p", "2", "--samples", "1000",
            "--seed", "6"]
    code1 = main(argv + ["--workers", "1"])
    first = capsys.readouterr().out
    code2 = main(argv + ["--workers", "2"])
    second = capsys.readouterr().out
    assert code1 == code2 == 2
    assert strip_wall(first) == strip_wall(second)
    doc = json.loads(first)
    assert doc["results"]["obstruction_found"] is True


def test_obstruct_step_exit_codes(capsys):
    base = ["obstruct", "step", "--coords", "4", "--units", "8",
            "--delta", "1", "--support", "2", "--size", "2",
            "--p", "2", "--mode", "exact"]
    code, doc, _ = run(base + ["--map", "builtin:circle"], capsys)
    assert code == 0
    assert doc["results"]["margin"] == pytest.approx(0.5562869376523274)
    code2, doc2, _ = run(base + ["--map", "builtin:identity"], capsys)
    assert code2 == 2
    assert doc2["results"]["holds"] is False


def test_obstruct_step_exact_reads_class_distance_at_any_class_size(capsys):
    from roundlab.cyclic import CycleSpace, PairClass, ProductCycleSpace
    from roundlab.obstruction import CircleEmbeddingMap

    # far past any enumeration budget: exact mode reads the class distance
    code, doc, _ = run(["obstruct", "step", "--map", "builtin:circle",
                        "--coords", "8", "--units", "16", "--delta", "1",
                        "--support", "2", "--size", "2", "--p", "2",
                        "--mode", "exact"], capsys)
    assert code == 0
    conn = doc["results"]["conn"]
    assert conn["count"] == 2405181685760
    emap = CircleEmbeddingMap(ProductCycleSpace(8, CycleSpace(16)))
    dist = emap.class_distance(PairClass(conn["delta"], conn["support"]))
    assert conn["mean"] == dist ** 2
    assert "budget" not in doc["params"]


def test_obstruct_chain_exit_codes(capsys):
    base = ["obstruct", "chain", "--coords", "8", "--units", "32",
            "--delta", "1", "--support", "4", "--size", "2",
            "--levels", "2", "--p", "2", "--mode", "mc",
            "--samples", "2000", "--seed", "3"]
    code, doc, _ = run(base + ["--map", "builtin:circle"], capsys)
    assert code == 0
    assert doc["results"]["cumulative_holds"] is True
    code2, doc2, _ = run(base + ["--map", "builtin:identity"], capsys)
    assert code2 == 2


_STEP_ARGS = ["--map", "builtin:circle", "--coords", "4", "--units", "8",
              "--delta", "1", "--support", "2", "--size", "2"]
_CHAIN_ARGS = ["--map", "builtin:circle", "--coords", "8", "--units", "32",
               "--delta", "1", "--support", "4", "--size", "2",
               "--levels", "2", "--samples", "2000"]


@pytest.mark.parametrize("argv, message", [
    (["uniform", "--map", "builtin:identity", "--n-ladder", "2",
      "--p", "0"], "p must be positive"),
    (["uniform", "--map", "builtin:identity", "--n-ladder", "2",
      "--p", "-2"], "p must be positive"),
    (["step", *_STEP_ARGS, "--p", "-1"], "p must be nonnegative"),
    (["chain", *_CHAIN_ARGS, "--p", "-1"], "p must be nonnegative"),
    (["step", *_STEP_ARGS, "--p", "inf", "--mode", "exact"],
     "p must be finite"),
    (["step", *_STEP_ARGS, "--p", "inf", "--mode", "mc"], "p must be finite"),
    (["chain", *_CHAIN_ARGS, "--p", "inf", "--mode", "exact"],
     "p must be finite"),
    (["chain", *_CHAIN_ARGS, "--p", "inf", "--mode", "mc"],
     "p must be finite"),
], ids=["uniform-zero", "uniform-negative", "step-negative",
        "chain-negative", "step-exact-inf", "step-mc-inf", "chain-exact-inf",
        "chain-mc-inf"])
def test_obstruct_rejects_meaningless_p(argv, message, capsys):
    code, doc, err = run(["obstruct", *argv], capsys)
    assert code == 1
    assert doc is None
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv, want", [
    (["uniform", "--map", "builtin:identity", "--n-ladder", "2",
      "--p", "inf", "--samples", "1000"], 2),
    (["step", *_STEP_ARGS, "--p", "0"], 0),
    (["chain", *_CHAIN_ARGS, "--p", "0"], 0),
], ids=["uniform-inf", "step-zero", "chain-zero"])
def test_obstruct_accepts_limit_p(argv, want, capsys):
    code, doc, _ = run(["obstruct", *argv], capsys)
    assert code == want
    assert doc["command"] == f"obstruct {argv[0]}"


@pytest.mark.parametrize("argv", [
    ["uniform", "--map", "builtin:identity", "--n-ladder", "2", "--p", "2"],
    ["step", *_STEP_ARGS, "--p", "2", "--mode", "mc"],
    ["chain", *_CHAIN_ARGS[:-2], "--p", "2", "--mode", "mc"],
], ids=["uniform", "step", "chain"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_obstruct_rejects_sample_count_below_one(argv, samples, capsys):
    code, doc, err = run(["obstruct", *argv, "--samples", samples], capsys)
    assert code == 1
    assert doc is None
    assert err.startswith("error: samples must be at least 1")


@pytest.mark.parametrize("argv", [
    ["uniform", "--map", "builtin:identity", "--n-ladder", "2,4", "--p", "2",
     "--samples", "500"],
    ["step", *_STEP_ARGS, "--p", "2", "--mode", "mc", "--samples", "500"],
    ["chain", *_CHAIN_ARGS, "--p", "2", "--mode", "mc"],
], ids=["uniform", "step", "chain"])
def test_obstruct_results_ignore_seed(argv, capsys):
    # nothing is sampled: the seed reaches params and provenance only
    docs = [run(["obstruct", *argv, "--seed", seed], capsys)[1]
            for seed in ("3", "91")]
    assert docs[0]["results"] == docs[1]["results"]
    assert docs[0]["provenance"]["seed"] == 3
    assert docs[1]["provenance"]["seed"] == 91


def test_uniform_obstruction_report_rejects_zero_p():
    from roundlab.obstruction import uniform_obstruction_report

    with pytest.raises(ValueError, match="p must be positive"):
        uniform_obstruction_report("builtin:identity", [2], 0.0)


@pytest.mark.parametrize("argv, results_sha256", [
    (["obstruct", "chain", "--coords", "8", "--units", "32", "--delta", "1",
      "--support", "4", "--size", "2", "--levels", "2", "--p", "2",
      "--mode", "mc", "--samples", "2000", "--seed", "3"],
     "c2039b268e617c08c6b763ee74f8cb5c915f054cb81ec546f245e0c823b8ad95"),
    (["obstruct", "step", "--coords", "4", "--units", "8", "--delta", "1",
      "--support", "2", "--size", "2", "--p", "2", "--mode", "mc",
      "--samples", "2000", "--seed", "5"],
     "b1c2018d7b24b8b5db00dd9263e472d253a27236cb1b18ed8a822a0260f07a10"),
], ids=["chain", "step"])
def test_obstruct_chain_step_wall_time_outside_body(argv, results_sha256,
                                                    capsys):
    code, doc, _ = run(argv + ["--map", "builtin:circle"], capsys)
    assert code == 0
    assert doc["wall_time_s"] >= 0
    assert set(doc) == {"schema", "command", "params", "results",
                        "provenance", "wall_time_s"}
    # results digests recorded at schema 2, when Monte Carlo mode began
    # reporting each class distance to the power p in closed form
    text = json.dumps(doc["results"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == results_sha256


_SPACE_4 = ["--coords", "4", "--units", "8", "--delta", "1", "--support", "2"]
_SPACE_8 = ["--coords", "8", "--units", "8", "--delta", "1", "--support", "2"]


@pytest.mark.parametrize("argv, code, results_sha256", [
    (["counts", "incidences", *_SPACE_8, "--size", "2"], 0,
     "693edb6f6d2525682805cccec15c7da4f7281f815c3280a33741eb86dc212630"),
    (["counts", "incidences", *_SPACE_8, "--size", "4",
      "--budget", str(10 ** 12)], 0,
     "ffd74482fc62eba02259c12a485108b83992a2b7e00b94e3a72d2f787d7481cf"),
    (["counts", "pairs", *_SPACE_4, "--enumerate-budget", str(10 ** 6)], 0,
     "c9413001dec059e9f3a6ce02d4f62b75fc8941d3cc8b2481036200b66e643d79"),
    (["obstruct", "uniform", "--map", "builtin:identity", "--n-ladder", "2,4",
      "--p", "2", "--seed", "3"], 2,
     "6742764c0f86ab9cb17acbf73d9b0a58000d18cd6d339cbc394caeb7da57d898"),
    (["obstruct", "uniform", "--map", "builtin:circle", "--n-ladder", "2,4",
      "--p", "2"], 0,
     "b88ac69c45cade495abd43651689a11d8b20aebfa5fc773f6dca131b69d98e3a"),
    (["obstruct", "coarse", "--moduli", "{moduli}", "--p", "1"], 2,
     "aee70c77c34ca70159b0a66b4bcfc4aa434c819c1b81d4ac05bfe7ae6afc565d"),
    (["validate", "--input", "{space}"], 0,
     "faa2b469548e9179276fcb2f4a331a13051c1b7ef4bc178b4d3f661350153bad"),
    (["validate", "--input", "{broken}"], 2,
     "603a49ae4d7ecaf99b6a7be0815e1faddaa56dd5791ea97798e3f8fb4ea3fd56"),
    (["zspace", "validate", "--variant", "corrected"], 0,
     "4c8ed7464136a34f46061a9423819fe1c203b9fdf12e0675edf0d58a10ca2115"),
    (["zspace", "ball", "--block", "2", "--radius", "1/2"], 0,
     "ebd0fc2da2657d18c198e5025f036186c6b415fadd7a2de674671a1d619ec586"),
    (["cayley", "verify", "--n", "4"], 0,
     "2937439274942d3e567c19c3e0c280ae34711e601ccbb95a7dd56f8db0afe2d8"),
], ids=["incidences-r2", "incidences-r4", "pairs-enumerated",
        "uniform-identity", "uniform-circle", "coarse", "validate-r20",
        "validate-broken", "zspace-validate", "zspace-ball", "cayley-verify"])
def test_results_frozen(argv, code, results_sha256, growth_moduli,
                        broken_csv, tmp_path, capsys):
    # digests recorded at schema 7, before the record classes were
    # written out by hand instead of generated by `dataclasses`
    space = tmp_path / "r20.csv"
    write_space_csv(random_rational_metric_space(20, 0), str(space))
    files = {"moduli": growth_moduli, "space": str(space),
             "broken": broken_csv}
    got, doc, _ = run([a.format(**files) for a in argv], capsys)
    assert got == code
    text = json.dumps(doc["results"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == results_sha256


# ---------------------------------------------------------------------------
# zspace commands

def test_zspace_validate_literal(capsys):
    code, doc, _ = run(["zspace", "validate", "--variant", "literal"], capsys)
    assert code == 2
    res = doc["results"]
    assert res["violation_count"] > 0
    first = res["violations"][0]
    assert first["lhs"] == "1048576"
    assert first["rhs"] == "69632"


def test_zspace_validate_corrected(capsys):
    code, doc, _ = run(["zspace", "validate", "--variant", "corrected",
                        "--block-bound", "12"], capsys)
    assert code == 0
    assert doc["results"]["violation_count"] == 0
    assert doc["results"]["certificate"]["ok"] is True
    assert doc["results"]["certificate"]["checked_cases"] == 1680


def test_zspace_ball(capsys):
    code, doc, _ = run(["zspace", "ball", "--block", "2", "--radius", "1/2"],
                       capsys)
    assert code == 0
    assert doc["results"]["total"] == 625
    assert doc["results"]["radius"] == "1/2"


# ---------------------------------------------------------------------------
# inject commands

def test_inject_build_and_verify(tmp_path, c4_csv, capsys):
    map_path = tmp_path / "map.json"
    code, doc, _ = run(["inject", "build", "--input", c4_csv, "--target",
                        "ell0", "--map-out", str(map_path)], capsys)
    assert code == 0
    assert doc["results"]["table"] is None  # written to the file instead
    assert doc["results"]["verification"]["ok"] is True
    assert doc["results"]["verification"]["worst_ratio"] == "3/8"

    code2, doc2, _ = run(["inject", "verify", "--map", str(map_path)], capsys)
    assert code2 == 0
    assert doc2["results"]["ok"] is True

    code3, doc3, _ = run(["inject", "verify", "--map", str(map_path),
                          "--input", c4_csv], capsys)
    assert code3 == 0


def test_inject_build_embeds_table_without_map_out(c4_csv, capsys):
    code, doc, _ = run(["inject", "build", "--input", c4_csv, "--target",
                        "ellp:2"], capsys)
    assert code == 0
    table = doc["results"]["table"]
    assert table is not None
    assert table["target"] == "ellp"
    assert "domain" in table


def test_inject_verify_needs_domain(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"schema": 1, "target": "ballchain",
                                "labels": ["a", "b"], "images": ["1/2", "1/3"],
                                "warnings": []}))
    code, doc, err = run(["inject", "verify", "--map", str(bare)], capsys)
    assert code == 1
    assert "no embedded domain" in err


def test_inject_build_bad_target(c4_csv, capsys):
    code, _, err = run(["inject", "build", "--input", c4_csv, "--target",
                        "hilbert"], capsys)
    assert code == 1
    assert "unknown target" in err


@pytest.mark.parametrize("target, results_sha256", [
    ("ell0", "29f03f9535f287b08ba419172e9a1094c5a30c924a473d420da5573972aa6fb8"),
    ("ellp:1/2",
     "3757388ed69f26d9327e73f6dca6bc88642c78e0661d95ca984031a6187832a3"),
    ("ellp:1", "9c3a5387e52239a7ff01e1951ea202b00f70cb705b13acbd227cf63fb519195f"),
    ("ellp:2", "8fb80c653774a8601c53ba80f29a99c5e71ed5b3b961c345e76acce795d7f911"),
    ("ballchain:intervals",
     "8477063885e2175b2267e9a30df8f221304f7abf666ea8d3d2303dc94c402908"),
    ("ballchain:cauchy",
     "0dda23debc279da8fded68edcd0778cd796274af69351330fee6d336e720b130"),
])
def test_inject_build_results_frozen(target, results_sha256, tmp_path,
                                     capsys):
    # digests recorded before the builders shared one level walk and
    # computed their levels in closed form
    path = tmp_path / "r20.csv"
    write_space_csv(random_rational_metric_space(20, 0), str(path))
    code, doc, _ = run(["inject", "build", "--input", str(path),
                        "--target", target], capsys)
    assert code == 0
    text = json.dumps(doc["results"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == results_sha256


@pytest.mark.parametrize("argv, payload, message", [
    (["inject", "verify", "--map"], {"target": "ell0"}, "lacks 'images'"),
    (["inject", "verify", "--map"], [1, 2], "not a JSON object"),
    (["inject", "verify", "--map"], {"target": "ell0", "images": [5]},
     "malformed injection table"),
    (["inject", "verify", "--map"],
     {"target": "ballchain", "images": [[1]]}, "malformed injection table"),
    (["zspace", "ball", "--block", "2", "--radius", "1/2", "--center"],
     {"block": 2}, "lacks 'residues' or 'sparse'"),
    (["zspace", "ball", "--block", "2", "--radius", "1/2", "--center"],
     {"sparse": {}}, "lacks 'block'"),
    (["obstruct", "coarse", "--p", "1", "--moduli"], {"samplez": []},
     "lacks 'samples'"),
    (["obstruct", "coarse", "--p", "1", "--moduli"], [1, 2],
     "sample 0 is not a"),
    (["obstruct", "coarse", "--p", "1", "--moduli"], [[None, 1]],
     "sample 0 is not a"),
], ids=["map-no-images", "map-list", "map-bad-image", "map-bad-ballchain",
        "center-no-residues", "center-no-block", "moduli-no-samples",
        "moduli-flat-list", "moduli-null"])
def test_malformed_json_input_is_an_error(argv, payload, message, tmp_path,
                                          capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, doc, err = run(argv + [str(path)], capsys)
    assert code == 1
    assert doc is None
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# cayley commands

def test_cayley_verify_exit_codes(capsys):
    code, doc, _ = run(["cayley", "verify", "--n", "2"], capsys)
    assert code == 0
    assert doc["results"]["values_scanned"] == 4
    assert doc["results"]["covers"] == "every pair"
    code2, doc2, _ = run(["cayley", "verify", "--n", "2", "--variant",
                          "literal"], capsys)
    assert code2 == 2
    assert doc2["results"]["mismatch_count"] == 2
    code3, doc3, _ = run(["cayley", "verify", "--n", "4", "--variant",
                          "literal"], capsys)
    assert code3 == 2
    assert doc3["results"]["mismatch_count"] == 16_256
    code4, doc4, _ = run(["cayley", "verify", "--n", "6"], capsys)
    assert code4 == 0
    assert doc4["results"]["values_scanned"] == 46_656
    assert doc4["results"]["covers"] == "every pair"
    assert doc4["wall_time_s"] < 1.0


class _CutPipe:
    """A stdout whose reader has gone, as after `| head -c 1`: every write
    raises BrokenPipeError. fileno() is a scratch file's descriptor."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fh.fileno()


def test_cut_pipe_keeps_the_verdict(tmp_path, capsys, monkeypatch):
    # the reader chose to stop: the literal mismatch still exits 2, nothing
    # reaches stderr, and stdout's descriptor now writes to devnull
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _CutPipe(fh))
        code = main(["cayley", "verify", "--n", "4", "--variant", "literal"])
        with open(os.devnull) as null:
            assert os.path.sameopenfile(fh.fileno(), null.fileno())
    assert code == 2
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, size", [
    (["--n", "8"], 8 ** 8),
    (["--n", "6", "--variant", "literal"], 6 ** 12),
], ids=["merged-n8", "literal-n6"])
def test_cayley_verify_refuses_scans_over_the_limit(argv, size, capsys):
    code, doc, err = run(["cayley", "verify", *argv], capsys)
    assert code == 1
    assert doc is None
    assert f"scan of {size} difference patterns" in err


def test_cayley_verify_proof_byte_identical(capsys):
    argv = ["cayley", "verify", "--n", "4"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert strip_wall(first) == strip_wall(second)
    assert json.loads(first)["schema"] == 7


def test_cayley_verify_takes_no_sampling_options(capsys):
    code, usage, _ = exit_outcome(main, ["cayley", "verify", "-h"], capsys)
    assert code == 0
    for option in ("--mode", "--budget", "--seed", "--workers"):
        assert option not in usage
        code, _, err = exit_outcome(
            main, ["cayley", "verify", "--n", "2", option, "1"], capsys)
        assert code == 1
        assert f"unrecognized arguments: {option} 1" in err


def test_cayley_roundness_cli(capsys):
    code, doc, _ = run(["cayley", "roundness", "--dim", "2",
                        "--standard-basis", "--g", "1,0", "--h", "0,1"],
                       capsys)
    assert code == 0
    assert doc["results"]["critical_p"] == 1.0
    assert doc["results"]["gap_at_2"] == -4.0


def test_cayley_roundness_needs_generators(capsys):
    code, _, err = run(["cayley", "roundness", "--dim", "2",
                        "--g", "1,0", "--h", "0,1"], capsys)
    assert code == 1
    assert "--jump" in err


def test_cayley_projection_cli(capsys):
    code, doc, _ = run(["cayley", "projection"], capsys)
    assert code == 0
    assert doc["results"]["states_full"] == 15769
    assert doc["results"]["mismatch_count"] == 0


# ---------------------------------------------------------------------------
# plumbing

def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])  # missing --input
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc2:
        main(["frobnicate"])
    assert exc2.value.code == 1


def readme_commands():
    """Every `roundlab ...` command in README's sh blocks, continuation
    lines joined, as argument lists without the program name."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands, in_sh, line = [], False, ""
    for raw in text.splitlines():
        if raw.startswith("```"):
            in_sh = raw == "```sh"
            continue
        if not in_sh:
            continue
        line += raw
        if line.endswith("\\"):
            line = line[:-1]
            continue
        words = shlex.split(line, comments=True)
        if words[:1] == ["roundlab"]:
            commands.append(words[1:])
        line = ""
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 10
    assert ["obstruct", "step"] in [argv[:2] for argv in commands]
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: roundlab "
                        f"{shlex.join(argv)}")


# ---------------------------------------------------------------------------
# the one-command parser: main builds only the command argv names

def command_paths():
    """(), every top-level word, and every command family's words."""
    paths = [()]
    for word, entry in COMMANDS.items():
        paths.append((word,))
        if isinstance(entry[1], dict):
            paths.extend((word, name) for name in entry[1])
    return paths


def exit_outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_command_paths_name_every_command(capsys):
    leaves = [path for path in command_paths()
              if path and command_path(list(path)) == path]
    assert len(leaves) == 16
    assert ("validate",) in leaves and ("obstruct", "chain") in leaves
    assert command_path(["obstruct"]) == ()
    assert command_path(["obstruct", "chain", "-h"]) == ()
    # a one-command parser holds that command alone
    chain_only = build_parser(("obstruct", "chain")).parse_args
    for sibling in (["obstruct", "step", "--map", "x", "--p", "2"],
                    ["validate", "--input", "x"]):
        assert exit_outcome(chain_only, sibling, capsys)[0] == 1


@pytest.mark.parametrize("path", command_paths(),
                         ids=lambda path: "-".join(path) or "top")
def test_help_is_the_full_trees(path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [*path, "-h"]
    full = exit_outcome(build_parser().parse_args, argv, capsys)
    assert full[0] == 0 and full[1].startswith("usage: roundlab")
    assert exit_outcome(main, argv, capsys) == full
    # a leaf's help needs nothing else of the tree either
    if path and command_path(list(path)) == path:
        assert exit_outcome(build_parser(path).parse_args, argv,
                            capsys) == full


# exit code, stdout and stderr at the parent commit, whose main built the
# full tree for every request (COLUMNS=80)
_TOP_USAGE = ("usage: roundlab [-h] [--version]\n"
              "                {validate,gr,simplex,counts,obstruct,zspace,"
              "inject,cayley} ...\n")
PARSE_ERRORS = {
    "version": (["--version"], 0, "0.1.0\n", ""),
    "unknown-command": (
        ["frobnicate"], 1, "", _TOP_USAGE
        + "roundlab: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'validate', 'gr', 'simplex', 'counts', 'obstruct', "
        "'zspace', 'inject', 'cayley')\n"),
    "unknown-subcommand": (
        ["gr", "nope"], 1, "",
        "usage: roundlab gr [-h] {estimate} ...\n"
        "roundlab gr: error: argument sub: invalid choice: 'nope' "
        "(choose from 'estimate')\n"),
    # gr estimate's options as of schema 7
    "missing-required": (
        ["gr", "estimate"], 1, "",
        "usage: roundlab gr estimate [-h] --input INPUT "
        "[--max-size MAX_SIZE]\n"
        "                            [--tol TOL] [--budget BUDGET] "
        "[--p-cap P_CAP]\n"
        "                            [--unchecked] [--out OUT]\n"
        "roundlab gr estimate: error: the following arguments are required: "
        "--input\n"),
    # reported by the top level under its usage line, which lists every
    # command although this request takes the one-command path
    "unrecognized": (
        ["counts", "pairs", "--n", "4", "--bogus"], 1, "",
        _TOP_USAGE + "roundlab: error: unrecognized arguments: --bogus\n"),
}


@pytest.mark.parametrize("argv, code, out, err", PARSE_ERRORS.values(),
                         ids=PARSE_ERRORS)
def test_parse_exits_match_the_full_tree(argv, code, out, err, capsys,
                                         monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_outcome(main, argv, capsys) == (code, out, err)
    assert exit_outcome(build_parser().parse_args, argv, capsys) \
        == (code, out, err)


def test_readme_commands_parse_on_mains_path():
    for argv in readme_commands():
        path = command_path(argv)
        assert path == tuple(argv[:len(path)]) and path, argv
        assert (vars(build_parser(path).parse_args(argv))
                == vars(build_parser().parse_args(argv)))


def readme_python_blocks() -> list[str]:
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks, block = [], None
    for raw in text.splitlines():
        if block is None:
            if raw == "```python":
                block = []
        elif raw.startswith("```"):
            blocks.append("\n".join(block) + "\n")
            block = None
        else:
            block.append(raw)
    return blocks


def test_readme_python_example_runs():
    # the API example runs as written, in an interpreter that has
    # imported nothing yet
    blocks = readme_python_blocks()
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]],
                          capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    lower, upper = map(float, proc.stdout.split())
    assert lower <= 1.0 <= upper and upper - lower <= 1e-3


def test_missing_file_exits_1(capsys):
    code, _, err = run(["validate", "--input", "/nonexistent/x.csv"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_out_flag_writes_file(tmp_path, c4_csv, capsys):
    out = tmp_path / "report.json"
    code, doc, _ = run(["validate", "--input", c4_csv, "--out", str(out)],
                       capsys)
    assert code == 0
    assert doc is None  # nothing on stdout
    saved = json.loads(out.read_text())
    assert saved["command"] == "validate"


def suite_env():
    """The caller's environment with the directory holding the roundlab
    this suite imported put first on PYTHONPATH, so a child interpreter
    imports the same package however the suite found it."""
    src = str(Path(roundlab.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "roundlab.cli", "--version"],
                          capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0
    assert proc.stdout.strip()


def load_toml(path):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def test_console_script():
    # The declared entry point runs as an installed wrapper would, in a
    # fresh interpreter that imports the same roundlab as this suite; the
    # installed script itself is run too wherever it is on PATH.
    argv = ["zspace", "ball", "--block", "2", "--radius", "1/4"]
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = load_toml(pyproject)["project"]["scripts"]["roundlab"]
    assert entry == "roundlab.cli:main"

    module, _, func = entry.partition(":")
    wrapper = (f"import sys\nfrom {module} import {func}\n"
               f"sys.argv[0] = 'roundlab'\nsys.exit({func}())\n")
    runs = [([sys.executable, "-c", wrapper, *argv], suite_env())]
    installed = shutil.which("roundlab")
    if installed:
        runs.append(([installed, *argv], None))
    for cmd, cmd_env in runs:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=cmd_env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["total"] == 81
