"""End-to-end command line runs: exit codes, report bodies, determinism."""

import argparse
import ast
import atexit
import gc
import hashlib
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import roundlab
from oracles import spectral_value
from roundlab import cli
from roundlab.cli import COMMANDS, build_parser, command_path, main
from roundlab.cycles import DoubleSimplex
from roundlab.metric import FiniteMetricSpace
from roundlab.roundness import certify_violation
from roundlab.spaces import (cycle_graph_space, equilateral_space,
                             random_rational_metric_space, read_space_csv,
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
    assert doc["schema"] == 13
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


def test_gr_estimate_cap_without_witness_reports_clean_end(tmp_path,
                                                          capsys):
    # p_cap 1e-11 above the 5-cycle's roundness 2 log2 phi: no witness is
    # proven there, so the body keeps the proven lower end, unbounded
    path = tmp_path / "c5.csv"
    write_space_csv(cycle_graph_space(5), str(path))
    code, doc, _ = run(["gr", "estimate", "--input", str(path),
                        "--p-cap", "1.38848382727"], capsys)
    assert code == 0
    res = doc["results"]
    assert res["certified"] is True and res["unbounded"] is True
    assert res["flags"] == ["no witness proven up to p_cap"]
    assert res["lower"] <= spectral_value(cycle_graph_space(5))
    assert res["upper"] is res["witness"] is None


def _relabelled(space, seed):
    labels = list(range(space.size))
    random.Random(seed).shuffle(labels)
    return FiniteMetricSpace.from_rows([[space.dist[i][j] for j in labels]
                                        for i in labels])


def _pseudometric():
    """random_rational_metric_space(8, 3) with point 8 a copy of point 0:
    a zero off the diagonal, so only --unchecked reads it, and the
    estimate merges the copy into point 0."""
    base = random_rational_metric_space(8, 3).dist
    return FiniteMetricSpace.unchecked(
        [list(row) + [row[0]] for row in base] + [list(base[0]) + [0]])


@pytest.mark.parametrize("space, argv, results_sha256", [
    (lambda: random_rational_metric_space(20, 0),
     ["--max-size", "3", "--tol", "1e-3"],
     "03e0053b32895ef2ed358dcea0ad10aba7a8008538c61763318a1d5b04b5427c"),
    (lambda: _relabelled(random_rational_metric_space(20, 0), 7),
     ["--max-size", "3", "--tol", "1e-3"],
     "815d16565a860980f36181fb0bf91cf47440009b669c373d9f9b687ea86333b6"),
    (lambda: random_rational_metric_space(10, 1), ["--max-size", "4"],
     "663c4edeada950c197e7feb9989f0f7b5e2ae042bc5e471c1670be5c2cba5c07"),
    (lambda: cycle_graph_space(5), [],
     "2710b696e67001bcd554c341fda26b0bbf74486a4efcf2529ccb99cb62df9f49"),
    (_pseudometric, ["--unchecked"],
     "92f644d590cbfb611f1223b2f65c281676cfc5139f24ba452d42f95d8579e760"),
    (_pseudometric, ["--unchecked", "--max-size", "2", "--tol", "1e-2"],
     "5c1b0706c1a6b4cd901d2c01bf2c52b4679de70c43502e05eca0c737bf8a16e5"),
], ids=["r20", "r20-relabelled", "r10-size4", "c5", "pseudometric",
        "pseudometric-size2"])
def test_gr_estimate_results_frozen(space, argv, results_sha256, tmp_path,
                                    capsys):
    # digests recorded at schema 13, when the constant covers left the
    # results; the bodies are otherwise schema 12's, and schema 11's less
    # max_simplex_size, when listed metric spaces began to be probed by
    # the factorisation, for every double simplex, with the bracket
    # holding the numpy oracle's spectral value. The bracket is
    # certified, within the tolerance, and its witness violates at
    # witness_p. The pseudometric's bodies date from schema 12, when its
    # copy of point 0 began to be merged away, so --max-size goes unread
    # and its spectral value is the 8-point space's
    path = tmp_path / "space.csv"
    write_space_csv(space(), str(path))
    code, doc, _ = run(["gr", "estimate", "--input", str(path), *argv],
                       capsys)
    assert code == 0
    results = doc["results"]
    assert "max_simplex_size" not in results and "covers" not in results
    value = spectral_value(random_rational_metric_space(8, 3)
                           if space is _pseudometric else space())
    assert results["lower"] <= value <= results["upper"]
    tol = float(doc["params"]["tol"])
    assert results["certified"] is True
    assert results["upper"] - results["lower"] <= tol
    assert results["witness_p"] == results["upper"]
    witness = DoubleSimplex(tuple(results["witness"]["xs"]),
                            tuple(results["witness"]["ys"]))
    assert certify_violation(read_space_csv(str(path), checked=False),
                             witness, results["witness_p"])
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
    # d(0, 1) = -1 is refused before any power, naming the axiom
    path = tmp_path / "negative.csv"
    path.write_text("3\n0 -1 2\n-1 0 1\n2 1 0\n")
    code, doc, err = run(["gr", "estimate", "--unchecked",
                          "--input", str(path)], capsys)
    assert code == 1
    assert doc is None
    assert err == "error: distance matrix fails nonnegativity at (0,1)\n"


@pytest.mark.parametrize("text, err", [
    ("3\n0 1 2\n1 0 1\n2 1 2\n", "identity at (2,2)"),
    ("3\n0 1 2\n1 0 1\n2 3 0\n", "symmetry at (1,2)"),
], ids=["identity", "symmetry"])
def test_gr_estimate_refuses_an_unfit_unchecked_table(text, err, tmp_path,
                                                      capsys):
    path = tmp_path / "unfit.csv"
    path.write_text(text)
    code, doc, got = run(["gr", "estimate", "--unchecked",
                          "--input", str(path)], capsys)
    assert (code, doc) == (1, None)
    assert got == f"error: distance matrix fails {err}\n"


def _estimate_results(space, argv, tmp_path, capsys, name="space.csv"):
    path = tmp_path / name
    write_space_csv(space, str(path))
    code, doc, _ = run(["gr", "estimate", "--input", str(path), *argv],
                       capsys)
    assert code == 0
    return doc["results"], path


def test_gr_estimate_merges_a_repeated_point(tmp_path, capsys):
    # the copy of point 0 merges into it, so the pseudometric reports the
    # 8-point space's results byte for byte, whatever --max-size, and
    # holds its spectral value
    base = random_rational_metric_space(8, 3)
    want, _ = _estimate_results(base, [], tmp_path, capsys, "base.csv")
    for argv in ([], ["--max-size", "2"]):
        got, _ = _estimate_results(_pseudometric(), ["--unchecked", *argv],
                                   tmp_path, capsys)
        assert json.dumps(got, sort_keys=True) == json.dumps(want,
                                                             sort_keys=True)
    assert abs(spectral_value(base) - 1.408375) < 1e-6
    assert got["lower"] <= spectral_value(base) <= got["upper"]


def test_gr_estimate_zero_table_violates_at_zero(tmp_path, capsys):
    zero = FiniteMetricSpace.unchecked([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    res, path = _estimate_results(zero, ["--unchecked"], tmp_path, capsys)
    assert (res["lower"], res["upper"], res["witness_p"]) == (0.0, 0.0, 0.0)
    assert res["flags"] == ["violation at p=0"] and res["certified"]
    witness = DoubleSimplex(tuple(res["witness"]["xs"]),
                            tuple(res["witness"]["ys"]))
    assert certify_violation(read_space_csv(str(path), checked=False),
                             witness, 0.0)


def test_gr_estimate_copies_of_one_point(tmp_path, capsys):
    one, _ = _estimate_results(FiniteMetricSpace.from_rows([[0]]), [],
                               tmp_path, capsys, "one.csv")
    three, _ = _estimate_results(FiniteMetricSpace.unchecked([[0] * 3] * 3),
                                 ["--unchecked"], tmp_path, capsys)
    assert three == one
    assert one["flags"] == ["no violation up to p_cap"]


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
    # --max-size is recorded, and a listed metric space does not read it
    assert doc["params"]["max_size"] == 3
    assert "covers" not in doc["results"]
    assert "max_simplex_size" not in doc["results"]


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


@pytest.mark.parametrize("argv", [
    ["--coords", "8", "--units", "8", "--delta", "1", "--support", "1",
     "--size", "4"],
    ["--n", "4", "--t", "0", "--m", "0"],
], ids=["explicit", "stage-form"])
def test_counts_incidences_empty_class(argv, capsys):
    # no double simplex in the class: K = 0, and the ratio identity
    # compares 0 == 0 instead of dividing by K
    code, doc, _ = run(["counts", "incidences", *argv], capsys)
    assert code == 0
    res = doc["results"]
    assert (res["simplices"], res["simplices_per_edge_pair"],
            res["simplices_per_conn_pair"]) == (0, 0, 0)
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


def test_obstruct_step_and_chain_past_the_float_range(capsys):
    # 2^1100 passes the float range; the verdict is settled on the exact
    # class powers, so both commands exit 2 rather than 1
    code, doc, err = run(["obstruct", "step", *_STEP_ARGS[2:], "--map",
                          "builtin:identity", "--p", "1100"], capsys)
    assert (code, err) == (2, "")
    assert doc["results"]["holds"] is False
    assert doc["results"]["margin"] == "-inf"
    code, doc, err = run(["obstruct", "chain", *_CHAIN_ARGS[2:], "--map",
                          "builtin:identity", "--p", "1100"], capsys)
    assert (code, err) == (2, "")
    assert doc["results"]["cumulative_holds"] is False


@pytest.mark.parametrize("delta, p, means", [
    ("2", "100000", ("inf", "inf")), ("1", "1100", (1.0, "inf")),
], ids=["both-means", "edge-mean"])
def test_obstruct_step_margin_past_the_float_range(delta, p, means, capsys):
    # with both means past the float range hi - factor * lo is inf - inf;
    # the margin is the infinity of the settled verdict's sign, as where
    # only the edge mean overflows, never "nan"
    code, doc, err = run(["obstruct", "step", "--map", "builtin:identity",
                          "--coords", "4", "--units", "8", "--delta", delta,
                          "--support", "2", "--size", "2", "--p", p], capsys)
    assert (code, err) == (2, "")
    res = doc["results"]
    assert (res["conn"]["mean"], res["edge"]["mean"]) == means
    assert res["holds"] is False
    assert res["margin"] == "-inf"


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


@pytest.mark.parametrize("ladder", ["", ","], ids=["empty", "comma"])
def test_obstruct_uniform_refuses_an_empty_ladder(ladder, capsys):
    from roundlab.obstruction import uniform_obstruction_report

    with pytest.raises(ValueError, match="ladder is empty"):
        uniform_obstruction_report("builtin:identity", [], 2.0)
    code, doc, err = run(["obstruct", "uniform", "--map", "builtin:identity",
                          "--n-ladder", ladder, "--p", "2"], capsys)
    assert code == 1
    assert doc is None
    assert err == "error: the n ladder is empty: give at least one depth\n"


@pytest.mark.parametrize("argv, option, converter", [
    (["counts", "pairs", "--coords", "2", "--units", "4", "--delta", "1",
      "--support", "1", "--quantum", "1/0"], "--quantum", "parse_fraction"),
    (["obstruct", "step", *_STEP_ARGS, "--p", "1/0"], "--p", "_parse_p"),
    (["obstruct", "uniform", "--map", "builtin:identity", "--n-ladder", "2",
      "--p", "1e400"], "--p", "_parse_p"),
], ids=["quantum-zero-denominator", "p-zero-denominator", "p-overflow"])
def test_malformed_number_is_a_usage_error(argv, option, converter, capsys):
    code, out, err = exit_outcome(main, argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"usage: roundlab {argv[0]} {argv[1]} ")
    assert err.endswith(f"error: argument {option}: invalid {converter} "
                        f"value: {argv[-1]!r}\n")
    assert "Traceback" not in err


def _leaf_parsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _leaf_parsers(child)
            return
    yield parser


def test_every_converter_fails_as_a_usage_error():
    # argparse turns only these into usage errors; anything else a type=
    # callable raises escapes as a traceback
    usage_errors = (ValueError, TypeError, argparse.ArgumentTypeError)
    leaves = list(_leaf_parsers(build_parser()))
    assert len(leaves) == 16
    seen = set()
    for leaf in leaves:
        for action in leaf._actions:
            if action.type is None:
                continue
            seen.add(getattr(action.type, "__name__", repr(action.type)))
            for text in ("1/0", "abc", "", "1e400", "0/0"):
                try:
                    action.type(text)
                except usage_errors:
                    pass
                except Exception as exc:
                    pytest.fail(f"{leaf.prog} {action.option_strings}: "
                                f"{text!r} raised {exc!r}")
    assert {"parse_fraction", "_parse_p", "int", "float"} <= seen


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
# every leaf command's whole body, pinned: (argv, exit code)

_STEP_SPACE = ["--coords", "4", "--units", "8", "--delta", "1",
               "--support", "2", "--size", "2", "--p", "2"]
# the identity's step fails at p = 2 (exit 2); the other maps' steps hold
_STEP_MAPS = ("identity", "circle", "constant", "snowflake:1/2")
_MAP_OUT = ["--input", "space.csv", "--map-out", "map.json", "--target"]

PINNED = {
    "validate": (["validate", "--input", "space.csv"], 0),
    "validate-budget": (["validate", "--input", "broken.csv", "--budget",
                         "4"], 2),
    "gr-estimate": (["gr", "estimate", "--input", "c5.csv"], 0),
    "gr-estimate-r12": (["gr", "estimate", "--input", "space.csv",
                         "--max-size", "2", "--tol", "1e-2"], 0),
    "simplex-build": (["simplex", "build", "--coords", "4", "--units", "8",
                       "--delta", "1", "--support", "2", "--size", "2"], 0),
    "simplex-build-stage": (["simplex", "build", "--n", "2", "--t", "0",
                             "--m", "1"], 0),
    "counts-pairs": (["counts", "pairs", "--n", "2", "--t", "1", "--m", "0",
                      "--enumerate-budget", "200000"], 0),
    "counts-incidences": (["counts", "incidences", "--coords", "8",
                           "--units", "8", "--delta", "1", "--support", "2",
                           "--size", "4"], 0),
    "obstruct-coarse": (["obstruct", "coarse", "--moduli", "moduli.json",
                         "--p", "1"], 2),
    **{f"obstruct-step-{mode}-{name}": (
        ["obstruct", "step", "--map", f"builtin:{name}", *_STEP_SPACE,
         "--mode", mode, "--samples", "500"], code)
       for mode in ("exact", "mc")
       for name, code in zip(_STEP_MAPS, (2, 0, 0, 0))},
    "obstruct-chain": (["obstruct", "chain", "--map", "builtin:circle",
                        "--n", "2", "--t", "-1", "--m", "1", "--levels", "2",
                        "--p", "2", "--mode", "exact"], 0),
    "obstruct-uniform-p2": (["obstruct", "uniform", "--map",
                             "builtin:identity", "--n-ladder", "2,4",
                             "--p", "2"], 2),
    "obstruct-uniform-pinf": (["obstruct", "uniform", "--map",
                               "builtin:snowflake:1/2", "--n-ladder", "2",
                               "--p", "inf"], 2),
    "zspace-validate-literal": (["zspace", "validate", "--variant", "literal",
                                 "--block-bound", "6", "--all"], 2),
    "zspace-validate-corrected": (["zspace", "validate", "--variant",
                                   "corrected", "--block-bound", "6"], 0),
    "zspace-ball": (["zspace", "ball", "--block", "2", "--radius", "1/4",
                     "--center", "center.json"], 0),
    **{f"inject-build-{target}": (["inject", "build", *_MAP_OUT, target], 0)
       for target in ("ell0", "ellp:1/2", "ellp:2", "ballchain:intervals",
                      "ballchain:cauchy")},
    "inject-build-embedded": (["inject", "build", "--input", "c5.csv",
                               "--target", "ellp:1"], 0),
    "inject-verify": (["inject", "verify", "--map", "table.json"], 0),
    "inject-verify-input": (["inject", "verify", "--map", "table.json",
                             "--input", "c5.csv", "--modulus",
                             "identity"], 0),
    "cayley-verify-merged": (["cayley", "verify", "--n", "2"], 0),
    "cayley-verify-literal": (["cayley", "verify", "--n", "2", "--variant",
                               "literal"], 2),
    "cayley-roundness": (["cayley", "roundness", "--dim", "2", "--jump", "3",
                          "--g", "1,1", "--h", "1,-1"], 0),
    "cayley-roundness-basis": (["cayley", "roundness", "--dim", "3",
                                "--standard-basis", "--g", "1,0,0", "--h",
                                "0,0,-1"], 0),
    "cayley-projection": (["cayley", "projection", "--dims", "1,2",
                           "--radius", "2"], 0),
}

# sha256 of the body without wall_time_s, sorted and compact
PINNED_BODY = {
    "validate":
        "3b5bf6032cf3e157449d93e34a0ff45eda837cdf0308eb53cf2f8aaef3b085ad",
    "validate-budget":
        "3bd7197eef52c6ea81ba5838aef43dc09f65f154722b2f1800df20690af27ed7",
    "gr-estimate":
        "0fe42d4bec8550af3459033112bfebd8885072005a0f5fdd49c795167939bfbd",
    "gr-estimate-r12":
        "04c51ea7bbfcc7ee2309677991584d21f26f2ca6a33649391591063a421a16d3",
    "simplex-build":
        "0eedc651005cc829dab4ea6439f07f380a500650a15d237f4f00a0be3ee2905c",
    "simplex-build-stage":
        "dc5f36f19b8bb79334b9f527b4ac5f206e25fdc06a4f4e4ef1ecaf439642cc07",
    "counts-pairs":
        "2319cd745fd02c29e5762dd8a9c937a2bf08f432cb927528505862886e5bba31",
    "counts-incidences":
        "2f9879950d70c0efb2d8d2ddc115385d0d05995176147cbd7c7a4cc13faf5997",
    "obstruct-coarse":
        "27500872ddd75c329c48334e28690b44ffd098003592ba50d92fe70aac49d292",
    "obstruct-step-exact-identity":
        "509f17eb3de607caec724376f1315c42a940a8b50890f154f5177454cd25079a",
    "obstruct-step-exact-circle":
        "6d8d34c2a422f5affa32487ad2d67956a7262e48957e18c5dfa2008df1bcb76b",
    "obstruct-step-exact-constant":
        "faeb70f6ae4bf539ea9194f4c799fd39cbe88a2e6d6f5d3de0683e94fe56970a",
    "obstruct-step-exact-snowflake:1/2":
        "b3f28ca629156f0679ee5847f90ad2c63c38ac08363eca3c97560358897b923a",
    "obstruct-step-mc-identity":
        "4eecb5fa7e17f6c3ca26aa7fce30e4c5ed6a84319457a7488afad162c9ad3f9b",
    "obstruct-step-mc-circle":
        "d0d36f72fc7cbab6d86aa32c18d8a4ba09d970359d0bb9ab7248e5cea4c0ad78",
    "obstruct-step-mc-constant":
        "4de303765508bad71d4fade58bbf64bf2989eddfb848e5f61ef53360dbf234d7",
    "obstruct-step-mc-snowflake:1/2":
        "62c12f3b46bd5183dd2160c8d11c71c654f124544a0b22e591b6f5695b593c3a",
    "obstruct-chain":
        "2f2be74502f6482274f09bb5c5bed563f3f48aa263fba49d0257d96b639a701f",
    "obstruct-uniform-p2":
        "53d97315769d3b13f0bd0cfdc6810531f4250e28e239fe64539fbebac6a64651",
    "obstruct-uniform-pinf":
        "d8085feffa2418cc5b5f2ed402f270e853acd797eab89ac27440e7661177fe45",
    "zspace-validate-literal":
        "26a012d476d4bdcc0ba20d39225680d5a603544a9243c9d7e0d31286568bacc0",
    "zspace-validate-corrected":
        "f266a4f111fa10fdd3bf380492265e88c2e86005ea2d5cc511dc1e87a960a8a0",
    "zspace-ball":
        "de235ba08e688074dc18907f56c17862e65e09834d1d94b17a7796eb99ae45dc",
    "inject-build-ell0":
        "c20636e834cc615160d2470ec8ffa45c7f01e2f19d20a6671496167c55824617",
    "inject-build-ellp:1/2":
        "27a5e44a0229c50502bf269823af7a1d55061f48b619451153bd8d1f4d1a8cd4",
    "inject-build-ellp:2":
        "95a6e6098f43400e0acd42721eeebe51c16b18f8c3806c1e72ff44b05bc07ec8",
    "inject-build-ballchain:intervals":
        "f289e600b9e43cfd1eb6b6c4d585b14bb3caee16619168cde714d3a012bf364b",
    "inject-build-ballchain:cauchy":
        "bdb20794fcd390813c42180753a0197ea85d6085c522ec85929699e775f26401",
    "inject-build-embedded":
        "8343047f232fd076ca115bc7e46fc9bb401f276c676c825b0d2df34301491dc8",
    "inject-verify":
        "78d9fd2d1a06172a65a108018ac8f130e8fb884bf0089653a50ef7df1940de24",
    "inject-verify-input":
        "11d4f4d6fc8f2cf5fc293a3f0d6e4ff19ad276f63af4dde665cdc41081bd7178",
    "cayley-verify-merged":
        "3d32f5f61b2e0560ec63ed66694659ff372fba1d557967c32072bed97b6370d5",
    "cayley-verify-literal":
        "c68af912fba4704910f43f8c10b9972085ed2140f400ea78b5cd52df8620c498",
    "cayley-roundness":
        "d766736cf3d43a187d76d9707c81fef388b55c41e6a5d053c80f49e6fc4cbebe",
    "cayley-roundness-basis":
        "faeae309468ea27f6bbd8e039103ba532c92be660b72107c610cb11224e26ef8",
    "cayley-projection":
        "2f4a35e8e18e833f3bc52f4beeaa6a3d499aef1b18c7ffb3f8061b0bfd58d32c",
}

# sha256 of the --map-out file
PINNED_MAP = {
    "inject-build-ell0":
        "b41a1e47cf464e2176e89379ca074df84ab3730f9afa6524dee58cd339f1537e",
    "inject-build-ellp:1/2":
        "67cde5d2124502f0ed77b0e5f7470b2c202f5c5a37063538b49f38f5dcdaa511",
    "inject-build-ellp:2":
        "d0ec87ab3989e64dea542f885888b8e577a215d135457de0a1b50c2d4770418e",
    "inject-build-ballchain:intervals":
        "9ac2ea3ce924720a8776235f3075fa2671428463ea1605733ab1c971853984f5",
    "inject-build-ballchain:cauchy":
        "8cdb5c111a261760841888ca39c24de6038a2ae6407f2e25921c0b926d1242a3",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def pinned_files(tmp_path, monkeypatch, capsys):
    """The input files of PINNED, under relative names in a fresh working
    directory, so no temporary path reaches the params."""
    monkeypatch.chdir(tmp_path)
    write_space_csv(random_rational_metric_space(12, 0), "space.csv")
    write_space_csv(cycle_graph_space(5), "c5.csv")
    write_space_csv(FiniteMetricSpace.unchecked(
        [[0, 1, 10], [1, 0, 1], [10, 1, 0]]), "broken.csv")
    samples = [[1, 1]] + [[2 ** k, k] for k in range(1, 9)]
    Path("moduli.json").write_text(json.dumps({"samples": samples}))
    Path("center.json").write_text(json.dumps({"block": 2,
                                               "residues": [0, 3, 0, 1]}))
    assert main(["inject", "build", "--input", "c5.csv", "--target",
                 "ellp:1/2", "--map-out", "table.json"]) == 0
    capsys.readouterr()


def test_pinned_bodies_cover_every_command():
    leaves = {path for path in command_paths()
              if path and command_path(list(path)) == path}
    assert {command_path(argv) for argv, _ in PINNED.values()} == leaves
    assert set(PINNED_BODY) == set(PINNED)
    assert set(PINNED_MAP) == {name for name, (argv, _) in PINNED.items()
                               if "--map-out" in argv}


@pytest.mark.parametrize("name", PINNED)
def test_every_command_body_pinned(name, pinned_files, capsys):
    # digests of the body as `Report.body_json` dumps it, recorded at
    # schema 13 (every body is schema 12's with the schema changed, less
    # covers in gr estimate's); the printed text is that body and
    # wall_time_s, indented
    argv, code = PINNED[name]
    assert main(argv) == code
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert doc.pop("wall_time_s") >= 0
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert _sha256(body) == PINNED_BODY[name]
    if name in PINNED_MAP:
        assert _sha256(Path("map.json").read_text()) == PINNED_MAP[name]


def _reporting_calls(tree: ast.AST) -> list[str]:
    """What of the report path a module does itself: importing `time`,
    calling `_print_report` or a `.to_dict()`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "time"]
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            found.append("time")
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("_print_report", "to_dict"):
                found.append(name)
    return found


def test_handlers_leave_the_report_to_main():
    package = Path(roundlab.__file__).parent
    found = [f"{path.name}: {call}"
             for path in sorted(package.glob("cli_*.py"))
             for call in _reporting_calls(ast.parse(path.read_text()))]
    assert not found, ("a handler returns (params, results, ok) and main "
                       f"times, serializes and prints: {found}")


def test_the_guard_sees_reporting_calls():
    tree = ast.parse("import time\n"
                     "from time import perf_counter\n"
                     "_print_report(args, 'x', {}, rep.to_dict())\n"
                     "rep.fields()\n")
    assert _reporting_calls(tree) == ["time", "time", "_print_report",
                                      "to_dict"]


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


def test_zspace_ball_names_a_zero_denominator(capsys):
    code, doc, err = run(["zspace", "ball", "--block", "2", "--radius",
                          "1/0"], capsys)
    assert (code, doc, err) == (1, None, "error: zero denominator in '1/0'\n")


def test_zspace_ball_refuses_a_center_from_another_block(tmp_path, capsys):
    from roundlab.zspace import ZPoint

    path = tmp_path / "c.json"
    path.write_text(json.dumps(ZPoint.make(4, {0: 1}).to_dict()))
    argv = ["zspace", "ball", "--radius", "1/4", "--center", str(path)]
    code, doc, err = run(argv + ["--block", "2"], capsys)
    assert code == 1
    assert doc is None
    assert err.startswith("error:")
    assert "block 4" in err and "--block 2" in err
    code, doc, _ = run(argv + ["--block", "4"], capsys)
    assert code == 0
    assert doc["results"]["center"]["block"] == 4


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


# every text input read as a rational, given a zero denominator; {space}
# holds the 3-point path, {bad} a 2-point space with a 1/0 entry
ZERO_DENOMINATOR = {
    "inject-target": ["inject", "build", "--input", "{space}",
                      "--target", "ellp:1/0"],
    "inject-modulus": ["inject", "build", "--input", "{space}",
                       "--target", "ell0", "--modulus", "root:1/0"],
    "uniform-snowflake": ["obstruct", "uniform", "--map",
                          "builtin:snowflake:1/0", "--n-ladder", "2",
                          "--p", "2"],
    "step-snowflake": ["obstruct", "step", "--coords", "2", "--units", "4",
                       "--delta", "1", "--support", "1", "--size", "2",
                       "--map", "builtin:snowflake:1/0", "--p", "2"],
    "validate-entry": ["validate", "--input", "{bad}"],
    "estimate-entry": ["gr", "estimate", "--input", "{bad}"],
    "moduli-sample": ["obstruct", "coarse", "--moduli", "{moduli}",
                      "--p", "2"],
    "map-image": ["inject", "verify", "--map", "{map}"],
}


@pytest.mark.parametrize("argv", ZERO_DENOMINATOR.values(),
                         ids=ZERO_DENOMINATOR)
def test_zero_denominator_is_named(argv, tmp_path, capsys):
    from roundlab.spaces import path_graph_space

    files = {name: tmp_path / f"{name}.txt"
             for name in ("space", "bad", "moduli", "map")}
    write_space_csv(path_graph_space(3), str(files["space"]))
    files["bad"].write_text("2\n0 1/0\n1 0\n")
    files["moduli"].write_text(json.dumps([["1/0", 1]]))
    files["map"].write_text(json.dumps(
        {"target": "ballchain", "images": ["0", "1/0"],
         "domain": [[0, 1], [1, 0]]}))
    code, doc, err = run([a.format(**files) for a in argv], capsys)
    assert (code, doc, err) == (1, None, "error: zero denominator in '1/0'\n")


def _ell0_map(space):
    from roundlab.inject import build_ell0_injection

    return build_ell0_injection(space).to_json_dict(space)


def _set(value, *paths):
    """Set the entries at `paths` (keys and indices) of a JSON document."""
    def edit(doc):
        for path in paths:
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        return doc
    return edit


# (command, document, its edit at value X, whether a float is a legal
# value there, the entry the refusal names); each edit puts X where the
# decoder reads a number
_JSON_NUMBER_ENTRIES = {
    "center-residue": (["zspace", "ball", "--block", "2", "--radius", "1/4",
                        "--center"],
                       lambda: {"block": 2, "residues": [0, 1, 0, 0]},
                       lambda x: _set(x, ["residues", 1]), False,
                       "ZPoint residue at coordinate 1"),
    "center-sparse-residue": (["zspace", "ball", "--block", "2", "--radius",
                               "1/4", "--center"],
                              lambda: {"block": 2, "sparse": {"3": 1}},
                              lambda x: _set(x, ["sparse", "3"]), False,
                              "ZPoint residue at coordinate 3"),
    "center-sparse-coordinate": (["zspace", "ball", "--block", "2",
                                  "--radius", "1/4", "--center"],
                                 lambda: {"block": 2, "sparse": {}},
                                 lambda x: _set(1, ["sparse",
                                                    json.dumps(x)]),
                                 False, "ZPoint sparse coordinate"),
    "center-block": (["zspace", "ball", "--block", "2", "--radius", "1/4",
                      "--center"],
                     lambda: {"block": 2, "sparse": {}},
                     lambda x: _set(x, ["block"]), False, "ZPoint block"),
    "map-level": (["inject", "verify", "--map"],
                  lambda: _ell0_map(cycle_graph_space(4)),
                  lambda x: _set(x, ["images", 1, 0, 0]), False,
                  "image 1 level"),
    "map-value": (["inject", "verify", "--map"],
                  lambda: _ell0_map(cycle_graph_space(4)),
                  lambda x: _set(x, ["images", 1, 0, 1]), True,
                  "image 1 is not a number"),
    "map-domain": (["inject", "verify", "--map"],
                   # all sides 3, so a side of 1.5 or 4 keeps a metric
                   lambda: _ell0_map(equilateral_space(4, 3)),
                   lambda x: _set(x, ["domain", 0, 1], ["domain", 1, 0]),
                   True,
                   "domain row 0 is not a number"),
    "moduli": (["obstruct", "coarse", "--p", "1", "--moduli"],
               lambda: [[1, 1], [2, 1], [4, 1]],
               lambda x: _set(x, [1, 1]), True, "moduli sample 1"),
}


@pytest.mark.parametrize("value", [1.5, 4.0, True],
                         ids=["1.5", "4.0", "true"])
@pytest.mark.parametrize("argv, document, edit, float_ok, entry",
                         _JSON_NUMBER_ENTRIES.values(),
                         ids=_JSON_NUMBER_ENTRIES)
def test_json_numbers_are_refused_not_coerced(argv, document, edit, float_ok,
                                              entry, value, tmp_path,
                                              capsys):
    # an integer is read where a count or an index is meant, a float too
    # where a distance is: 1.5 and 4.0 are never rounded, and a boolean is
    # never a number
    path = tmp_path / "input.json"
    path.write_text(json.dumps(edit(value)(document())))
    code, doc, err = run(argv + [str(path)], capsys)
    if float_ok and not isinstance(value, bool):
        assert code in (0, 2), err
        return
    assert code == 1
    assert doc is None
    assert err.startswith("error:")
    assert entry in err
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
    assert json.loads(first)["schema"] == 13


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


def test_cayley_roundness_takes_no_cutoff(capsys):
    code, usage, _ = exit_outcome(main, ["cayley", "roundness", "--help"],
                                  capsys)
    assert code == 0
    assert "--cutoff" not in usage
    code, _, err = exit_outcome(
        main, ["cayley", "roundness", "--dim", "2", "--standard-basis",
               "--g", "1,0", "--h", "0,1", "--cutoff", "8"], capsys)
    assert code == 1
    assert "unrecognized arguments: --cutoff 8" in err


def test_cayley_roundness_needs_generators(capsys):
    code, _, err = run(["cayley", "roundness", "--dim", "2",
                        "--g", "1,0", "--h", "0,1"], capsys)
    assert code == 1
    assert "--jump" in err


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_cayley_roundness_refuses_nonpositive_dim(dim, capsys):
    code, _, err = run(["cayley", "roundness", f"--dim={dim}",
                        "--standard-basis", "--g=", "--h="], capsys)
    assert code == 1
    assert "error: dim must be positive" in err


def test_cayley_roundness_refuses_jump_with_standard_basis(capsys):
    code, _, err = run(["cayley", "roundness", "--dim", "2", "--jump", "3",
                        "--standard-basis", "--g", "1,0", "--h", "0,1"],
                       capsys)
    assert code == 1
    assert "error: give --jump or --standard-basis, not both" in err


@pytest.mark.parametrize("variant", ["merged", "literal"])
def test_cayley_roundness_refuses_variant_with_standard_basis(variant,
                                                              capsys):
    argv = ["cayley", "roundness", "--dim", "2", "--standard-basis",
            "--g", "1,0", "--h", "0,1"]
    code, doc, err = run(argv + ["--variant", variant], capsys)
    assert code == 1
    assert doc is None
    assert err == "error: give --variant or --standard-basis, not both\n"
    # without it the params still name merged, as they always have
    code, doc, _ = run(argv, capsys)
    assert code == 0
    assert doc["params"]["variant"] == "merged"
    # a jump family still defaults to merged
    code, doc, _ = run(["cayley", "roundness", "--dim", "2", "--jump", "3",
                        "--g", "1,1", "--h", "1,-1"], capsys)
    assert code == 0
    assert doc["params"]["variant"] == "merged"


def test_cayley_projection_cli(capsys):
    code, doc, _ = run(["cayley", "projection"], capsys)
    assert code == 0
    assert doc["results"]["states_full"] == 15769
    assert doc["results"]["mismatch_count"] == 0


@pytest.mark.parametrize("options, message", [
    (["--jumps=1,8"], "jump must be at least 2"),
    (["--dims=0,2"], "dim must be positive"),
    (["--radius=-1"], "radius must be nonnegative, got -1"),
    (["--dims=8,1", "--jumps=3,3", "--variant=merged"],
     "family of 390624 generators is too large to list"),
    (["--dims=6,6", "--jumps=3,3"],
     "531440 unit moves on 12 coordinates are too many to list"),
    (["--dims=3,3", "--jumps=3,3"],
     "ball of radius 3 needs 38308140 generator sums by depth 3, over the "
     "limit of 3000000"),
], ids=["jump-1", "dim-0", "radius-negative", "over-enum-limit",
        "over-unit-limit", "over-sum-limit"])
def test_cayley_projection_refuses_a_degenerate_check(options, message,
                                                      monkeypatch, capsys):
    from roundlab import cayley

    search = cayley.bfs_ball

    def refused_search(gens, radius):
        # bfs_ball refuses a negative radius at once, and a ball whose sums
        # would pass SUM_LIMIT before the depth that would pass them; a
        # search that returns searched a ball
        search(gens, radius)
        raise AssertionError("a ball was searched")

    monkeypatch.setattr(cayley, "bfs_ball", refused_search)
    code, doc, err = run(["cayley", "projection", *options], capsys)
    assert (code, doc, err) == (1, None, f"error: {message}\n")


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


# the r=6 census, about 40 s; CI's stage-6 step runs it
STAGE6_CENSUS = ["counts", "incidences", "--coords", "12", "--units", "16",
                 "--delta", "1", "--support", "2", "--size", "6"]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # README's commands in README's order (inject build writes the map
    # inject verify reads) on the input files they name
    monkeypatch.chdir(tmp_path)
    write_space_csv(cycle_graph_space(5), "points.csv")
    samples = [[1, 1]] + [[2 ** k, k] for k in range(1, 9)]
    Path("moduli.json").write_text(json.dumps({"samples": samples}))
    commands = readme_commands()
    assert STAGE6_CENSUS in commands
    for argv in commands:
        if argv == STAGE6_CENSUS:
            continue
        code, doc, err = run(argv, capsys)
        assert code in (0, 2), (argv, err)
        assert doc["command"] == " ".join(command_path(argv)), argv


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


def test_out_into_missing_directory_exits_1(tmp_path, c4_csv, capsys):
    out = tmp_path / "missing" / "report.json"
    code, doc, err = run(["validate", "--input", c4_csv, "--out", str(out)],
                         capsys)
    assert code == 1
    assert doc is None
    assert err.startswith("error:")


def test_unwritable_out_is_refused_before_the_handler(tmp_path, c4_csv,
                                                      monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(vars(cli), "estimate_roundness", never)
    out = tmp_path / "nodir" / "r.json"
    code, doc, err = run(["gr", "estimate", "--input", c4_csv,
                          "--out", str(out)], capsys)
    assert (code, doc) == (1, None)
    assert err == (f"error: [Errno 2] No such file or directory: "
                   f"{str(out)!r}\n")
    # a directory is no file to write either
    code, _, err = run(["gr", "estimate", "--input", c4_csv,
                        "--out", str(tmp_path)], capsys)
    assert code == 1 and err.startswith("error: [Errno 21]")


def test_a_failed_run_leaves_out_as_it_found_it(tmp_path, c4_csv,
                                                monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ValueError("the handler failed")

    monkeypatch.setitem(vars(cli), "estimate_roundness", fail)
    old = tmp_path / "old.json"
    old.write_bytes(b"an earlier report\n")
    new = tmp_path / "new.json"
    for out in (old, new):
        code, doc, err = run(["gr", "estimate", "--input", c4_csv,
                              "--out", str(out)], capsys)
        assert (code, doc, err) == (1, None, "error: the handler failed\n")
    assert old.read_bytes() == b"an earlier report\n"
    assert not new.exists()
    # a run that succeeds writes over the earlier report
    monkeypatch.undo()
    assert main(["gr", "estimate", "--input", c4_csv, "--out",
                 str(old)]) == 0
    assert json.loads(old.read_text())["command"] == "gr estimate"


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


def test_package_entry_point():
    # the invocation README names
    proc = subprocess.run([sys.executable, "-m", "roundlab", "cayley",
                           "roundness", "--dim", "2", "--standard-basis",
                           "--g=-1,0", "--h", "0,1"],
                          capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["g"] == [-1, 0]


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


# ---------------------------------------------------------------------------
# the exit hook: main registers gc.freeze to run at interpreter exit, so the
# shutdown collections skip what the request loaded

UNIFORM_IDENTITY = ["obstruct", "uniform", "--map", "builtin:identity",
                    "--n-ladder", "2,4", "--p", "2"]
ZSPACE_BALL = ["zspace", "ball", "--block", "2", "--radius", "1/4"]


def run_fresh(argv, script=None):
    """`python -m roundlab argv` in a fresh interpreter, or `script` with
    argv as its arguments."""
    head = ["-m", "roundlab"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *head, *argv], capture_output=True,
                          text=True, env=suite_env())


@pytest.mark.parametrize("argv, code", [
    (["counts", "pairs", "--coords", "3", "--units", "6", "--delta", "1",
      "--support", "1"], 0),
    (["validate"], 1),
    (UNIFORM_IDENTITY, 2),
], ids=["passed", "usage-error", "obstruction"])
def test_fresh_interpreter_keeps_the_exit_code(argv, code):
    assert run_fresh(argv).returncode == code


def test_fresh_interpreter_prints_the_in_process_report(capsys):
    assert main(UNIFORM_IDENTITY) == 2
    out = capsys.readouterr().out
    assert '"wall_time_s"' in out
    assert strip_wall(run_fresh(UNIFORM_IDENTITY).stdout) == strip_wall(out)


def test_fresh_interpreter_writes_the_whole_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    proc = run_fresh([*UNIFORM_IDENTITY, "--out", str(path)])
    assert proc.returncode == 2 and proc.stdout == ""
    main(UNIFORM_IDENTITY)
    out = capsys.readouterr().out
    text = path.read_text(encoding="utf-8")
    assert text.endswith("}\n")
    assert strip_wall(text) == strip_wall(out)


def test_exit_hook_freezes_the_heap():
    script = ("import atexit, gc, sys\n"
              "from roundlab import cli\n"
              "cli.main(sys.argv[1:])\n"
              "before = gc.get_freeze_count()\n"
              "atexit._run_exitfuncs()\n"
              "print(before, gc.get_freeze_count(), file=sys.stderr)\n")
    proc = run_fresh(ZSPACE_BALL, script)
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stderr.split())
    assert before == 0 and after > 0


def test_main_registers_one_exit_hook():
    # the child counts the exit calls of the function main finds as
    # gc.freeze
    script = ("import atexit, gc, sys\n"
              "calls = []\n"
              "gc.freeze = lambda: calls.append(1)\n"
              "from roundlab import cli\n"
              "for _ in range(3):\n"
              "    cli.main(sys.argv[1:])\n"
              "atexit._run_exitfuncs()\n"
              "print(len(calls), file=sys.stderr)\n")
    proc = run_fresh(ZSPACE_BALL, script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["1"]


def test_main_leaves_the_freeze_count_alone(capsys):
    frozen = gc.get_freeze_count()
    assert main(ZSPACE_BALL) == 0
    assert gc.get_freeze_count() == frozen


def test_no_request_leaves_a_resource_to_a_finalizer(tmp_path, monkeypatch,
                                                     capsys):
    # a frozen heap is never collected at exit, so a file or pool that
    # only a finalizer closes would stay open; gc.collect() here runs the
    # finalizers the exit would skip, and a ResourceWarning from one of
    # them reaches the unraisable hook
    write_space_csv(cycle_graph_space(5), str(tmp_path / "points.csv"))
    monkeypatch.chdir(tmp_path)
    picks = [("gr", "estimate"), ("counts", "incidences"),
             ("obstruct", "uniform"), ("cayley", "verify")]
    argvs = [next(argv for argv in readme_commands()
                  if tuple(argv[:2]) == path) for path in picks]
    assert {COMMANDS[a][1][b][1] for a, b in picks} \
        == {"space", "census", "obstruct", "blocks"}
    gc.collect()
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for argv in argvs:
            assert main(argv) in (0, 2), argv
        gc.collect()
    assert [u.exc_value for u in unraisable] == []
