"""Each command loads only the code it runs.

Commands run in fresh interpreters, since the suite itself has imported
everything; after each one the child lists `sys.modules`.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import roundlab
from roundlab.cli import COMMANDS
from test_cli import suite_env

# roundlab.__all__ as it stood when the package imported every submodule,
# less find_violation_search, which went with the greedy search, plus
# `exact` and `moduli`, the halves of `numerics` and `metric` that a
# listed space's `gr estimate` does not run
SEED_ALL = [
    "BudgetExceeded", "CircleEmbeddingMap", "CycleSpace", "DoubleSimplex",
    "FamilyGenerators", "FiniteMetricSpace", "GapResult", "IdentityMap",
    "Isometry", "ModulusEnvelope", "PairClass", "ProductCycleSpace",
    "RoundnessEstimate", "SimplexClass", "ZPoint", "ball_census",
    "build_ballchain_injection", "build_ell0_injection",
    "build_ellp_injection", "build_simplex", "cayley",
    "cayley_roundness_upper", "certify_corrected",
    "coarse_obstruction_report", "count_incidences", "count_pairs_closed",
    "cyclic", "empirical_moduli", "enumerate_pairs", "estimate_roundness",
    "euler_factor", "exact", "find_violation_exhaustive", "inject",
    "is_pair", "is_simplex", "kernels", "level_average", "metric",
    "moduli", "numerics", "obstruction", "parallel", "roundness",
    "simplex_gap", "snowflake",
    "stage_pair_class", "stage_simplex_class", "stage_space",
    "transport_pair", "uniform_obstruction_report", "validate_metric",
    "verify_chain_inequality", "verify_injection", "verify_mstar_isometry",
    "verify_step_inequality", "zeta", "zspace",
]

# runs the command given on its own command line, report to --out, then
# prints the exit code and the loaded module names
_CHILD = """
import json, sys
from roundlab.cli import main
rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""

_SPACE_4 = ["--coords", "4", "--units", "8", "--delta", "1", "--support", "2"]
_SPACE_8 = ["--coords", "8", "--units", "8", "--delta", "1", "--support", "2"]

COUNTS = {
    "incidences-r2": ["counts", "incidences", *_SPACE_8, "--size", "2"],
    "incidences-r4": ["counts", "incidences", *_SPACE_8, "--size", "4",
                      "--budget", str(10 ** 12)],
    "pairs-enumerated": ["counts", "pairs", *_SPACE_4,
                         "--enumerate-budget", str(10 ** 6)],
}
STEPS = {
    f"step-{name}": ["obstruct", "step", "--map", f"builtin:{name}",
                     *_SPACE_4, "--size", "2", "--p", "2", "--mode", "exact"]
    for name in ("identity", "circle", "snowflake:1/2", "constant")
}
# Monte Carlo mode and uniform read the same closed-form class distance
OBSTRUCT_MC = {
    "step-mc": ["obstruct", "step", "--map", "builtin:circle", *_SPACE_4,
                "--size", "2", "--p", "2", "--mode", "mc"],
    # the README chain
    "chain-mc": ["obstruct", "chain", "--map", "builtin:circle", "--n", "4",
                 "--delta", "1", "--support", "64", "--size", "4",
                 "--levels", "4", "--p", "2", "--mode", "mc",
                 "--samples", "100000", "--seed", "7"],
    # the constant map's margins are exactly 0: settled in Fractions
    **{f"uniform-{name}": ["obstruct", "uniform", "--map", f"builtin:{name}",
                           "--n-ladder", "2,4", "--p", "2"]
       for name in ("identity", "circle", "constant")},
}


def family_module(words) -> str:
    """The command module of the family that holds the command `words`."""
    entry = COMMANDS[words[0]]
    leaf = entry[1][words[1]] if isinstance(entry[1], dict) else entry
    return f"roundlab.cli_{leaf[1]}"


def loaded_after(argv, tmp_path) -> tuple[int, set]:
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv,
                           "--out", str(out)],
                          capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    command = json.loads(out.read_text())["command"].split()
    assert argv[:len(command)] == command
    modules = set(result["modules"])
    # the command's own family module and no other
    assert {m for m in modules if m.startswith("roundlab.cli_")} \
        == {family_module(command)}
    return result["rc"], modules


# what `gr estimate` loads to read and scan a space file (`validate` and
# `inject` load `metric`, the reader)
SPACE_FILE_MODULES = {"roundlab.roundness", "roundlab.metric"}

# all the roundlab code the benchmark's 20-point `gr estimate` loads: not
# the generators and writer of `spaces`, the exact half of the numerics
# (`exact`), which no probe there needs, nor the moduli of `moduli`
R20_ESTIMATE_MODULES = {"roundlab", "roundlab.cli", "roundlab.report",
                        "roundlab.cli_space", "roundlab.metric",
                        "roundlab.numerics", "roundlab.roundness"}

# `import roundlab.cli` loads these and no other roundlab module: the
# dispatcher and the report writer
CLI_IMPORT_MODULES = ["roundlab", "roundlab.cli", "roundlab.report"]

# the census and its kernels, which no obstruct command runs
CENSUS_MODULES = {"roundlab.cyclic", "roundlab.kernels"}

# what a listed space's `gr estimate` and `validate` never run: the cycle
# vocabulary, the character probe, the cycle-space options
NOT_ON_A_LISTED_SPACE = {"roundlab.cycles", "roundlab.probes",
                         "roundlab.cycle_args"}


def assert_no_heavy_imports(modules: set) -> None:
    assert "numpy" not in modules
    assert "mpmath" not in modules
    # exact averages import it only to enumerate maps without a class
    # distance, which no command takes
    assert "statistics" not in modules
    # no command here starts a process pool, so none loads its module
    assert "concurrent.futures.process" not in modules
    # records are plain classes: no request pays for generating them
    assert "dataclasses" not in modules


@pytest.mark.parametrize("argv", [*COUNTS.values(), *STEPS.values()],
                         ids=[*COUNTS, *STEPS])
def test_exact_commands_load_neither_numpy_nor_mpmath(argv, tmp_path):
    rc, modules = loaded_after(argv, tmp_path)
    # the identity step fails at p=2 (exit 2), as in test_cli
    assert rc == (2 if "builtin:identity" in argv else 0)
    assert_no_heavy_imports(modules)
    assert not modules & SPACE_FILE_MODULES
    # the space and class options the census and obstruct share
    assert "roundlab.cycle_args" in modules
    if argv[0] == "counts":
        assert "roundlab.obstruction" not in modules
    else:
        assert not modules & CENSUS_MODULES


@pytest.mark.parametrize("argv", OBSTRUCT_MC.values(), ids=OBSTRUCT_MC)
def test_mc_and_uniform_load_neither_numpy_nor_pool(argv, tmp_path):
    rc, modules = loaded_after(argv, tmp_path)
    # the identity map has no uniform embedding: an obstruction, exit 2
    assert rc == (2 if "builtin:identity" in argv else 0)
    assert_no_heavy_imports(modules)
    assert not modules & SPACE_FILE_MODULES
    assert not modules & CENSUS_MODULES
    assert "roundlab.moduli" not in modules


@pytest.mark.parametrize("variant, rc", [("merged", 0), ("literal", 2)])
def test_cayley_verify_loads_no_pool(variant, rc, tmp_path):
    got, modules = loaded_after(["cayley", "verify", "--n", "4",
                                 "--variant", variant], tmp_path)
    assert got == rc
    assert "numpy" in modules
    assert "roundlab.parallel" not in modules
    assert "concurrent.futures.process" not in modules
    assert "dataclasses" not in modules
    assert not modules & SPACE_FILE_MODULES


# the other commands README lists as loading neither library; {space} is
# the 4-cycle and {map} its ell0 table with the domain embedded
LIGHT = {
    "validate": ["validate", "--input", "{space}"],
    "simplex-build": ["simplex", "build", "--n", "4", "--t", "0", "--m", "1"],
    "zspace-validate": ["zspace", "validate", "--variant", "corrected"],
    "zspace-ball": ["zspace", "ball", "--block", "2", "--radius", "1/2"],
    **{f"inject-build-{target}": ["inject", "build", "--input", "{space}",
                                  "--target", target]
       for target in ("ell0", "ellp:1", "ballchain:intervals",
                      "ballchain:cauchy")},
    "inject-verify": ["inject", "verify", "--map", "{map}"],
    # a closed form and a pure-Python breadth-first search
    "cayley-roundness": ["cayley", "roundness", "--dim", "2",
                         "--standard-basis", "--g", "1,0", "--h", "0,1"],
    "cayley-projection": ["cayley", "projection"],
}


@pytest.mark.parametrize("argv", LIGHT.values(), ids=LIGHT)
def test_light_commands_load_neither_numpy_nor_mpmath(argv, tmp_path):
    from roundlab.inject import build_ell0_injection
    from roundlab.spaces import cycle_graph_space, write_space_csv

    space = cycle_graph_space(4)
    paths = {"space": tmp_path / "c4.csv", "map": tmp_path / "map.json"}
    write_space_csv(space, str(paths["space"]))
    paths["map"].write_text(
        json.dumps(build_ell0_injection(space).to_json_dict(space)))
    rc, modules = loaded_after([a.format(**paths) for a in argv], tmp_path)
    assert rc == 0
    assert_no_heavy_imports(modules)
    if argv[0] == "validate":
        assert not modules & NOT_ON_A_LISTED_SPACE
    if argv[0] == "inject":
        # its own command module, and neither the estimate nor the
        # generators and writer of `spaces`
        assert {m for m in modules if m.startswith("roundlab.cli_")} \
            == {"roundlab.cli_inject"}
        assert not {"roundlab.roundness", "roundlab.spaces"} & modules


def source_lines(modules: set) -> int:
    """The lines of source of the roundlab modules among `modules`, each
    of which a request compiles."""
    root = Path(roundlab.__file__).parent
    return sum(len((root / f"{m.partition('.')[2] or '__init__'}.py")
                   .read_text(encoding="utf-8").splitlines())
               for m in modules if m.split(".")[0] == "roundlab")


def test_gr_estimate_loads_roundness_and_metric(tmp_path):
    # a listed metric space is probed by the pure-Python factorisation:
    # neither the kernels and numpy nor, outside the settle band
    # (the 4-cycle's one probe there, at p = 1, is rational, and settled
    # by `exact`), mpmath; the 20-point space is the benchmark's, with its
    # argv, and no probe of it falls in the band
    from roundlab.spaces import (cycle_graph_space,
                                 random_rational_metric_space,
                                 write_space_csv)

    for name, space in (("c4", cycle_graph_space(4)),
                        ("r20", random_rational_metric_space(20, 0))):
        path = tmp_path / f"{name}.csv"
        write_space_csv(space, str(path))
        rc, modules = loaded_after(["gr", "estimate", "--input", str(path),
                                    "--max-size", "3", "--tol", "1e-3"],
                                   tmp_path)
        assert rc == 0
        assert SPACE_FILE_MODULES <= modules
        assert "dataclasses" not in modules
        assert not {"numpy", "mpmath", "roundlab.kernels"} & modules
        assert "roundlab.cyclic" not in modules
        assert not modules & NOT_ON_A_LISTED_SPACE
        roundlab_modules = {m for m in modules
                            if m.split(".")[0] == "roundlab"}
        if name == "c4":
            assert roundlab_modules == R20_ESTIMATE_MODULES | {
                "roundlab.exact"}
        else:
            assert roundlab_modules == R20_ESTIMATE_MODULES
            # 1,824 lines while the reader sat in `spaces` and the exact
            # half in `numerics`
            assert source_lines(modules) <= 1450


def test_obstruct_coarse_loads_moduli_not_metric(tmp_path):
    # the modulus envelope is apart from the space-file reader, and no
    # other obstruct command loads it (test_mc_and_uniform_...)
    path = tmp_path / "flat.json"
    path.write_text(json.dumps([[1, 1], [2, 1], [4, 1]]))
    rc, modules = loaded_after(["obstruct", "coarse", "--moduli", str(path),
                                "--p", "1"], tmp_path)
    assert rc == 0
    assert "roundlab.moduli" in modules
    assert not modules & {"roundlab.metric", "roundlab.spaces"}
    assert_no_heavy_imports(modules)


def test_gr_estimate_refuses_an_asymmetric_unchecked_table(tmp_path):
    # d(1, 0) = 2 but d(0, 1) = 1: refused with exit 1 before any power,
    # loading neither the kernels nor numpy
    path = tmp_path / "asymmetric.csv"
    path.write_text("4\n0 1 2 1\n2 0 1 2\n2 1 0 1\n1 2 1 0\n")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "gr", "estimate", "--unchecked",
         "--input", str(path)], capture_output=True, text=True,
        env=suite_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 1
    assert proc.stderr == "error: distance matrix fails symmetry at (0,1)\n"
    assert not {"numpy", "roundlab.kernels"} & set(result["modules"])


def test_gr_estimate_unchecked_tables_take_the_spectral_probe(tmp_path):
    # a repeated point merged and a zero left off the diagonal: both go
    # through the factorisation, so neither loads numpy, the kernels or
    # the character probe
    from roundlab.metric import FiniteMetricSpace
    from roundlab.spaces import write_space_csv
    from test_cli import _pseudometric

    zero = FiniteMetricSpace.unchecked([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    for name, space in (("pseudometric", _pseudometric()), ("zero", zero)):
        path = tmp_path / f"{name}.csv"
        write_space_csv(space, str(path))
        rc, modules = loaded_after(["gr", "estimate", "--unchecked",
                                    "--input", str(path)], tmp_path)
        assert rc == 0
        assert not {"numpy", "roundlab.kernels", "roundlab.probes"} & modules


def test_exhaustive_scan_loads_no_numpy():
    # acceptance criterion 7's 12-point scan, on the pure-Python loop
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from roundlab.roundness import find_violation_exhaustive\n"
         "from roundlab.spaces import planar_points_space\n"
         "ds = find_violation_exhaustive(planar_points_space(12, seed=2), "
         "3, 2.0)\n"
         "assert (ds.xs, ds.ys) == ((3, 4, 10), (5, 5, 9)), ds\n"
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert "roundlab.kernels" in modules
    assert "numpy" not in modules


def test_cayley_roundness_loads_no_cycle_vocabulary(tmp_path):
    # `DoubleSimplex` comes from the package, so the cycle spaces, classes
    # and counts of `cycles` do not compile
    rc, modules = loaded_after(LIGHT["cayley-roundness"], tmp_path)
    assert rc == 0
    assert "roundlab.cycles" not in modules


def test_product_estimate_loads_no_numpy():
    # the character probe is pure Python and mpmath intervals
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n"
         "from roundlab import CycleSpace, ProductCycleSpace, "
         "estimate_roundness\n"
         "est = estimate_roundness(ProductCycleSpace(3, CycleSpace(8)))\n"
         "assert est.certified, est\n"
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert "roundlab.roundness" in modules and "mpmath" in modules
    assert "roundlab.probes" in modules
    assert "numpy" not in modules


def test_import_cli_loads_only_the_shared_modules():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, roundlab.cli\n"
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert [m for m in modules if m.startswith("roundlab")] \
        == CLI_IMPORT_MODULES
    assert_no_heavy_imports(set(modules))
    # nor what generated records would pull in
    assert "inspect" not in modules


# builds and checks a stage-form simplex on 46,656 coordinates, past any
# size where an array path could pay for its import, then measures one
# connecting distance and prints the loaded module names
_WIDE_SIMPLEX = """
import json, sys
from roundlab.cyclic import (build_simplex, is_simplex, stage_simplex_class,
                             stage_space)
space = stage_space(6)
scls = stage_simplex_class(6, 0, 1)
ds = build_simplex(space, scls)
assert space.coords == 46656
assert is_simplex(space, ds, scls)
assert space.distance_quanta(ds.xs[0], ds.ys[0]) == scls.delta
print(json.dumps(sorted(sys.modules)))
"""


def test_wide_simplex_check_loads_no_numpy():
    proc = subprocess.run([sys.executable, "-c", _WIDE_SIMPLEX],
                          capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    assert_no_heavy_imports(set(json.loads(proc.stdout)))


def test_run_partitions_resolves_on_lookup():
    from roundlab import cyclic, obstruction, parallel

    assert obstruction.run_partitions is parallel.run_partitions
    assert obstruction.enumerate_pairs is cyclic.enumerate_pairs
    assert obstruction.sample_pairs_sparse is cyclic.sample_pairs_sparse
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        obstruction.nonesuch


def test_cli_space_file_names_resolve_on_lookup():
    from roundlab import cli, cyclic, metric, roundness, spaces

    assert cli.estimate_roundness is roundness.estimate_roundness
    assert cli.read_space_csv is metric.read_space_csv
    # the name the generators' callers import it by
    assert spaces.read_space_csv is metric.read_space_csv
    assert cli.count_incidences is cyclic.count_incidences
    assert cli.enumerate_pairs is cyclic.enumerate_pairs
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        cli.nonesuch


def spy_on(monkeypatch, owner, name, calls):
    """Replace `owner.name` by a wrapper that records `name` per call.

    The wrapper goes into the module's namespace, so undoing it removes a
    name that `owner.__getattr__` resolved, instead of leaving the
    resolved function behind as a real global."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setitem(vars(owner), name, wrapper)


def test_patched_cli_space_file_names_are_what_gr_estimate_calls(
        tmp_path, monkeypatch, capsys):
    # the benchmark's tracer wraps both names on the cli module; its
    # spans exist only if the handler calls the wrappers
    from roundlab import cli
    from roundlab.spaces import cycle_graph_space, write_space_csv

    path = tmp_path / "c4.csv"
    write_space_csv(cycle_graph_space(4), str(path))
    calls = []
    spy_on(monkeypatch, cli, "read_space_csv", calls)
    spy_on(monkeypatch, cli, "estimate_roundness", calls)
    assert cli.main(["gr", "estimate", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "gr estimate"
    assert calls == ["read_space_csv", "estimate_roundness"]


@pytest.mark.parametrize("argv, name", [
    (COUNTS["incidences-r2"], "count_incidences"),
    (COUNTS["pairs-enumerated"], "enumerate_pairs"),
], ids=["incidences", "pairs-enumerated"])
def test_patched_cli_census_names_are_what_counts_calls(argv, name,
                                                        monkeypatch, capsys):
    # the tracer wraps both names on the cli module too
    from roundlab import cli

    calls = []
    spy_on(monkeypatch, cli, name, calls)
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["command"] \
        == " ".join(argv[:2])
    assert calls == [name]


def test_import_roundlab_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, roundlab\n"
         "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout)
    assert [m for m in modules if m.startswith("roundlab.")] == []
    assert "numpy" not in modules and "mpmath" not in modules


def test_public_names_unchanged_and_resolve():
    assert roundlab.__all__ == SEED_ALL
    for name in roundlab.__all__:
        value = getattr(roundlab, name)
        if name in roundlab._EXPORTS:
            assert value is importlib.import_module(f"roundlab.{name}")
        else:
            assert value is getattr(
                importlib.import_module(f"roundlab.{roundlab._ORIGIN[name]}"),
                name)
    assert set(roundlab.__all__) <= set(dir(roundlab))
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        roundlab.nonesuch
