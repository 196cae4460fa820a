"""Each command loads only the code it runs.

Commands run in fresh interpreters, since the suite itself has imported
everything; after each one the child lists `sys.modules`.
"""

import importlib
import json
import subprocess
import sys

import pytest

import roundlab
from test_cli import suite_env

# roundlab.__all__ as it stood when the package imported every submodule
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
    "euler_factor", "find_violation_exhaustive", "find_violation_search",
    "inject", "is_pair", "is_simplex", "kernels", "level_average", "metric",
    "numerics", "obstruction", "parallel", "roundness", "simplex_gap",
    "snowflake", "stage_pair_class", "stage_simplex_class", "stage_space",
    "transport_pair", "uniform_obstruction_report", "validate_metric",
    "verify_chain_inequality", "verify_injection", "verify_mstar_isometry",
    "verify_step_inequality", "word_distance", "zeta", "zspace",
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
    **{f"uniform-{name}": ["obstruct", "uniform", "--map", f"builtin:{name}",
                           "--n-ladder", "2,4", "--p", "2"]
       for name in ("identity", "circle")},
}


def loaded_after(argv, tmp_path) -> tuple[int, set]:
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv,
                           "--out", str(out)],
                          capture_output=True, text=True, env=suite_env())
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert json.loads(out.read_text())["command"] == " ".join(argv[:2])
    return result["rc"], set(result["modules"])


def assert_no_heavy_imports(modules: set) -> None:
    assert "numpy" not in modules
    assert "mpmath" not in modules
    # exact averages import it only to enumerate maps without a class
    # distance, which no command takes
    assert "statistics" not in modules
    # no command here starts a process pool, so none loads its module
    assert "concurrent.futures.process" not in modules


@pytest.mark.parametrize("argv", [*COUNTS.values(), *STEPS.values()],
                         ids=[*COUNTS, *STEPS])
def test_exact_commands_load_neither_numpy_nor_mpmath(argv, tmp_path):
    rc, modules = loaded_after(argv, tmp_path)
    # the identity step fails at p=2 (exit 2), as in test_cli
    assert rc == (2 if "builtin:identity" in argv else 0)
    assert_no_heavy_imports(modules)
    if argv[0] == "counts":
        assert "roundlab.obstruction" not in modules


@pytest.mark.parametrize("argv", OBSTRUCT_MC.values(), ids=OBSTRUCT_MC)
def test_mc_and_uniform_load_neither_numpy_nor_pool(argv, tmp_path):
    rc, modules = loaded_after(argv, tmp_path)
    # the identity map has no uniform embedding: an obstruction, exit 2
    assert rc == (2 if "builtin:identity" in argv else 0)
    assert_no_heavy_imports(modules)


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
    from roundlab import obstruction, parallel

    assert obstruction.run_partitions is parallel.run_partitions
    with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
        obstruction.nonesuch


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
