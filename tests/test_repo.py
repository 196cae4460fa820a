"""Checks on the checkout itself, not on the package."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def skip_outside_a_checkout():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")


def test_no_tracked_file_is_ignored():
    # a tracked file that .gitignore lists is a generated or stale artifact
    skip_outside_a_checkout()
    res = git("ls-files", "-ci", "--exclude-standard")
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def test_benchmark_layers_exist():
    # the benchmark harness wraps its traced layers by name; a renamed or
    # deleted layer function must fail here, not only in the benchmark
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import spans; "
            "spans.install(spans.Tracer())")
    res = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                          str(ROOT / "perfbench")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_readme_names_current_schema():
    # README states the schema of the report bodies; a bump must update it
    import re

    from roundlab.report import SCHEMA_VERSION

    stated = re.findall(r"Report bodies are at schema (\d+)",
                        (ROOT / "README.md").read_text())
    assert stated == [str(SCHEMA_VERSION)]


def test_readme_module_map_names_every_module():
    # every module of the package has a row in README's module map
    import re

    text = (ROOT / "README.md").read_text()
    after = text.split("Module map, all under `src/roundlab/`:", 1)[1]
    table = after.strip().split("\n\n", 1)[0]
    cells = re.findall(r"^\| ([^|]*) \|", table, re.M)
    named = {name for cell in cells
             for name in re.findall(r"`(\w+\.py)`", cell)}
    modules = {path.name for path in (ROOT / "src" / "roundlab").glob("*.py")
               if path.name != "__main__.py"}
    assert modules - named == set()


def test_bench_files_record_their_setup():
    # from BENCH_24.json on, every benchmark record names its PR and the
    # setup its numbers came from, so the files form a trajectory
    import json
    import re

    skip_outside_a_checkout()
    res = git("ls-files", "BENCH_*.json")
    assert res.returncode == 0, res.stderr
    checked = 0
    for name in res.stdout.split():
        pr = int(re.fullmatch(r"BENCH_(\d+)\.json", name).group(1))
        if pr < 24:
            continue
        record = json.loads((ROOT / name).read_text())
        assert record["pr"] == pr, name
        missing = {"backend", "workers", "nproc", "git_sha"} - set(record)
        assert not missing, f"{name} lacks {sorted(missing)}"
        checked += 1
    assert checked >= 4


def test_one_certainty_rule():
    # gaps, ratios and margins are decided by `numerics.violation` alone:
    # no module re-sums in `decimal` or keeps a float band (REL_TOL), and
    # only exact.py builds the interval context at twice PRECISION_BITS
    # that `exact.settle`, the one settlement, decides on
    import ast

    def precision(node) -> bool:
        return getattr(node, "id", getattr(node, "attr", None)) \
            == "PRECISION_BITS"

    for path in sorted((ROOT / "src" / "roundlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported, named, doubled = set(), set(), False
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
            if isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif (isinstance(node, ast.BinOp)
                  and isinstance(node.op, ast.Mult)):
                sides = (node.left, node.right)
                doubled |= (any(precision(n) for n in sides) and any(
                    getattr(n, "value", None) == 2 for n in sides))
        assert "decimal" not in imported, path.name
        assert "REL_TOL" not in named, path.name
        assert not doubled or path.name == "exact.py", path.name

def test_one_power_rule():
    # every power of a distance goes through `exact.power`: no module
    # defines or imports the rules it replaced, and only exact.py takes
    # the exact roots that decide whether a power is rational
    import ast

    retired = {"dpow", "rational_pow", "exact_rational_pow"}
    for path in sorted((ROOT / "src" / "roundlab").glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not (defined | imported) & retired, path.name
        assert ("exact_int_root" not in called | imported
                or path.name == "exact.py"), path.name


def test_one_bracket_loop():
    # every roundness engine is a probe of `roundness.bracket`, the one
    # place that builds an estimate and writes its end-game flags: a
    # second loop would construct RoundnessEstimate or flag them again
    import ast

    built, flagged = [], []
    texts = ("budget exhausted", "violation at p=0", "no violation up to p_cap")
    for path in sorted((ROOT / "src" / "roundlab").glob("*.py")):
        source = path.read_text()
        built += [(path.name, node.lineno) for node in ast.walk(ast.parse(
            source)) if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None))
            == "RoundnessEstimate"]
        flagged += [(path.name, text) for text in texts
                    for _ in range(source.count(text))]
    assert [name for name, _ in built] == ["roundness.py"], built
    assert sorted(flagged) == [("roundness.py", text)
                               for text in sorted(texts)], flagged
