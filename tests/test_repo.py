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


def test_no_tracked_file_is_ignored():
    # a tracked file that .gitignore lists is a generated or stale artifact
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this repository")
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
