"""The four request mixes and the checks every report must pass.

Each workload is a closed loop with one client: the next request starts
when the previous one has exited. A workload yields units of requests; a
run measures whole units. A unit is one request, except on
`roundness-scan`, where it is a pair of relabellings, and on
`exact-census`, where it is the whole seed-shuffled cycle, so every run
measures the same mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

CHAIN_SAMPLES = 100_000
UNIFORM_WORKERS = 2
ROUNDNESS_POINTS = 20
ROUNDNESS_TOL = 1e-3
# acceptance criterion 4: exact circle step on (4, 8, delta=1, s=2, r=2)
STEP_MARGIN = 0.5562869376523274


@dataclass
class Request:
    label: str
    argv: list[str]
    expect_rc: int
    check: Callable[[dict], list[str]]
    # argv of the determinism re-run; the body must match byte for byte
    recheck_argv: Optional[list[str]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    workers: Optional[int]
    units: Callable[[random.Random, Path], Iterator[list[Request]]]
    # label of the request the determinism check re-runs (None: the first)
    recheck_label: Optional[str] = None


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2 ** 31)


def _check_chain(body: dict) -> list[str]:
    res = body["results"]
    problems = []
    if not all(step["holds"] for step in res["steps"]):
        problems.append("a chain step does not hold")
    if res["cumulative_holds"] is not True:
        problems.append("cumulative inequality does not hold")
    counts = [avg["count"] for avg in res["averages"]]
    if any(c != CHAIN_SAMPLES for c in counts):
        problems.append(f"level sample counts {counts}, want {CHAIN_SAMPLES}")
    return problems


def _chain_units(rng, workdir):
    while True:
        yield [Request("chain", [
            "obstruct", "chain", "--map", "builtin:circle", "--n", "4",
            "--delta", "1", "--support", "64", "--size", "4",
            "--levels", "4", "--p", "2", "--mode", "mc",
            "--samples", str(CHAIN_SAMPLES), "--workers", "1",
            "--seed", str(_seed(rng))], 0, _check_chain)]


def _check_uniform(body: dict) -> list[str]:
    if body["results"]["obstruction_found"] is not True:
        return ["no obstruction found"]
    return []


def _uniform_units(rng, workdir):
    while True:
        argv = ["obstruct", "uniform", "--map", "builtin:identity",
                "--n-ladder", "2,4", "--p", "2", "--seed", str(_seed(rng))]
        # one re-run at --workers 1 checks both halves of the determinism
        # contract: same seed, same body, whatever the worker count
        yield [Request("uniform", argv + ["--workers", str(UNIFORM_WORKERS)],
                       2, _check_uniform,
                       recheck_argv=argv + ["--workers", "1"])]


def _roundness_check(path: Path):
    def check(body: dict) -> list[str]:
        from roundlab.cyclic import DoubleSimplex
        from roundlab.roundness import certify_violation
        from roundlab.spaces import read_space_csv

        res = body["results"]
        problems = []
        if res["certified"] is not True:
            problems.append("bracket not certified")
        if res["upper"] is None or res["upper"] - res["lower"] > ROUNDNESS_TOL:
            problems.append(f"bracket [{res['lower']}, {res['upper']}] "
                            f"wider than {ROUNDNESS_TOL}")
        wit = res["witness"]
        if wit is None:
            problems.append("no witness for the upper end")
        else:
            ds = DoubleSimplex(tuple(wit["xs"]), tuple(wit["ys"]))
            if not certify_violation(read_space_csv(path), ds,
                                     res["witness_p"]):
                problems.append("witness does not recertify")
        return problems
    return check


def _roundness_units(rng, workdir):
    from roundlab.metric import FiniteMetricSpace
    from roundlab.spaces import random_rational_metric_space, write_space_csv

    # Scan work varies fivefold between generator seeds, which would make
    # the run-to-run spread wider than any useful bound. Every request
    # scans a seeded relabelling of one space instead: the roundness and
    # the bisection path stay fixed, while the input and the point where
    # each violating probe stops change with the seed. That point still
    # moves the work of one request by about 8%. A relabelling and its
    # reverse, whose violations sit at the other end of the scan order,
    # together spread half as much, so a unit is such a pair.
    base = random_rational_metric_space(ROUNDNESS_POINTS, 0).dist
    n = 0
    while True:
        perm = list(range(ROUNDNESS_POINTS))
        rng.shuffle(perm)
        unit = []
        for labels in (perm, [ROUNDNESS_POINTS - 1 - i for i in perm]):
            path = workdir / f"space-{n}.csv"
            n += 1
            write_space_csv(FiniteMetricSpace.from_rows(
                [[base[i][j] for j in labels] for i in labels]), path)
            unit.append(Request("roundness", [
                "gr", "estimate", "--input", str(path), "--max-size", "3",
                "--tol", str(ROUNDNESS_TOL)], 0, _roundness_check(path)))
        yield unit


def _check_incidences(body: dict) -> list[str]:
    res = body["results"]
    r, s = res["families"], res["simplices"]
    problems = []
    if s * r * (r - 1) != res["edge_pairs"] * res["simplices_per_edge_pair"]:
        problems.append("edge double-counting identity fails")
    if s * r * r != res["conn_pairs"] * res["simplices_per_conn_pair"]:
        problems.append("connecting double-counting identity fails")
    if res["ratio_identity_holds"] is not True:
        problems.append("ratio identity fails")
    return problems


def _check_step(body: dict) -> list[str]:
    res = body["results"]
    problems = []
    if res["holds"] is not True:
        problems.append("exact step does not hold")
    if not math.isclose(res["margin"], STEP_MARGIN, abs_tol=1e-12):
        problems.append(f"exact step margin {res['margin']!r}, "
                        f"want {STEP_MARGIN!r}")
    return problems


def _check_pairs(body: dict) -> list[str]:
    res = body["results"]
    if res["enumerated"] != res["count"]:
        return [f"enumerated {res['enumerated']} pairs, "
                f"closed form {res['count']}"]
    return []


_SPACE_8 = ["--coords", "8", "--units", "8", "--delta", "1", "--support", "2"]
_SPACE_4 = ["--coords", "4", "--units", "8", "--delta", "1", "--support", "2"]

# Counts per cycle, sized so that the r=2 counter, the general r>=4 counter
# and exact enumeration (step plus pair census) each take about a third of
# the cycle's wall time on the pure backend.
EXACT_CYCLE = (
    (14, Request("incidences-r2", ["counts", "incidences", *_SPACE_8,
                                   "--size", "2"], 0, _check_incidences)),
    (1, Request("incidences-r4", ["counts", "incidences", *_SPACE_8,
                                  "--size", "4", "--budget", str(10 ** 12)],
                0, _check_incidences)),
    (5, Request("step", ["obstruct", "step", "--map", "builtin:circle",
                         *_SPACE_4, "--size", "2", "--p", "2",
                         "--mode", "exact"], 0, _check_step)),
    (2, Request("pairs", ["counts", "pairs", *_SPACE_4,
                          "--enumerate-budget", str(10 ** 6)],
                0, _check_pairs)),
)


def _exact_units(rng, workdir):
    cycle = [req for n, req in EXACT_CYCLE for _ in range(n)]
    while True:
        rng.shuffle(cycle)
        yield list(cycle)


WORKLOADS = {
    "chain-mc": Workload("chain-mc", 1, _chain_units),
    "uniform-pool": Workload("uniform-pool", UNIFORM_WORKERS, _uniform_units),
    "roundness-scan": Workload("roundness-scan", None, _roundness_units),
    "exact-census": Workload("exact-census", 1, _exact_units,
                             recheck_label="step"),
}
