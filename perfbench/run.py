"""End-to-end and per-layer benchmark of the `roundlab` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Every request is a fresh interpreter running `perfbench/child.py`, which
imports `roundlab.cli` from `src/` and calls `cli.main(argv)`, so no cache
carries over between requests, as for a user running one command after
another. Inputs come from `--seed` alone. Requests run one at a time in
whole units (see `workloads.py`) until `--seconds` of request wall time
have been measured; every report is checked, and a failed check counts as
a failed request.

Times are reported at a fixed reference machine speed. On a small shared
host the speed the benchmark gets drifts by a fifth or more over seconds
to minutes, in CPU time as much as in wall time, so raw wall times of the
same code spread wider between runs than any useful bound, and the two
vCPUs do not always slow down together. The harness therefore times a
fixed pure-Python loop (the speed probe) every `SAMPLE_EVERY_S` while a
child runs: it notes the CPUs the child and its pool workers are running
on, stops the child's process group with SIGSTOP, times the loop pinned
to each of those CPUs and resumes the group with SIGCONT. The probe never
runs beside the child, so nothing the program does changes it; the paused
time is taken out of the child's wall time. Each child's times are then
scaled by `PROBE_NOMINAL_S` over the mean of its probe samples, so a
change to the program moves scaled times exactly as it moves wall times.
Traced runs are not paused, because the pauses would land inside spans;
their children are probed once, on every CPU, after they exit. The
unscaled metrics and the probe samples are in the detail line.

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` the run executes exactly one unit with the layer wrappers of
`spans.py` installed, so its counts repeat exactly for a seed, and the last
line holds per-layer totals over that unit. The line before the last one
holds the provenance and the details of the run. `--smoke` runs one
request per workload in both modes and checks that every metric named in
BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

SETUP_REPEATS = 2
REQUEST_TIMEOUT_S = 100
# the speed probe: one sample times PROBE_LOOPS runs of a fixed loop on
# each CPU probed; one run takes PROBE_NOMINAL_S at the reference speed
PROBE_LOOPS = 3
PROBE_NOMINAL_S = 0.0075
SAMPLE_EVERY_S = 0.3

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

_LAYER_TIMES = {
    "cyclic.sample_pairs_sparse": ("calls", "self_s"),
    "obstruction.image_distance_batch": ("calls", "self_s"),
    "obstruction.level_average": ("calls", "self_s"),
    "obstruction.class_extremes": ("calls", "self_s"),
    "parallel.run_partitions": ("calls", "wall_s"),
    "kernels.min_gap_scan": ("calls", "self_s"),
    "roundness.find_violation_exhaustive": ("self_s",),
    "roundness.certify_violation": ("calls", "self_s"),
    "roundness.estimate_roundness": ("self_s",),
    "spaces.read_space_csv": ("self_s",),
    "kernels.simplex_count_r2": ("calls", "self_s"),
    "kernels.completion_count_r2": ("calls", "self_s"),
    "kernels.class_partners": ("calls", "self_s"),
    "cyclic.count_incidences": ("self_s",),
    "cyclic.completion_counts": ("calls", "self_s"),
    "cyclic.enumerate_pairs": ("self_s",),
    "obstruction.image_distance": ("calls", "self_s"),
    "cli.main": ("self_s",),
    "report.Report.to_json": ("self_s",),
}
_COUNTERS = {
    "cyclic.sample_pairs_sparse.rows": "count",
    "cyclic.sample_pairs_sparse.entries": "count",
    "obstruction.image_distance_batch.rows": "count",
    "obstruction.samples": "count",
    "parallel.partitions": "count",
    "parallel.pools_started": "count",
    "kernels.min_gap_scan.configs": "count",
    "roundness.probes": "count",
    "cyclic.enumerate_pairs.pairs": "count",
    "report.body_bytes": "bytes",
}
PER_LAYER = {f"{layer}.{f}": ("count" if f == "calls" else "s")
             for layer, fields in _LAYER_TIMES.items() for f in fields}
PER_LAYER.update(_COUNTERS)
PER_LAYER["tracing_overhead"] = "ratio"


@dataclass
class Outcome:
    label: str
    latency_s: float
    problems: list = field(default_factory=list)
    body: str | None = None
    maxrss_kib: int = 0
    import_s: float | None = None
    # scales the child's times to the reference speed
    speed: float = 1.0
    probes: list = field(default_factory=list)

    @property
    def scaled_latency_s(self) -> float:
        return self.latency_s * self.speed

    @property
    def scaled_import_s(self) -> float | None:
        return None if self.import_s is None else self.import_s * self.speed


def probe_s(cpus) -> float:
    """One speed sample: the mean time of a fixed pure-Python loop, run
    pinned to each of `cpus` in turn."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            for _ in range(PROBE_LOOPS):
                acc, table = 0, {}
                for i in range(60_000):
                    acc += i * i % 7
                    table[i & 255] = acc
            times.append((time.perf_counter() - start) / PROBE_LOOPS)
    finally:
        # children inherit the affinity of the harness
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(times)


def _running_cpus(pid: int) -> set:
    """CPUs on which the child or one of its own children (the pool
    workers) is running; empty if none is."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            pids = [pid, *map(int, fh.read().split())]
    except OSError:
        return set()
    cpus = set()
    for each in pids:
        try:
            with open(f"/proc/{each}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # fields after the command name: state first, CPU 37th
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] == "R":
            cpus.add(int(fields[36]))
    return cpus


@dataclass
class Child:
    wall_s: float  # spawn to exit, paused time taken out
    rc: int | None
    out: str
    err: str
    probes: list
    pauses: list  # (start, end) perf_counter times the group was stopped

    @property
    def speed(self) -> float:
        return PROBE_NOMINAL_S / statistics.fmean(self.probes)

    def paused_within(self, start: float, end: float) -> float:
        return sum(max(0.0, min(end, b) - max(start, a))
                   for a, b in self.pauses)


def _paused_probe(proc: subprocess.Popen, pauses: list) -> float:
    """Stop the child's process group, take a speed sample on the CPUs it
    was running on (all CPUs if it was not running), resume it."""
    start = time.perf_counter()
    cpus = _running_cpus(proc.pid) or os.sched_getaffinity(0)
    try:
        os.killpg(proc.pid, signal.SIGSTOP)
    except ProcessLookupError:
        return probe_s(cpus)
    try:
        return probe_s(cpus)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
        pauses.append((start, time.perf_counter()))


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def spawn(mode: str, argv: list, meta: Path, sample: bool = True) -> Child:
    """Run one child to completion, taking speed samples every
    `SAMPLE_EVERY_S` during it if `sample`, and on every CPU after it
    if it got none. The child leads its own process group, so the pauses
    and a timeout reach its pool workers too."""
    cmd = [sys.executable, str(CHILD), str(meta), mode, *argv]
    probes, pauses = [], []
    start = time.perf_counter()
    deadline = start + REQUEST_TIMEOUT_S
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    out, err = None, "timed out"
    try:
        while out is None and time.perf_counter() < deadline:
            wait = SAMPLE_EVERY_S if sample else REQUEST_TIMEOUT_S
            try:
                out, err = proc.communicate(timeout=wait)
            except subprocess.TimeoutExpired:
                probes.append(_paused_probe(proc, pauses))
    finally:
        wall = time.perf_counter() - start - sum(b - a for a, b in pauses)
        # a crashed or timed-out child may leave pool workers behind
        _kill_group(proc)
    if not probes:
        probes.append(probe_s(os.sched_getaffinity(0)))
    rc = None if out is None else proc.returncode
    return Child(wall, rc, out or "", err, probes, pauses)


def _import_s(child: Child, info: dict) -> float:
    """The child's own import time, with any pause inside it taken out."""
    return info["import_s"] - child.paused_within(*info["import_window"])


def execute(req, mode: str, workdir: Path, tag,
            argv: list | None = None) -> Outcome:
    meta = workdir / f"req-{tag}.json"
    child = spawn(mode, argv or req.argv, meta, sample=mode == "run")
    res = Outcome(req.label, child.wall_s, speed=child.speed,
                  probes=child.probes)
    if child.rc != req.expect_rc:
        tail = child.err.strip().splitlines()[-1:] or [""]
        res.problems.append(
            f"exit {child.rc}, want {req.expect_rc}: {tail[0]}")
        return res
    try:
        info = json.loads(meta.read_text(encoding="utf-8"))
        body = json.loads(child.out)
    except (OSError, ValueError) as exc:
        res.problems.append(f"unreadable output: {exc}")
        return res
    body.pop("wall_time_s", None)
    res.body = json.dumps(body, sort_keys=True, separators=(",", ":"))
    res.maxrss_kib = info["maxrss_kib"]
    res.import_s = _import_s(child, info)
    try:
        res.problems.extend(req.check(body))
    except (KeyError, TypeError, ValueError) as exc:
        res.problems.append(f"malformed report: {exc!r}")
    return res


def measure_setup(workdir: Path, repeats: int) -> tuple:
    """Times to import roundlab.cli in fresh interpreters, as (raw,
    scaled to the reference speed)."""
    raw, scaled = [], []
    for i in range(repeats):
        meta = workdir / f"import-{i}.json"
        child = spawn("import", [], meta)
        if child.rc != 0:
            raise RuntimeError(
                f"import roundlab.cli failed: {child.err.strip()}")
        raw.append(_import_s(child, json.loads(meta.read_text())))
        scaled.append(raw[-1] * child.speed)
    return raw, scaled


def tail_latency(latencies: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile). Below 21 samples that is no higher than the
    median, so the median is reported."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50
    return ordered[n - 11], 100 * (n - 10) // n


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(workload, seed: int) -> dict:
    import numpy
    from roundlab import kernels
    from workloads import WORKLOADS

    digest = hashlib.sha256()
    for path in sorted((SRC / "roundlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "backend": kernels.BACKEND,
        "nproc": os.cpu_count(),
        "workers": workload.workers,
        "workers_per_workload": {w.name: w.workers
                                 for w in WORKLOADS.values()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 limit: int | None = None,
                 setup_repeats: int = SETUP_REPEATS) -> tuple:
    """Returns (result line, detail line) for one run."""
    import spans

    mode = "trace" if trace else "run"
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as tmp:
        workdir = Path(tmp)
        imports, scaled_imports = measure_setup(workdir, setup_repeats)
        units = workload.units(Random(seed), workdir)
        outcomes, totals = [], Counter()
        measured = 0.0
        while True:
            for req in next(units)[:limit]:
                out = execute(req, mode, workdir, len(outcomes))
                outcomes.append((req, out))
                measured += out.latency_s
                if trace and not out.problems:
                    totals.update(spans.summarize(
                        str(workdir / f"req-{len(outcomes) - 1}-spans")))
            if trace or limit is not None or measured >= seconds:
                break

        # determinism, outside the timed region: re-run one request untraced
        # and compare bodies byte for byte; a traced run also re-runs it with
        # the same argv, which gives the tracing overhead
        req, first = next(((r, o) for r, o in outcomes
                           if r.label == workload.recheck_label),
                          outcomes[0])
        argvs = [req.recheck_argv or req.argv]
        if trace and req.recheck_argv:
            argvs.insert(0, req.argv)
        reruns = []
        for i, argv in enumerate(argvs):
            again = execute(req, "run", workdir, f"recheck-{i}", argv)
            identical = first.body is not None and again.body == first.body
            if first.body is not None and not identical:
                first.problems.append(
                    f"re-run {' '.join(argv)} differs: {again.problems}")
            reruns.append({"argv": argv, "identical": identical,
                           "latency_s": again.latency_s})

    failed = [o for _, o in outcomes if o.problems]
    attempted = len(outcomes)

    def end_to_end(latencies, imports):
        tail, percentile = tail_latency(latencies)
        return {
            "requests_per_s": (attempted - len(failed)) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail,
            # every request pays the import too, so its time is one more
            # sample of the set-up cost
            "setup_s": statistics.median(imports),
            "peak_rss_mib": max(o.maxrss_kib for _, o in outcomes) / 1024,
        }, percentile

    if trace:
        # traced over untraced requests_per_s, on the re-run request; from
        # wall times, since only the untraced child is probed while it runs
        totals["tracing_overhead"] = reruns[0]["latency_s"] / first.latency_s
        metrics = {name: {"value": totals[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        scaled, percentile = end_to_end(
            [o.scaled_latency_s for _, o in outcomes],
            scaled_imports + [o.scaled_import_s for _, o in outcomes
                              if o.import_s is not None])
        raw, _ = end_to_end(
            [o.latency_s for _, o in outcomes],
            imports + [o.import_s for _, o in outcomes
                       if o.import_s is not None])
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in scaled.items()}
    detail = {
        "workload": workload.name,
        "trace": trace,
        "provenance": provenance(workload, seed),
        "measured_s": measured,
        "error_rate": len(failed) / attempted,
        "determinism": reruns,
        "probe_nominal_s": PROBE_NOMINAL_S,
        "requests": [{"label": o.label, "latency_s": o.latency_s,
                      "scaled_latency_s": o.scaled_latency_s,
                      "probe_s": o.probes,
                      "ok": not o.problems} for _, o in outcomes],
        "problems": [f"{o.label}: {p}" for o in failed for p in o.problems],
    }
    if not trace:
        detail["latency_tail"] = {"percentile": percentile,
                                  "samples": attempted}
        detail["unscaled_metrics"] = raw
    result = {"correct": not failed, "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    return result, detail


def smoke() -> int:
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from workloads.py",
              file=sys.stderr)
        return 1
    ok = True
    for wl in WORKLOADS.values():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            result, detail = run_workload(wl, 1, 0, trace, limit=1,
                                          setup_repeats=1)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            good = got == want and result["correct"]
            ok &= good
            print(f"smoke {wl.name} trace={int(trace)}: "
                  f"{'ok' if good else 'FAIL'} "
                  f"{[r['latency_s'] for r in detail['requests']]}")
            if got != want:
                print(f"  metrics differ: {sorted(set(got) ^ set(want))}")
            for problem in detail["problems"]:
                print(f"  {problem}")
    return 0 if ok else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "roundlab" / "cli.py").is_file():
        print(f"perfbench: no roundlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # inputs are written under the checkout and named relative to it, so
    # report bodies do not depend on where the checkout lives
    os.chdir(ROOT)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, detail = run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))
    for problem in detail["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
