"""Layer tracing from outside the program.

`install` replaces the public functions of each traced layer with wrappers,
on the name the caller looks up (for example
`roundlab.obstruction.sample_pairs_sparse`, not the definition in
`roundlab.cyclic`), so nothing under `src/` changes. Spans stay in memory
and are written once, when the request ends; `summarize` turns them into
per-layer calls, total and self time. Self time is a span's duration minus
the time its child spans cover.

Spans recorded inside forked pool workers are lost; counters derived from
return values seen in the parent (samples, partitions, pools) are not.
The hottest predicates (`cyclic.is_pair`, `kernels.is_class_pair`) are left
unwrapped: they run millions of times per request and a wrapper would
dominate their cost.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """Span and counter store for one request process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count=None):
        """Span every call of `fn`; `count(counts, result, args)` updates
        counters from the call's arguments and result."""
        nid = self.name_id(name)
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            idx = len(self.starts)
            self.name_ids.append(nid)
            self.parents.append(stack[-1])
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if count is not None:
                count(self.counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str, item_counter: str):
        """Span the call and then every step of the generator it returns,
        so the producer's time is not charged to the consumer."""
        step = self.wrap(next, name)
        counts = self.counts
        make = self.wrap(fn, name)

        def traced(*args, **kwargs):
            gen = make(*args, **kwargs)

            def steps():
                while True:
                    try:
                        item = step(gen)
                    except StopIteration:
                        return
                    counts[item_counter] += 1
                    yield item
            return steps()

        traced.__wrapped__ = fn
        return traced

    def dump(self, prefix: str) -> None:
        """Write spans to `prefix.npz` and counters plus names to
        `prefix.json`."""
        np.savez(prefix + ".npz",
                 name_ids=np.asarray(self.name_ids, dtype=np.int64),
                 parents=np.asarray(self.parents, dtype=np.int64),
                 starts=np.asarray(self.starts, dtype=np.float64),
                 ends=np.asarray(self.ends, dtype=np.float64))
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": dict(self.counts)}, fh)


def summarize(prefix: str) -> Counter:
    """Per-layer `<layer>.calls`, `.wall_s` (total span time) and `.self_s`,
    plus the counters, from a dump."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    data = np.load(prefix + ".npz")
    name_ids, parents = data["name_ids"], data["parents"]
    dur = data["ends"] - data["starts"]
    covered = np.zeros(len(dur))
    nested = parents >= 0
    np.add.at(covered, parents[nested], dur[nested])
    self_time = dur - covered
    out = Counter(meta["counts"])
    for nid, name in enumerate(meta["names"]):
        mask = name_ids == nid
        out[f"{name}.calls"] += int(mask.sum())
        out[f"{name}.wall_s"] += float(dur[mask].sum())
        out[f"{name}.self_s"] += float(self_time[mask].sum())
    return out


def _rows(counts, batch, args):
    counts["cyclic.sample_pairs_sparse.rows"] += batch.count
    counts["cyclic.sample_pairs_sparse.entries"] += batch.supports.size


def _batch_rows(counts, result, args):
    counts["obstruction.image_distance_batch.rows"] += args[1].count


def _level_samples(counts, avg, args):
    if avg.mode == "mc":
        counts["obstruction.samples"] += avg.count


def _extreme_samples(counts, result, args):
    counts["obstruction.samples"] += result[2]


def _partitions(counts, result, args):
    counts["parallel.partitions"] += len(args[1])


def _configs(counts, result, args):
    counts["kernels.min_gap_scan.configs"] += result[2]


def _probes(counts, result, args):
    counts["roundness.probes"] += 1


def _body_bytes(counts, text, args):
    counts["report.body_bytes"] += len(text.encode("utf-8"))


def install(tracer: Tracer):
    """Wrap the traced layers in this process; returns the wrapped
    `cli.main`."""
    from roundlab import (cli, cyclic, kernels, obstruction, parallel,
                          report, roundness)

    def patch(owner, attr, name, count=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, count))

    patch(obstruction, "sample_pairs_sparse", "cyclic.sample_pairs_sparse",
          _rows)
    for cls in (obstruction.IdentityMap, obstruction.CircleEmbeddingMap,
                obstruction.SnowflakeMap, obstruction.ConstantMap):
        patch(cls, "image_distance_batch",
              "obstruction.image_distance_batch", _batch_rows)
        patch(cls, "image_distance", "obstruction.image_distance")
    patch(obstruction, "level_average", "obstruction.level_average",
          _level_samples)
    patch(obstruction, "class_extremes", "obstruction.class_extremes",
          _extreme_samples)
    patch(obstruction, "run_partitions", "parallel.run_partitions",
          _partitions)

    pool_class = parallel.ProcessPoolExecutor
    counts = tracer.counts

    class CountingPool(pool_class):
        def __init__(self, *args, **kwargs):
            counts["parallel.pools_started"] += 1
            super().__init__(*args, **kwargs)

    parallel.ProcessPoolExecutor = CountingPool

    for owner in (obstruction, cli):
        owner.enumerate_pairs = tracer.wrap_generator(
            owner.enumerate_pairs, "cyclic.enumerate_pairs",
            "cyclic.enumerate_pairs.pairs")

    patch(kernels, "min_gap_scan", "kernels.min_gap_scan", _configs)
    patch(roundness, "find_violation_exhaustive",
          "roundness.find_violation_exhaustive", _probes)
    patch(roundness, "certify_violation", "roundness.certify_violation")
    patch(cli, "estimate_roundness", "roundness.estimate_roundness")
    patch(cli, "read_space_csv", "spaces.read_space_csv")

    for attr in ("simplex_count_r2", "completion_count_r2", "class_partners"):
        patch(kernels, attr, f"kernels.{attr}")
    patch(cli, "count_incidences", "cyclic.count_incidences")
    patch(cyclic, "completion_counts", "cyclic.completion_counts")

    patch(report.Report, "to_json", "report.Report.to_json", _body_bytes)
    return tracer.wrap(cli.main, "cli.main")
