"""`run_partitions`, kept only because the benchmark harness
(`perfbench/spans.py`) traces it by this name and counts the pools that
`ProcessPoolExecutor` starts here. No command calls it: every `obstruct`
average is a closed form and `cayley verify` is a deterministic scan.

Results come back in argument order whatever the worker count; worker
functions must be module-level and their arguments picklable.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence


def run_partitions(fn: Callable, args_list: Sequence, workers: int = 1) -> list:
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))
