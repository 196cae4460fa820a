"""Deterministic partitioned execution.

Work is split into fixed partitions before any worker starts, and results
merge in partition order, so outputs never depend on the worker count.
Worker functions must be module-level and their arguments picklable.
`cayley verify --mode sampled`, the one command that still samples,
splits its draws into MC_SLICES fixed slices, each with its own
generator, for the same reason.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

MC_SLICES = 16


def slice_counts(total: int) -> list[int]:
    """`total` split into MC_SLICES counts, the first `total % MC_SLICES`
    of them one larger."""
    base, extra = divmod(total, MC_SLICES)
    return [base + (1 if i < extra else 0) for i in range(MC_SLICES)]


def slice_rng(seed: int, idx: int) -> np.random.Generator:
    """The generator of slice `idx` of a sample seeded with `seed`."""
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed).spawn(MC_SLICES)[idx])


def run_partitions(fn: Callable, args_list: Sequence, workers: int = 1) -> list:
    if workers <= 1 or len(args_list) <= 1:
        return [fn(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))
