"""Embedding obstructions from averaged pair-class comparisons.

Two report families: `coarse` turns a modulus envelope into a growth
contradiction (alpha^p / e must exceed 1 for some doubling scale), and
`uniform` compares the supremum of image distances over a fine pair class
against e^(-1/p) times the infimum over a coarse one, per ladder entry.
Both consume the per-class averaging primitives defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Optional, Sequence

import numpy as np

from .cyclic import (BudgetExceeded, PairClass, ProductCycleSpace,
                     SimplexClass, SparsePairBatch, count_pairs_closed,
                     enumerate_pairs, stage_pair_class, stage_space,
                     sample_pairs_sparse)
from .metric import ModulusEnvelope
from .numerics import DEFAULT_CONTEXT, NumericContext
from .parallel import run_partitions

MC_SLICES = 16
ENTRY_CAP = 64_000_000


def euler_factor(n: int) -> float:
    """((n+1)/(n+2))^n: strictly decreasing in n and always above 1/e."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 64:
        return float(Fraction(n + 1, n + 2) ** n)
    return math.exp(n * math.log1p(-1.0 / (n + 2)))


def euler_factor_exact(n: int) -> Fraction:
    if not (0 <= n <= 4096):
        raise ValueError("exact Euler factor supported for 0 <= n <= 4096")
    return Fraction(n + 1, n + 2) ** n


def euler_factors(ns) -> np.ndarray:
    arr = np.asarray(ns, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("n must be nonnegative")
    return np.exp(arr * np.log1p(-1.0 / (arr + 2.0)))


class _CycleMapBase:
    """Shared per-coordinate plumbing for maps out of a product of cycles.

    Subclass images read only the per-coordinate cyclic differences, which
    are exactly delta on every pair of a (delta, support) class."""

    space: ProductCycleSpace

    def _cyc_quanta(self, batch: SparsePairBatch) -> np.ndarray:
        diff = np.abs(batch.x_vals - batch.y_vals)
        return np.minimum(diff, self.space.units - diff)

    def class_distance(self, cls: PairClass) -> float:
        """The image distance shared by every pair of `cls`, computed by
        `image_distance_batch` on one canonical row (zero point, late
        support), so it equals each row of a sampled batch bit for bit."""
        cls.validate_for(self.space)
        c, s = self.space.coords, cls.support
        row = SparsePairBatch(self.space, cls,
                              np.arange(c - s, c, dtype=np.int64)[None, :],
                              np.zeros((1, s), dtype=np.int64),
                              np.full((1, s), cls.delta, dtype=np.int64))
        return float(self.image_distance_batch(row)[0])


@dataclass(frozen=True)
class IdentityMap(_CycleMapBase):
    """Identity into the space's own sup metric."""

    space: ProductCycleSpace
    declared_roundness: Optional[float] = None
    name: ClassVar[str] = "identity"

    def image_distance(self, x, y) -> float:
        return float(self.space.distance(x, y))

    def image_distance_batch(self, batch: SparsePairBatch) -> np.ndarray:
        quanta = self._cyc_quanta(batch).max(axis=1)
        return quanta.astype(np.float64) * float(self.space.quantum)


@dataclass(frozen=True)
class CircleEmbeddingMap(_CycleMapBase):
    """Each coordinate to a circle of matching circumference in the plane;
    coordinates combine in l2. Image distances depend only on per-coordinate
    residue differences, so class pairs land at a single distance."""

    space: ProductCycleSpace
    declared_roundness: Optional[float] = 2.0
    name: ClassVar[str] = "circle"

    @property
    def radius(self) -> float:
        return float(self.space.units * self.space.quantum) / (2.0 * math.pi)

    def chord(self, quanta) -> float:
        return 2.0 * self.radius * math.sin(math.pi * float(quanta) / self.space.units)

    def image_distance(self, x, y) -> float:
        u = self.space.units
        total = 0.0
        for a, b in zip(x, y):
            d = abs(a - b)
            c = self.chord(min(d, u - d))
            total += c * c
        return math.sqrt(total)

    def image_distance_batch(self, batch: SparsePairBatch) -> np.ndarray:
        quanta = self._cyc_quanta(batch)
        chord = 2.0 * self.radius * np.sin(np.pi * quanta / self.space.units)
        return np.sqrt((chord * chord).sum(axis=1))


@dataclass(frozen=True)
class SnowflakeMap(_CycleMapBase):
    """Sup distance raised to alpha in (0, 1]."""

    space: ProductCycleSpace
    alpha: float
    declared_roundness: Optional[float] = None
    name: ClassVar[str] = "snowflake"

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

    def image_distance(self, x, y) -> float:
        return float(self.space.distance(x, y)) ** self.alpha

    def image_distance_batch(self, batch: SparsePairBatch) -> np.ndarray:
        quanta = self._cyc_quanta(batch).max(axis=1)
        return (quanta * float(self.space.quantum)) ** self.alpha


@dataclass(frozen=True)
class ConstantMap(_CycleMapBase):
    """Collapses everything to a point; never yields an obstruction."""

    space: ProductCycleSpace
    declared_roundness: Optional[float] = math.inf
    name: ClassVar[str] = "constant"

    def image_distance(self, x, y) -> float:
        return 0.0

    def image_distance_batch(self, batch: SparsePairBatch) -> np.ndarray:
        return np.zeros(batch.count, dtype=np.float64)


def resolve_builtin_map(spec: str, space: ProductCycleSpace):
    name = spec.removeprefix("builtin:")
    if name == "identity":
        return IdentityMap(space)
    if name == "circle":
        return CircleEmbeddingMap(space)
    if name == "constant":
        return ConstantMap(space)
    if name.startswith("snowflake:"):
        alpha = float(Fraction(name.split(":", 1)[1]))
        return SnowflakeMap(space, alpha)
    raise ValueError(f"unknown builtin map {spec!r}")


@dataclass(frozen=True)
class LevelAverage:
    cls: PairClass
    p: float
    mean: float
    count: int
    mode: str
    stderr: Optional[float] = None
    seed: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "delta": self.cls.delta,
            "support": self.cls.support,
            "p": self.p,
            "mean": self.mean,
            "count": self.count,
            "mode": self.mode,
            "stderr": self.stderr,
            "seed": self.seed,
        }


def _capped_samples(samples: int, support: int) -> int:
    return max(MC_SLICES, min(samples, max(1, ENTRY_CAP // support)))


def _slice_counts(total: int) -> list[int]:
    base, extra = divmod(total, MC_SLICES)
    return [base + (1 if i < extra else 0) for i in range(MC_SLICES)]


def _mc_slice_values(emap, cls: PairClass, k: int, seed: int, idx: int,
                     dist: Optional[float]):
    """Image distances of slice `idx` of a seeded sample, one array per
    chunk of at most a million entries; k rows in all. A known class
    distance `dist` fills the same chunks without drawing any pair."""
    rows_per_chunk = max(1, 1_000_000 // cls.support)
    sizes = [min(rows_per_chunk, k - done)
             for done in range(0, k, rows_per_chunk)]
    if dist is not None:
        for m in sizes:
            yield np.full(m, dist)
        return
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(MC_SLICES)[idx])
    for m in sizes:
        yield emap.image_distance_batch(
            sample_pairs_sparse(emap.space, cls, m, rng))


def _mc_slices(fn, emap, cls: PairClass, samples: int, seed: int,
               workers: int, *extra) -> list:
    """`fn` over the 16 seeded slices of a capped class sample, each given
    (emap, cls, rows, seed, slice index, class distance, *extra). The class
    distance is the map's `class_distance` when it declares one, else
    None; a known distance costs microseconds, so no pool starts for it."""
    declared = getattr(emap, "class_distance", None)
    dist = None if declared is None else declared(cls)
    rows = _slice_counts(_capped_samples(samples, cls.support))
    args = [(emap, cls, k, seed, i, dist, *extra) for i, k in enumerate(rows)]
    return run_partitions(fn, args, workers if dist is None else 1)


def _mc_slice_stats(args) -> tuple[float, float, int]:
    emap, cls, k, seed, idx, dist, p = args
    total = 0.0
    total_sq = 0.0
    for vals in _mc_slice_values(emap, cls, k, seed, idx, dist):
        if p != 1.0:
            vals = vals ** p if p != 0.0 else (vals > 0).astype(np.float64)
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
    return (total, total_sq, k)


def _mc_slice_extremes(args) -> tuple[float, float, int]:
    emap, cls, k, seed, idx, dist = args
    lo, hi = math.inf, -math.inf
    for vals in _mc_slice_values(emap, cls, k, seed, idx, dist):
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    return (lo, hi, k)


def level_average(emap, cls: PairClass, p: float, mode: str = "exact",
                  budget: int = 2_000_000, samples: int = 100_000,
                  seed: int = 0, workers: int = 1) -> LevelAverage:
    """Average of image distance^p over one pair class.

    Exact mode enumerates the class (budgeted); mc mode draws the requested
    samples in 16 fixed seeded slices so the result is identical for any
    worker count. Oversized supports shrink the sample count to keep the
    materialized entries bounded; the count field reports what was used.
    A map that declares `class_distance` (every built-in map) has one image
    distance per class: mc mode then reads that constant in process and
    draws no pairs, and returns exactly what drawing would.
    """
    space = emap.space
    cls.validate_for(space)
    if mode == "exact":
        total = count_pairs_closed(space, cls)
        if total > budget:
            raise BudgetExceeded(
                f"class holds {total} pairs, budget {budget}", required=total)
        acc = math.fsum(
            float(emap.image_distance(x, y)) ** p if p != 0.0
            else (1.0 if emap.image_distance(x, y) > 0 else 0.0)
            for x, y in enumerate_pairs(space, cls, budget))
        return LevelAverage(cls, p, acc / total, total, "exact")
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    parts = _mc_slices(_mc_slice_stats, emap, cls, samples, seed, workers, p)
    n = sum(k for _, _, k in parts)
    total = math.fsum(s for s, _, _ in parts)
    total_sq = math.fsum(q for _, q, _ in parts)
    mean = total / n
    var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return LevelAverage(cls, p, mean, n, "mc",
                        stderr=math.sqrt(var / n), seed=seed)


def class_extremes(emap, cls: PairClass, samples: int = 100_000,
                   seed: int = 0, workers: int = 1) -> tuple[float, float, int]:
    """(inf, sup, samples_used) of image distances over a sampled class;
    a declared `class_distance` replaces the draws, as in `level_average`."""
    space = emap.space
    cls.validate_for(space)
    parts = _mc_slices(_mc_slice_extremes, emap, cls, samples, seed, workers)
    lo = min(p[0] for p in parts)
    hi = max(p[1] for p in parts)
    return lo, hi, sum(p[2] for p in parts)


@dataclass
class StepReport:
    simplex_class: SimplexClass
    p: float
    conn: LevelAverage
    edge: LevelAverage
    factor: float
    margin: float
    stderr_margin: float
    holds: bool
    assumed_roundness: bool

    def to_dict(self) -> dict:
        return {
            "delta": self.simplex_class.delta,
            "support": self.simplex_class.support,
            "families": self.simplex_class.families,
            "p": self.p,
            "conn": self.conn.to_dict(),
            "edge": self.edge.to_dict(),
            "factor": self.factor,
            "margin": self.margin,
            "stderr_margin": self.stderr_margin,
            "holds": self.holds,
            "assumed_roundness": self.assumed_roundness,
            "inequality": "conn_mean >= (1 - 1/r) * edge_mean",
        }


def _check_declared(emap, p: float) -> bool:
    declared = emap.declared_roundness
    if declared is None:
        return True
    if declared < p:
        raise ValueError(
            f"map declares roundness {declared}, below requested p={p}")
    return False


def _margin(hi: LevelAverage, lo: LevelAverage, factor: float,
            ctx: NumericContext) -> tuple[float, float, bool]:
    """(margin, stderr, holds) for hi.mean >= factor * lo.mean: the margin
    holds unless it falls below three standard errors plus the context's
    relative tolerance. Exact averages carry no stderr and count as 0."""
    margin = hi.mean - factor * lo.mean
    se = math.sqrt((hi.stderr or 0.0) ** 2 + (factor * (lo.stderr or 0.0)) ** 2)
    scale = max(abs(hi.mean), abs(factor * lo.mean), 1.0)
    return margin, se, bool(margin >= -(3.0 * se + ctx.rel_tol * scale))


def verify_step_inequality(emap, scls: SimplexClass, p: float,
                         mode: str = "exact", budget: int = 2_000_000,
                         samples: int = 100_000, seed: int = 0,
                         workers: int = 1,
                         ctx: NumericContext = DEFAULT_CONTEXT) -> StepReport:
    """Averaged comparison for one simplex class: the connecting-class mean
    of image distance^p must be at least (1 - 1/r) times the edge-class
    mean, whenever the map really has roundness >= p."""
    scls.validate_for(emap.space)
    assumed = _check_declared(emap, p)
    conn = level_average(emap, scls.conn_class(), p, mode, budget,
                         samples, 2 * seed, workers)
    edge = level_average(emap, scls.edge_class(), p, mode, budget,
                         samples, 2 * seed + 1, workers)
    factor = 1.0 - 1.0 / scls.families
    margin, se, holds = _margin(conn, edge, factor, ctx)
    return StepReport(scls, p, conn, edge, factor, margin, se, holds, assumed)


@dataclass
class ChainReport:
    start: SimplexClass
    levels: int
    p: float
    averages: list
    steps: list
    factor_total: float
    cumulative_margin: float
    cumulative_stderr: float
    cumulative_holds: bool

    def to_dict(self) -> dict:
        return {
            "start_delta": self.start.delta,
            "start_support": self.start.support,
            "families": self.start.families,
            "levels": self.levels,
            "p": self.p,
            "averages": [a.to_dict() for a in self.averages],
            "steps": self.steps,
            "factor_total": self.factor_total,
            "cumulative_margin": self.cumulative_margin,
            "cumulative_stderr": self.cumulative_stderr,
            "cumulative_holds": self.cumulative_holds,
        }


def chain_classes(start: SimplexClass, levels: int) -> list[SimplexClass]:
    """Simplex classes along the halving chain: each step doubles delta and
    divides the support by the family count."""
    if levels < 1:
        raise ValueError("levels must be at least 1")
    out = [start]
    for _ in range(levels - 1):
        prev = out[-1]
        if prev.support % prev.families:
            raise ValueError(
                f"support {prev.support} not divisible by {prev.families}")
        out.append(SimplexClass(2 * prev.delta, prev.support // prev.families,
                                prev.families))
    return out


def verify_chain_inequality(emap, start: SimplexClass, levels: int, p: float,
                          mode: str = "mc", budget: int = 2_000_000,
                          samples: int = 100_000, seed: int = 0,
                          workers: int = 1,
                          ctx: NumericContext = DEFAULT_CONTEXT) -> ChainReport:
    """Run the averaged comparison down a chain of simplex classes.

    Pair levels are the connecting classes of each simplex class plus the
    last edge class; each level average is computed once and shared by the
    two steps that look at it."""
    scls_chain = chain_classes(start, levels)
    for scls in scls_chain:
        scls.validate_for(emap.space)
    assumed = _check_declared(emap, p)
    pair_levels = [s.conn_class() for s in scls_chain]
    pair_levels.append(scls_chain[-1].edge_class())
    averages = [
        level_average(emap, cls, p, mode, budget, samples, seed * 131 + i,
                      workers)
        for i, cls in enumerate(pair_levels)
    ]
    r = start.families
    factor = 1.0 - 1.0 / r
    steps = []
    for i, scls in enumerate(scls_chain):
        margin, se, holds = _margin(averages[i], averages[i + 1], factor, ctx)
        steps.append({
            "delta": scls.delta,
            "support": scls.support,
            "margin": margin,
            "stderr": se,
            "holds": holds,
            "assumed_roundness": assumed,
        })
    factor_total = factor ** levels
    cum_margin, cum_se, cum_holds = _margin(averages[0], averages[-1],
                                            factor_total, ctx)
    return ChainReport(start, levels, p, averages, steps, factor_total,
                       cum_margin, cum_se, cum_holds)


@dataclass
class CoarseObstructionReport:
    p: float
    found: bool
    n: Optional[int]
    alpha: Optional[float]
    alpha_exact: Optional[str]
    margin: Optional[float]
    odd_n_warning: bool
    binding_constraint: Optional[str]
    scanned: list

    def to_dict(self) -> dict:
        return {
            "kind": "coarse",
            "p": self.p,
            "found": self.found,
            "n": self.n,
            "alpha": self.alpha,
            "alpha_exact": self.alpha_exact,
            "margin": self.margin,
            "margin_formula": "alpha**p * exp(-1) - 1",
            "odd_n_warning": self.odd_n_warning,
            "binding_constraint": self.binding_constraint,
            "scanned": self.scanned,
        }


def coarse_obstruction_report(moduli: ModulusEnvelope, p: float,
                              n_range: Sequence[int] = range(1, 65)
                              ) -> CoarseObstructionReport:
    """Hunt for a doubling scale n with alpha = rho1(2^n)/rho2(1) large
    enough that alpha^p / e > 1. The first such n yields the obstruction;
    odd n gets a warning because the downstream construction wants even
    block sizes."""
    if p <= 0 or math.isinf(p):
        raise ValueError("p must be positive and finite")
    rho2_1 = moduli.rho2(1)
    if rho2_1 is None:
        return CoarseObstructionReport(
            p, False, None, None, None, None, False,
            "rho2(1) undefined: no samples at or below distance 1", [])
    if rho2_1 <= 0:
        return CoarseObstructionReport(
            p, False, None, None, None, None, False,
            "rho2(1) is not positive", [])
    scanned = []
    envelope_exhausted_at = None
    for n in n_range:
        r1 = moduli.rho1(2 ** n)
        if r1 is None:
            envelope_exhausted_at = n
            break
        if isinstance(r1, Fraction) and isinstance(rho2_1, Fraction):
            alpha_exact = r1 / rho2_1
            alpha = float(alpha_exact)
        else:
            alpha_exact = None
            alpha = float(r1) / float(rho2_1)
        lhs = alpha ** p * math.exp(-1.0)
        scanned.append({"n": n, "rho1": float(r1), "alpha": alpha, "lhs": lhs})
        if lhs > 1.0:
            return CoarseObstructionReport(
                p, True, n, alpha,
                None if alpha_exact is None else str(alpha_exact),
                lhs - 1.0, n % 2 == 1, None, scanned)
    if envelope_exhausted_at is not None:
        binding = (f"rho1 undefined at 2^{envelope_exhausted_at}: "
                   "envelope exhausted before the growth condition was met")
    else:
        best = max((row["lhs"] for row in scanned), default=0.0)
        binding = (f"alpha**p * exp(-1) <= 1 over the whole range "
                   f"(best {best:.6g}): rho1 does not outgrow rho2 fast enough")
    return CoarseObstructionReport(p, False, None, None, None, None, False,
                                   binding, scanned)


@dataclass
class UniformObstructionReport:
    map_name: str
    p: float
    entries: list
    epsilon_observed: Optional[float]
    first_violation_n: Optional[int]
    obstruction_found: bool
    conclusion: str

    def to_dict(self) -> dict:
        return {
            "kind": "uniform",
            "map": self.map_name,
            "p": None if math.isinf(self.p) else self.p,
            "p_infinite": math.isinf(self.p),
            "entries": self.entries,
            "epsilon_observed": self.epsilon_observed,
            "first_violation_n": self.first_violation_n,
            "obstruction_found": self.obstruction_found,
            "conclusion": self.conclusion,
            "inequality": "sup_fine >= exp(-1/p) * inf_coarse",
        }


def uniform_obstruction_report(map_spec, ladder: Sequence[int], p: float,
                               samples: int = 100_000, seed: int = 0,
                               workers: int = 1,
                               ctx: NumericContext = DEFAULT_CONTEXT
                               ) -> UniformObstructionReport:
    """Uniform-embedding audit along a ladder of even depths n.

    Depth n works in the block of size n + 2, comparing the fine class
    (delta halved n times, support raised to n + 1) against the coarse
    class. A map builder or builtin spec receives each block's space.
    """
    entries = []
    factor = 1.0 if math.isinf(p) else math.exp(-1.0 / p)
    eps = None
    first_violation = None
    name = map_spec if isinstance(map_spec, str) else getattr(map_spec, "name", "custom")
    degenerate = False
    for n in ladder:
        if n < 2 or n % 2:
            raise ValueError(f"ladder entries must be even and >= 2, got {n}")
        block = n + 2
        space = stage_space(block)
        emap = (resolve_builtin_map(map_spec, space)
                if isinstance(map_spec, str) else map_spec(space))
        _check_declared(emap, p if not math.isinf(p) else 0.0)
        fine = stage_pair_class(block, -n, n + 1)
        coarse = stage_pair_class(block, 0, 1)
        _, sup_fine, used_f = class_extremes(emap, fine, samples,
                                             2 * seed, workers)
        inf_coarse, _, used_c = class_extremes(emap, coarse, samples,
                                               2 * seed + 1, workers)
        bound = factor * inf_coarse
        scale = max(sup_fine, bound, 1.0)
        holds = sup_fine >= bound - ctx.rel_tol * scale
        entries.append({
            "n": n,
            "block": block,
            "fine_delta": fine.delta,
            "fine_support": fine.support,
            "coarse_delta": coarse.delta,
            "coarse_support": coarse.support,
            "samples_fine": used_f,
            "samples_coarse": used_c,
            "sup_fine": sup_fine,
            "inf_coarse": inf_coarse,
            "factor": factor,
            "bound": bound,
            "holds": bool(holds),
            "margin": sup_fine - bound,
        })
        eps = inf_coarse if eps is None else min(eps, inf_coarse)
        if inf_coarse <= 0:
            degenerate = True
        if not holds and first_violation is None:
            first_violation = n
    found = first_violation is not None and not degenerate
    if degenerate:
        conclusion = ("coarse class collapses to distance 0: the map is not "
                      "injective at scale 1, no obstruction derivable")
    elif first_violation is not None:
        conclusion = (f"inequality fails at n={first_violation} while the "
                      "coarse class stays separated: the sampled map cannot "
                      f"be a uniform embedding into a space of roundness {p}")
    else:
        conclusion = "all ladder entries satisfy the averaged inequality"
    return UniformObstructionReport(name, p, entries, eps, first_violation,
                                    found, conclusion)
