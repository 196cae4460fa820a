"""Embedding obstructions from averaged pair-class comparisons.

Two report families: `coarse` turns a modulus envelope into a growth
contradiction (alpha^p / e must exceed 1 for some doubling scale), and
`uniform` compares the supremum of image distances over a fine pair class
against e^(-1/p) times the infimum over a coarse one, per ladder entry.
Both consume the per-class averaging primitives defined here. Every
built-in map sends a whole (delta, support) class to one image distance,
its `class_distance`: a pure-Python closed form that exact mode, Monte
Carlo mode and `uniform` all read, so no report enumerates or samples a
pair or loads numpy. A map without one is refused with ValueError; each
map's `image_distance` stays the scalar reference for the closed form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import Record
from .cycles import (PairClass, ProductCycleSpace, SimplexClass,
                     count_pairs_closed, stage_pair_class, stage_space)
from .numerics import dpow, is_violation, parse_fraction

if TYPE_CHECKING:
    import numpy as np

    from .cyclic import SparsePairBatch
    from .metric import ModulusEnvelope

# no average reads these three names: only the benchmark harness looks
# them up here, to trace them, so the census and the pool module load
# only on that lookup
def __getattr__(name: str):
    if name in ("enumerate_pairs", "sample_pairs_sparse"):
        from . import cyclic
        return getattr(cyclic, name)
    if name == "run_partitions":
        from .parallel import run_partitions
        return run_partitions
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    import numpy as np

    arr = np.asarray(ns, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("n must be nonnegative")
    return np.exp(arr * np.log1p(-1.0 / (arr + 2.0)))


class _CycleMapBase(Record):
    """Shared per-coordinate plumbing for maps out of a product of cycles.

    Subclass images read only the per-coordinate cyclic differences, which
    are exactly delta on every pair of a (delta, support) class."""

    __slots__ = ()

    def class_distance(self, cls: PairClass) -> float:
        """The image distance shared by every pair of `cls`, from (delta,
        support) alone: every pair differs by delta quanta in exactly
        `support` coordinates. It equals `image_distance` on each class
        pair bit for bit, and builds no point or batch."""
        cls.validate_for(self.space)
        return self._class_distance(cls.delta, cls.support)

    def image_distance_batch(self, batch: SparsePairBatch) -> np.ndarray:
        """Image distance of each sampled row: the class distance of the
        batch's class, on every row."""
        import numpy as np

        return np.full(batch.count, self.class_distance(batch.cls))


class IdentityMap(_CycleMapBase):
    """Identity into the space's own sup metric."""

    __slots__ = ("space", "declared_roundness")

    def __init__(self, space: ProductCycleSpace,
                 declared_roundness: Optional[float] = None):
        self.space = space
        self.declared_roundness = declared_roundness

    def image_distance(self, x, y) -> float:
        return float(self.space.distance(x, y))

    def _class_distance(self, delta: int, support: int) -> float:
        return float(self.space.quantum * delta)


class CircleEmbeddingMap(_CycleMapBase):
    """Each coordinate to a circle of matching circumference in the plane;
    coordinates combine in l2. Image distances depend only on per-coordinate
    residue differences, so class pairs land at a single distance."""

    __slots__ = ("space", "declared_roundness", "radius")

    def __init__(self, space: ProductCycleSpace,
                 declared_roundness: Optional[float] = 2.0):
        self.space = space
        self.declared_roundness = declared_roundness
        self.radius = float(space.units * space.quantum) / (2.0 * math.pi)

    def chord(self, quanta) -> float:
        return 2.0 * self.radius * math.sin(math.pi * float(quanta) / self.space.units)

    def image_distance(self, x, y) -> float:
        u = self.space.units
        squares = []
        for a, b in zip(x, y):
            d = abs(a - b)
            if d:  # agreeing coordinates add an exact 0.0
                c = self.chord(min(d, u - d))
                squares.append(c * c)
        return math.sqrt(math.fsum(squares))

    def _class_distance(self, delta: int, support: int) -> float:
        # the fsum of `support` equal rounded squares is their product,
        # rounded once, so this matches `image_distance` bit for bit
        c = self.chord(delta)
        return math.sqrt(support * (c * c))


class SnowflakeMap(_CycleMapBase):
    """Sup distance raised to alpha in (0, 1]."""

    __slots__ = ("space", "alpha", "declared_roundness")

    def __init__(self, space: ProductCycleSpace, alpha: float,
                 declared_roundness: Optional[float] = None):
        if not (0 < alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")
        self.space = space
        self.alpha = alpha
        self.declared_roundness = declared_roundness

    def image_distance(self, x, y) -> float:
        return float(self.space.distance(x, y)) ** self.alpha

    def _class_distance(self, delta: int, support: int) -> float:
        return float(self.space.quantum * delta) ** self.alpha


class ConstantMap(_CycleMapBase):
    """Collapses everything to a point; never yields an obstruction."""

    __slots__ = ("space", "declared_roundness")

    def __init__(self, space: ProductCycleSpace,
                 declared_roundness: Optional[float] = math.inf):
        self.space = space
        self.declared_roundness = declared_roundness

    def image_distance(self, x, y) -> float:
        return 0.0

    def _class_distance(self, delta: int, support: int) -> float:
        return 0.0


def resolve_builtin_map(spec: str, space: ProductCycleSpace):
    name = spec.removeprefix("builtin:")
    if name == "identity":
        return IdentityMap(space)
    if name == "circle":
        return CircleEmbeddingMap(space)
    if name == "constant":
        return ConstantMap(space)
    if name.startswith("snowflake:"):
        alpha = float(parse_fraction(name.split(":", 1)[1]))
        return SnowflakeMap(space, alpha)
    raise ValueError(f"unknown builtin map {spec!r}")


class LevelAverage(Record):
    __slots__ = ("cls", "p", "mean", "count", "mode")

    def fields(self) -> dict:
        fields = super().fields()
        return {**fields.pop("cls").fields(), **fields}


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def _declared_distance(emap, cls: PairClass) -> float:
    """The map's one image distance on `cls`, which every average and
    extreme reads instead of enumerating or drawing pairs."""
    declared = getattr(emap, "class_distance", None)
    if declared is None:
        raise ValueError(
            f"{type(emap).__name__} declares no class_distance; class "
            "averages and extremes need one")
    return declared(cls)


def level_average(emap, cls: PairClass, p: float, mode: str = "exact",
                  samples: int = 100_000) -> LevelAverage:
    """Average of image distance^p over one pair class, d^p counting
    0**0 as 0 (`numerics.dpow`).

    The map must declare `class_distance` d (every built-in map does;
    ValueError otherwise): it sends the whole class to d, so in both modes
    the mean is d^p itself. No pair is enumerated or drawn, no pool starts
    and numpy is not loaded. `count` is the class size in exact mode and
    `samples` (at least 1) in mc mode.
    """
    cls.validate_for(emap.space)
    if mode not in ("exact", "mc"):
        raise ValueError("mode must be 'exact' or 'mc'")
    if mode == "mc":
        _check_samples(samples)
    value = float(dpow(_declared_distance(emap, cls), p))
    count = count_pairs_closed(emap.space, cls) if mode == "exact" else samples
    return LevelAverage(cls, p, value, count, mode)


def class_extremes(emap, cls: PairClass,
                   samples: int = 100_000) -> tuple[float, float, int]:
    """(inf, sup, samples) of image distances over a sample of the class:
    both ends are the map's declared `class_distance` (ValueError without
    one), and the count is `samples` (at least 1), as `level_average`
    reports it."""
    cls.validate_for(emap.space)
    _check_samples(samples)
    dist = _declared_distance(emap, cls)
    return dist, dist, samples


class StepReport(Record):
    __slots__ = ("simplex_class", "p", "conn", "edge", "factor", "margin",
                 "holds", "assumed_roundness")

    def fields(self) -> dict:
        fields = super().fields()
        return {**fields.pop("simplex_class").fields(), **fields,
                "inequality": "conn_mean >= (1 - 1/r) * edge_mean"}


def _check_exponent(p: float) -> None:
    """Averaged comparisons take a finite p >= 0; at p = 0 they compare
    the shares of class pairs the map keeps apart (d^0 = 1 for d > 0,
    0**0 = 0)."""
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")


def _check_declared(emap, p: float) -> bool:
    declared = emap.declared_roundness
    if declared is None:
        return True
    if declared < p:
        raise ValueError(
            f"map declares roundness {declared}, below requested p={p}")
    return False


def _margin(hi: float, lo: float, factor: float) -> tuple[float, bool]:
    """(margin, holds) for hi >= factor * lo, decided by
    `numerics.is_violation`."""
    margin = hi - factor * lo
    return margin, not is_violation(margin, max(abs(hi), abs(factor * lo)))


def verify_step_inequality(emap, scls: SimplexClass, p: float,
                           mode: str = "exact",
                           samples: int = 100_000) -> StepReport:
    """Averaged comparison for one simplex class: the connecting-class mean
    of image distance^p must be at least (1 - 1/r) times the edge-class
    mean, whenever the map really has roundness >= p. This is the
    one-level chain of `verify_chain_inequality`, read as a step."""
    chain = verify_chain_inequality(emap, scls, 1, p, mode, samples)
    conn, edge = chain.averages
    step = chain.steps[0]
    return StepReport(scls, p, conn, edge, chain.factor_total,
                      step["margin"], step["holds"],
                      step["assumed_roundness"])


class ChainReport(Record):
    __slots__ = ("start", "levels", "p", "averages", "steps", "factor_total",
                 "cumulative_margin", "cumulative_holds")

    def fields(self) -> dict:
        fields = super().fields()
        start = fields.pop("start")
        return {"start_delta": start.delta, "start_support": start.support,
                "families": start.families, **fields}


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
                            mode: str = "mc",
                            samples: int = 100_000) -> ChainReport:
    """Run the averaged comparison down a chain of simplex classes.

    Pair levels are the connecting classes of each simplex class plus the
    last edge class; each level average is computed once and shared by the
    two steps that look at it."""
    _check_exponent(p)
    scls_chain = chain_classes(start, levels)
    for scls in scls_chain:
        scls.validate_for(emap.space)
    assumed = _check_declared(emap, p)
    pair_levels = [s.conn_class() for s in scls_chain]
    pair_levels.append(scls_chain[-1].edge_class())
    averages = [level_average(emap, cls, p, mode, samples)
                for cls in pair_levels]
    r = start.families
    factor = 1.0 - 1.0 / r
    steps = []
    for i, scls in enumerate(scls_chain):
        margin, holds = _margin(averages[i].mean, averages[i + 1].mean,
                                factor)
        steps.append({
            "delta": scls.delta,
            "support": scls.support,
            "margin": margin,
            "holds": holds,
            "assumed_roundness": assumed,
        })
    factor_total = factor ** levels
    cum_margin, cum_holds = _margin(averages[0].mean, averages[-1].mean,
                                    factor_total)
    return ChainReport(start, levels, p, averages, steps, factor_total,
                       cum_margin, cum_holds)


class CoarseObstructionReport(Record):
    __slots__ = ("p", "found", "n", "alpha", "alpha_exact", "margin",
                 "odd_n_warning", "binding_constraint", "scanned")

    def fields(self) -> dict:
        return {"kind": "coarse", **super().fields(),
                "margin_formula": "alpha**p * exp(-1) - 1"}


def coarse_obstruction_report(moduli: ModulusEnvelope, p: float,
                              n_range: Sequence[int] = range(1, 65)
                              ) -> CoarseObstructionReport:
    """Hunt for a doubling scale n with alpha = rho1(2^n)/rho2(1) large
    enough that alpha^p / e > 1. The first such n yields the obstruction;
    odd n gets a warning because the downstream construction wants even
    block sizes."""
    if not 0 < p < math.inf:
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


class UniformObstructionReport(Record):
    __slots__ = ("map_name", "p", "entries", "epsilon_observed",
                 "first_violation_n", "obstruction_found", "conclusion")

    def fields(self) -> dict:
        fields = super().fields()
        fields["map"] = fields.pop("map_name")
        infinite = math.isinf(self.p)
        return {"kind": "uniform", **fields,
                "p": None if infinite else self.p, "p_infinite": infinite,
                "inequality": "sup_fine >= exp(-1/p) * inf_coarse"}


def uniform_obstruction_report(map_spec: str, ladder: Sequence[int], p: float,
                               samples: int = 100_000
                               ) -> UniformObstructionReport:
    """Uniform-embedding audit along a ladder of even depths n.

    Depth n works in the block of size n + 2, comparing the fine class
    (delta halved n times, support raised to n + 1) against the coarse
    class, with the builtin map `map_spec` (`resolve_builtin_map`) built on
    each block's space.
    """
    if not p > 0:
        raise ValueError(f"p must be positive (inf allowed), got {p}")
    _check_samples(samples)
    if not ladder:
        raise ValueError("the n ladder is empty: give at least one depth")
    entries = []
    factor = 1.0 if math.isinf(p) else math.exp(-1.0 / p)
    eps = None
    first_violation = None
    degenerate = False
    for n in ladder:
        if n < 2 or n % 2:
            raise ValueError(f"ladder entries must be even and >= 2, got {n}")
        block = n + 2
        space = stage_space(block)
        emap = resolve_builtin_map(map_spec, space)
        _check_declared(emap, p if not math.isinf(p) else 0.0)
        fine = stage_pair_class(block, -n, n + 1)
        coarse = stage_pair_class(block, 0, 1)
        _, sup_fine, used_f = class_extremes(emap, fine, samples)
        inf_coarse, _, used_c = class_extremes(emap, coarse, samples)
        margin, holds = _margin(sup_fine, inf_coarse, factor)
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
            "bound": factor * inf_coarse,
            "holds": holds,
            "margin": margin,
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
    return UniformObstructionReport(map_spec, p, entries, eps, first_violation,
                                    found, conclusion)
