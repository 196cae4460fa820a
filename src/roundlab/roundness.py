"""Generalized roundness: double-simplex gaps, violation hunts, bisection.

A double simplex (x_1..x_r; y_1..y_r) violates at exponent p when

    sum_{i<j} d(x_i,x_j)^p + d(y_i,y_j)^p  >  sum_{i,j} d(x_i,y_j)^p

beyond tolerance. The roundness of a space is the supremum of exponents
admitting no violation; the set of good exponents is an interval starting
at 0, which is what makes bisection sound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Sequence

from . import kernels
from .cyclic import BudgetExceeded, DoubleSimplex, ProductCycleSpace
from .numerics import (PRECISION_BITS, REL_TOL, Number, dpow, dpow_mp,
                       is_violation)


@dataclass(frozen=True)
class GapResult:
    p: Number
    lhs: Number
    rhs: Number
    exact: bool

    @property
    def gap(self) -> Number:
        return self.rhs - self.lhs

    def is_violation(self) -> bool:
        return is_violation(self.gap, max(self.lhs, self.rhs))


def _pair_distances(space, ds: DoubleSimplex):
    xs, ys = ds.xs, ds.ys
    r = ds.r
    within = []
    for fam in (xs, ys):
        for i in range(r):
            for j in range(i + 1, r):
                within.append(space.distance(fam[i], fam[j]))
    cross = [space.distance(x, y) for x in xs for y in ys]
    return within, cross


def _exact_gap(within, cross, p) -> Optional[GapResult]:
    """The gap in Fractions when every distance is rational and p a
    nonnegative integer, else None."""
    if not (p == int(p) and p >= 0
            and all(isinstance(d, (int, Fraction)) for d in within + cross)):
        return None
    lhs = sum(dpow(d, int(p)) for d in within)
    rhs = sum(dpow(d, int(p)) for d in cross)
    return GapResult(int(p), Fraction(lhs), Fraction(rhs), True)


def simplex_gap(space, ds: DoubleSimplex, p) -> GapResult:
    """Exact Fractions when every distance is rational and p a nonnegative
    integer; float accumulation otherwise."""
    within, cross = _pair_distances(space, ds)
    exact = _exact_gap(within, cross, p)
    if exact is not None:
        return exact
    lhs = math.fsum(float(dpow(d, p)) for d in within)
    rhs = math.fsum(float(dpow(d, p)) for d in cross)
    return GapResult(p, lhs, rhs, False)


def certify_violation(space, ds: DoubleSimplex, p) -> bool:
    """Recompute the gap independently and re-test the violation.

    Rational distances with integer p settle the question exactly; all
    other cases are re-summed in mpmath at twice PRECISION_BITS.
    """
    within, cross = _pair_distances(space, ds)
    exact = _exact_gap(within, cross, p)
    if exact is not None:
        return exact.is_violation()
    import mpmath

    with mpmath.workprec(2 * PRECISION_BITS):
        lhs = mpmath.fsum(dpow_mp(d, p) for d in within)
        rhs = mpmath.fsum(dpow_mp(d, p) for d in cross)
        return is_violation(rhs - lhs, max(lhs, rhs))


def exhaustive_config_count(n_points: int, max_size: int) -> int:
    total = 0
    for k in range(2, max_size + 1):
        m = comb(n_points + k - 1, k)
        total += m * (m + 1) // 2
    return total


def find_violation_exhaustive(space, max_size: int, p,
                              budget: int | None = None
                              ) -> Optional[DoubleSimplex]:
    """First violating double simplex over all index multisets of sizes
    2..max_size, or None. Witnesses are certified before being returned."""
    n = space.size
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    if budget is not None:
        need = exhaustive_config_count(n, max_size)
        if need > budget:
            raise BudgetExceeded(
                f"exhaustive scan needs {need} configurations", need)
    dp = [[float(dpow(space.distance(i, j), p)) for j in range(n)]
          for i in range(n)]
    witness, _, _ = kernels.min_gap_scan(dp, max_size, REL_TOL)
    if witness is None:
        return None
    ds = DoubleSimplex(tuple(witness[0]), tuple(witness[1]))
    if not certify_violation(space, ds, p):
        raise ArithmeticError(
            f"scan witness failed recertification at p={p}; raise precision")
    return ds


def product_point_sampler(space: ProductCycleSpace) -> Callable:
    def sample(rng: random.Random):
        return tuple(rng.randrange(space.units) for _ in range(space.coords))
    return sample


def product_point_mutator(space: ProductCycleSpace) -> Callable:
    steps = (1, -1, space.units // 2)

    def mutate(point, rng: random.Random):
        c = rng.randrange(space.coords)
        step = rng.choice(steps)
        out = list(point)
        out[c] = (out[c] + step) % space.units
        return tuple(out)
    return mutate


class _GapState:
    """Running lhs/rhs sums for one configuration, with O(r) point swaps."""

    def __init__(self, dp: Callable, xs: Sequence, ys: Sequence):
        self.dp = dp
        self.fams = [list(xs), list(ys)]
        self._recompute()

    def _recompute(self):
        dp = self.dp
        lhs = 0.0
        for fam in self.fams:
            r = len(fam)
            for i in range(r):
                for j in range(i + 1, r):
                    lhs += dp(fam[i], fam[j])
        rhs = 0.0
        for x in self.fams[0]:
            for y in self.fams[1]:
                rhs += dp(x, y)
        self.lhs, self.rhs = lhs, rhs

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    def violating(self) -> bool:
        return is_violation(self.gap, max(self.lhs, self.rhs))

    def replace(self, fam_idx: int, slot: int, point):
        dp = self.dp
        fam = self.fams[fam_idx]
        other = self.fams[1 - fam_idx]
        old = fam[slot]
        for j, q in enumerate(fam):
            if j != slot:
                self.lhs += dp(point, q) - dp(old, q)
        for q in other:
            self.rhs += dp(point, q) - dp(old, q)
        fam[slot] = point
        return old

    def snapshot(self):
        return (self.lhs, self.rhs)

    def restore(self, snap, fam_idx: int, slot: int, old):
        self.lhs, self.rhs = snap
        self.fams[fam_idx][slot] = old

    def simplex(self) -> DoubleSimplex:
        return DoubleSimplex(tuple(self.fams[0]), tuple(self.fams[1]))


def find_violation_search(space, max_size: int, p,
                          budget: int = 20000,
                          seed: int = 0,
                          initial: Sequence[DoubleSimplex] = ()
                          ) -> Optional[DoubleSimplex]:
    """Seeded greedy descent on the gap with restarts.

    Moves: mutate a point in place, resample it fresh, or clone a family
    member and mutate the copy. Points of a product of cycles mutate by one
    coordinate step; points of any other space are indices, and a mutation
    resamples one. Warm starts in `initial` are tried first and searched at
    full family size. A miss proves nothing; any hit is certified before
    being returned.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    rng = random.Random(seed)
    if isinstance(space, ProductCycleSpace):
        sampler = product_point_sampler(space)
        mutator = product_point_mutator(space)
    else:
        def sampler(rng: random.Random):
            return rng.randrange(space.size)

        def mutator(point, rng: random.Random):
            return sampler(rng)

    cache: dict = {}

    def dp(a, b) -> float:
        key = (a, b) if a <= b else (b, a)
        val = cache.get(key)
        if val is None:
            val = float(dpow(space.distance(a, b), p))
            cache[key] = val
        return val

    evals = 0
    plateau_limit = 60

    warm = list(initial)
    while evals < budget:
        if warm:
            start = warm.pop(0)
            xs, ys = list(start.xs), list(start.ys)
        else:
            r = rng.randint(2, max_size)
            xs = [sampler(rng) for _ in range(r)]
            ys = [sampler(rng) for _ in range(r)]
        state = _GapState(dp, xs, ys)
        evals += 1
        plateau = 0
        while evals < budget and plateau <= plateau_limit:
            if state.violating():
                ds = state.simplex()
                if certify_violation(space, ds, p):
                    return ds
                plateau += 1
            fam_idx = rng.randrange(2)
            fam = state.fams[fam_idx]
            slot = rng.randrange(len(fam))
            kind = rng.randrange(3)
            if kind == 0:
                newpt = mutator(fam[slot], rng)
            elif kind == 1:
                newpt = sampler(rng)
            else:
                newpt = mutator(fam[rng.randrange(len(fam))], rng)
            snap = state.snapshot()
            before = state.gap
            old = state.replace(fam_idx, slot, newpt)
            evals += 1
            if state.gap < before:
                plateau = 0
            else:
                state.restore(snap, fam_idx, slot, old)
                plateau += 1
    return None


@dataclass
class RoundnessEstimate:
    lower: float
    upper: float
    witness: Optional[DoubleSimplex]
    witness_p: Optional[float]
    certified: bool
    search_mode: str
    max_simplex_size: int
    p_cap: float
    probes: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": None if math.isinf(self.upper) else self.upper,
            "unbounded": math.isinf(self.upper),
            "witness": None if self.witness is None else {
                "xs": list(self.witness.xs), "ys": list(self.witness.ys)},
            "witness_p": self.witness_p,
            "certified": self.certified,
            "search_mode": self.search_mode,
            "max_simplex_size": self.max_simplex_size,
            "p_cap": self.p_cap,
            "probes": self.probes,
            "flags": self.flags,
        }


def estimate_roundness(space, max_size: int = 3,
                       p_tolerance: float = 1e-3,
                       mode: str = "exhaustive",
                       budget: int | None = None,
                       seed: int = 0,
                       p_cap: float = 16.0
                       ) -> RoundnessEstimate:
    """Bracket the roundness by bisection on the violation predicate.

    Exhaustive probes certify both bracket ends; search probes certify only
    the upper end (a failed search is not a proof), which the `certified`
    flag records. Witnesses found at higher exponents warm-start lower ones.
    The tolerance and p_cap must be finite and positive.
    """
    if mode not in ("exhaustive", "search"):
        raise ValueError("mode must be 'exhaustive' or 'search'")
    for name, value in (("p_tolerance", p_tolerance), ("p_cap", p_cap)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    probes: list = []
    flags: list = []

    def probe(p: float, warm: Optional[DoubleSimplex]):
        if mode == "exhaustive":
            w = find_violation_exhaustive(space, max_size, p, budget)
        else:
            init = () if warm is None else (warm,)
            w = find_violation_search(
                space, max_size, p,
                budget=budget or 20000,
                seed=seed + len(probes), initial=init)
        probes.append({"p": p, "violation": w is not None})
        return w

    certified = mode == "exhaustive"
    est = RoundnessEstimate(0.0, math.inf, None, None, certified, mode,
                            max_size, p_cap, probes, flags)
    try:
        w0 = probe(0.0, None)
        if w0 is not None:
            flags.append("violation at p=0")
            est.lower, est.upper = 0.0, 0.0
            est.witness, est.witness_p = w0, 0.0
            return est
        wit = probe(p_cap, None)
        if wit is None:
            flags.append("no violation up to p_cap")
            est.lower = p_cap
            return est
        est.upper, est.witness, est.witness_p = p_cap, wit, p_cap
        while est.upper - est.lower > p_tolerance:
            mid = (est.lower + est.upper) / 2
            if not est.lower < mid < est.upper:
                # adjacent floats: the bracket cannot narrow any further
                flags.append("tolerance below float resolution")
                break
            w = probe(mid, est.witness)
            if w is not None:
                est.upper, est.witness, est.witness_p = mid, w, mid
            else:
                est.lower = mid
        return est
    except BudgetExceeded as exc:
        flags.append(f"budget exhausted: {exc}")
        est.certified = False
        return est
