"""Generalized roundness: double-simplex gaps, violation probes, brackets.

A double simplex (x_1..x_r; y_1..y_r) violates at exponent p when

    sum_{i<j} d(x_i,x_j)^p + d(y_i,y_j)^p  >  sum_{i,j} d(x_i,y_j)^p.

Every gap is decided by `numerics.violation`: as a float with its proven
error radius on a `DistanceIndex` of the points, and where that leaves it
undecided by `numerics.settle` (`certify_violation`), so a violation and
a clean probe are both proven. The roundness of a
space is the supremum of exponents admitting no violation; the set of
good exponents is an interval starting at 0 (Lennard-Tonge-Weston), so
one clean probe below and one violating witness above bracket it.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from math import comb
from typing import Optional

from . import BudgetExceeded, Record
from .cycles import DoubleSimplex, ProductCycleSpace
from .numerics import (NORMAL_MIN, PRECISION_BITS, Number, gap_radius,
                       intervals, power, settle, violation)

# the intervals a cycle product's character table may hold when the
# caller of `estimate_roundness` sets no budget: about 10 s and 100 MiB
# to build (measured at 8 coordinates of Z_16, 102,952 intervals in
# 5.3 s and 52 MiB), and 50 times the 3,952 of stage 2
TABLE_INTERVALS = 2 * 10 ** 5


class GapResult(Record):
    # radius: a proven bound on the error of the gap, 0 for an exact one
    __slots__ = ("p", "lhs", "rhs", "exact", "radius")

    @property
    def gap(self):
        return self.rhs - self.lhs

    def is_violation(self) -> bool | None:
        """`numerics.violation` of the gap: None within its radius of 0."""
        return violation(self.gap, self.radius)


class DistanceIndex:
    """The distances of pairs of a space's points as an index into their
    distinct values: `keys` holds one distance per distinct (type, value),
    `slots[k]` the position of the k-th pair's among them, and `ratios`
    the keys over `top` (by default their largest magnitude) as the
    nearest floats, so no power exceeds 1 and no gap changes sign. The
    pairs are every ordered pair of the space row by row (`power_matrix`)
    or, given `ds`, its r(r - 1) within pairs and then its r^2 cross pairs
    (`gap`). Each probe of an estimate, and each evaluation of a witness's
    crossing, powers only the keys of one index built beforehand."""

    __slots__ = ("pairs", "split", "slots", "take", "keys", "ratios", "low",
                 "signed")

    def __init__(self, space, ds: DoubleSimplex | None = None,
                 top: Number | None = None):
        if ds is None:
            n = space.size
            self.pairs, self.split = [divmod(k, n) for k in range(n * n)], 0
        else:
            self.pairs = [(fam[i], fam[j]) for fam in (ds.xs, ds.ys)
                          for i in range(ds.r) for j in range(i + 1, ds.r)]
            self.split = len(self.pairs)
            self.pairs += itertools.product(ds.xs, ds.ys)
        keys: dict = {}
        self.slots = [keys.setdefault((type(d), d), len(keys))
                      for d in itertools.starmap(space.distance, self.pairs)]
        self.take = None if ds is None else operator.itemgetter(*self.slots)
        self.keys = [d for _, d in keys]
        top = Fraction(top or max(map(abs, self.keys), default=0) or 1)
        exact = [Fraction(d) / top for d in self.keys]
        self.ratios = [float(e) for e in exact]
        self.low = any(0 < abs(e) < NORMAL_MIN for e in exact)
        self.signed = any(e < 0 for e in exact)

    def powers(self, p) -> list[float]:
        """Each ratio's float power, 0 for 0 (0**0 = 0, as in `power`). A
        negative distance (an unchecked space) at fractional p has no real
        power and raises ValueError naming its first pair."""
        try:
            return [float(e ** p) if e else 0.0 for e in self.ratios]
        except TypeError:
            # float() refuses the complex power of a negative base
            k = next(k for k, s in enumerate(self.slots) if self.keys[s] < 0)
            (i, j), d = self.pairs[k], self.keys[self.slots[k]]
            raise ValueError(f"distance between points {i} and {j} is negative"
                             f" ({d}): no real power at p={p}") from None

    def floor(self, p) -> float:
        """A power's error beyond `gap_radius`: a few subnormal ulps, or
        where a ratio is below NORMAL_MIN (no relative precision) the
        largest power such a ratio can have."""
        return max(2.0 ** -1072, (2 * NORMAL_MIN) ** p if self.low else 0.0)

    def power_matrix(self, p) -> list[list[float]]:
        """The float power of d(i, j) over the largest distance, for every
        ordered pair of points: at most 1, so none overflows."""
        powers, n = self.powers(p), math.isqrt(len(self.slots))
        return [[powers[s] for s in self.slots[i * n:(i + 1) * n]]
                for i in range(n)]

    def sides(self) -> tuple[list, list]:
        """A double simplex's (within, cross) distances."""
        dists = [self.keys[s] for s in self.slots]
        return dists[:self.split], dists[self.split:]

    def gap(self, p) -> tuple:
        """(gap, radius, lhs, rhs) of a double simplex's float powers, each
        side one math.fsum: a single rounding, whatever the order of its
        terms. The radius scales with their magnitudes, lhs + rhs unless a
        distance is negative (an unchecked space)."""
        terms = self.take(self.powers(p))
        lhs = math.fsum(terms[:self.split])
        rhs = math.fsum(terms[self.split:])
        mags = math.fsum(map(abs, terms)) if self.signed else lhs + rhs
        return (rhs - lhs, gap_radius(p, 1) * mags
                + len(terms) * self.floor(p), lhs, rhs)


def simplex_gap(space, ds: DoubleSimplex, p) -> GapResult:
    """Exact Fractions when every distance is rational and p a nonnegative
    integer; float sums, with the gap's radius, otherwise."""
    index = DistanceIndex(space, ds, 1)
    sides = index.sides()
    if p == int(p) and p >= 0 and all(isinstance(d, (int, Fraction))
                                      for d in sides[0] + sides[1]):
        # 0**0 = 0, as in `power`, with no bound on the exact power's size
        lhs, rhs = (Fraction(sum(d ** int(p) for d in side if d))
                    for side in sides)
        return GapResult(int(p), lhs, rhs, True, 0)
    _, radius, lhs, rhs = index.gap(p)
    return GapResult(p, lhs, rhs, False, radius)


def certify_violation(space, ds: DoubleSimplex, p) -> bool:
    """Whether ds violates at p, proven: its float gap on the distances
    over their largest, against the gap's radius. Where that leaves it
    undecided, not at all when both sides' nonzero distances are one
    multiset, which makes the gap 0 at every p (every X = Y
    configuration), else as `numerics.settle` decides it."""
    index = DistanceIndex(space, ds)
    verdict = violation(*index.gap(p)[:2])
    if verdict is not None:
        return verdict
    within, cross = index.sides()
    if sorted(d for d in within if d) == sorted(d for d in cross if d):
        return False
    return settle(lambda lift: sum(power(lift(d), p) for d in cross)
                  - sum(power(lift(d), p) for d in within), f"gap at p={p}")


def exhaustive_config_count(n_points: int, max_size: int) -> int:
    total = 0
    for k in range(2, max_size + 1):
        m = comb(n_points + k - 1, k)
        total += m * (m + 1) // 2
    return total


def _scan_violation(space, max_size: int, p, budget: int | None,
                    index: DistanceIndex) -> Optional[DoubleSimplex]:
    """`find_violation_exhaustive` without the recertification: the first
    double simplex the scan proves violating, or None."""
    n = space.size
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    if budget is not None:
        need = exhaustive_config_count(n, max_size)
        if need > budget:
            raise BudgetExceeded(
                f"exhaustive scan needs {need} configurations", need)
    if p == 0 and all(index.keys[s] != 0 for (i, j), s
                      in zip(index.pairs, index.slots) if i != j):
        # D^0 is all ones off the diagonal, so with c the signed member
        # counts, twice every gap is sum_k (1 - D^0_kk) c_k^2 plus the
        # diagonal entries of the members: an integer >= 0, exact in
        # floats, never a violation (|c|^2 / 2 on a zero diagonal)
        return None
    from . import kernels

    witness, _, _ = kernels.min_gap_scan(
        index.power_matrix(p), max_size, p, index.floor(p),
        lambda xs, ys: certify_violation(space, DoubleSimplex(xs, ys), p))
    if witness is None:
        return None
    return DoubleSimplex(tuple(witness[0]), tuple(witness[1]))


def _recertified(space, ds: DoubleSimplex, p) -> DoubleSimplex:
    if not certify_violation(space, ds, p):
        raise ArithmeticError(
            f"scan witness failed recertification at p={p}")
    return ds


def find_violation_exhaustive(space, max_size: int, p,
                              budget: int | None = None
                              ) -> Optional[DoubleSimplex]:
    """First violating double simplex over all index multisets of sizes
    2..max_size, or None, scanned on a `DistanceIndex` of the space built
    per call. Witnesses are certified before being returned."""
    ds = _scan_violation(space, max_size, p, budget, DistanceIndex(space))
    return None if ds is None else _recertified(space, ds, p)


def _crossing(violates, lo: float, hi: float) -> float:
    """Bisect (lo, hi] to adjacent floats, keeping violates(hi): a float
    at which one witness violates, the least one when its violation
    starts once in (lo, hi]."""
    while True:
        mid = lo + (hi - lo) / 2
        if not lo < mid < hi:
            return hi
        if violates(mid):
            hi = mid
        else:
            lo = mid


def _simplex_test(space, ds: DoubleSimplex, hi: float):
    """Whether `ds`, which the scan found violating at hi, is proven to
    violate at p > 0 by its float gap and radius, on a `DistanceIndex` of
    its points built once: the test `certify_violation` makes first, so
    it agrees wherever this holds. Where even hi is not proven in floats,
    `certify_violation` must prove hi, which then stays the crossing."""
    index = DistanceIndex(space, ds)

    def violates(p):
        return violation(*index.gap(p)[:2]) is True

    if not violates(hi):
        _recertified(space, ds, hi)
    return violates


def character_table(space: ProductCycleSpace,
                    budget: int | None = None) -> tuple:
    """For each nontrivial folded frequency multiset xi in {0..units/2}
    (combinations_with_replacement order), the intervals prod_i D_k(xi_i),
    k = 1..units/2, at PRECISION_BITS. D_k is one cycle's character sum
    over |g| < k: sin(pi(2k-1)v/units) / sin(pi v/units), and 2k - 1 at
    v = 0. Over `budget` characters raise BudgetExceeded before any is
    built."""
    units, coords = space.units, space.coords
    need = comb(units // 2 + coords, coords) - 1
    if budget is not None and need > budget:
        raise BudgetExceeded(f"character probe needs {need} characters", need)
    iv, half = intervals(PRECISION_BITS), units // 2
    kernel = [[iv.sin(iv.pi * (2 * k - 1) * v / units)
               / iv.sin(iv.pi * v / units) if v else iv.mpf(2 * k - 1)
               for v in range(half + 1)] for k in range(1, half + 1)]
    chars = itertools.combinations_with_replacement(range(half + 1), coords)
    next(chars)  # the trivial character
    return tuple((xi, tuple(math.prod(row[v] for v in xi) for row in kernel))
                 for xi in chars)


def _eigenvalue_vanishes(units: int, xi: tuple, p) -> bool:
    """Whether the eigenvalue at xi is exactly 0, decided only at integer
    p. With zeta = exp(2 pi i / units), D_k(v) sums zeta^(v g) over
    |g| < k, so the eigenvalue is a(zeta) for an integer polynomial a
    modulo x^units - 1, and its Galois conjugates are the a(zeta^j) with
    gcd(j, units) = 1. It is 0 exactly when sum_j |a(zeta^j)|^2, that is
    sum_{s,t} a_s a_t c(s - t), is, where each Ramanujan sum c(m), the sum
    of cos(2 pi j m / units) over those j, is an integer that rounding its
    float sum gets exactly (the error is below units * 2^-50)."""
    if p != int(p):
        return False
    a = [0] * units
    for k in range(1, units // 2 + 1):
        prod = [1] + [0] * (units - 1)
        for v in xi:
            prod = [sum(prod[(e - v * g) % units] for g in range(1 - k, k))
                    for e in range(units)]
        w = k ** int(p) - (k - 1) ** int(p) if k > 1 else 1
        a = [t + w * c for t, c in zip(a, prod)]
    c = [round(math.fsum(math.cos(2 * math.pi * (j * m % units) / units)
                         for j in range(units) if math.gcd(j, units) == 1))
         for m in range(units)]
    return not sum(a[s] * a[t] * c[s - t] for s in range(units)
                   for t in range(units))


def find_violation_characters(space: ProductCycleSpace, p,
                              budget: int | None = None, *,
                              table: tuple | None = None
                              ) -> Optional[tuple]:
    """The first nontrivial character of a cycle product whose eigenvalue
    in [d(x, y)^p] is positive, as its folded frequency multiset, or None.

    The sup metric is translation invariant, so the characters diagonalise
    [d(x, y)^p] and the nontrivial ones span the sum-zero vectors: no
    double simplex of any size violates at p exactly when every nontrivial
    eigenvalue is <= 0 (Schoenberg). With quantum q, d^p is q^p sum_k w_k
    [d >= kq], w_k = k^p - (k-1)^p and 0^p = 0 as in `power`, so the
    eigenvalue at xi is -q^p sum_k w_k prod_i D_k(xi_i), evaluated as an
    interval at PRECISION_BITS and decided by `numerics.violation`. One it
    leaves undecided, with none positive, must be proven 0
    (`_eigenvalue_vanishes`), else ArithmeticError.
    `table` is the space's `character_table`, built here under `budget`
    when not given.
    """
    if table is None:
        table = character_table(space, budget)
    units = space.units
    weights = _weights(units, p)
    undecided = []
    for xi, prods in table:
        verdict = violation(-_eigenvalue(weights, prods))
        if verdict:
            return xi
        if verdict is None:
            undecided.append(xi)
    for xi in undecided:
        if not _eigenvalue_vanishes(units, xi, p):
            raise ArithmeticError(f"eigenvalue at character {list(xi)} "
                                  f"undecided at p={p}; raise precision")
    return None


def _weights(units: int, p) -> list:
    """The intervals w_k = k^p - (k-1)^p, k = 1..units/2: units/2 interval
    powers at PRECISION_BITS."""
    iv = intervals(PRECISION_BITS)
    pw = [iv.mpf(k) ** iv.mpf(p) for k in range(1, units // 2 + 1)]
    return [pw[0]] + [b - a for a, b in zip(pw, pw[1:])]


def _eigenvalue(weights: list, prods: tuple):
    """The eigenvalue at a character in quanta^p, as an interval, from its
    `character_table` row."""
    return -sum(w * d for w, d in zip(weights, prods))


class RoundnessEstimate(Record):
    # the witness is a double simplex, or on a cycle product a character's
    # folded frequency multiset
    __slots__ = ("lower", "upper", "witness", "witness_p", "certified",
                 "covers", "max_simplex_size", "p_cap", "probes", "flags")

    def fields(self) -> dict:
        fields = super().fields()
        if isinstance(self.witness, tuple):
            fields["witness"] = {"character": self.witness}
        unbounded = math.isinf(self.upper)
        return {**fields, "upper": None if unbounded else self.upper,
                "unbounded": unbounded}


def _halvings(lower: float, upper: float, tol: float) -> int:
    """ceil(log2((upper - lower) / tol)): how many halvings take the
    bracket to tol."""
    return max(0, math.ceil(math.log2(upper - lower) - math.log2(tol)))


def _close_bracket(probe, crossing, lower: float, upper: float, witness,
                   tol: float, flags: list) -> tuple:
    """Narrow [lower, upper] to at most `tol`, where `lower` probed clean
    and `witness` violates at `upper`; returns (lower, upper, witness).

    Each probe sits `step` below upper, never below the midpoint. A
    violating probe at q moves upper to crossing(w, lower, q), where its
    witness w starts to violate; a clean one becomes the lower end and
    starts a new run at step tol, so a clean probe at upper - tol closes
    the bracket. Each violating probe past a run's first 2L doubles the
    step, L the halvings from the bracket at the run's start to tol.

    Bound: at most 2L(L+1) probes, for tol no finer than the float
    spacing at upper. A run makes at most 2L + 1 probes at step tol and
    L - 2 at doubled steps before it reaches the midpoint, where each
    probe halves the bracket; its clean probe leaves at least 2 halvings
    fewer (1 at the midpoint). Without the doubling the bound is only
    (upper - lower) / tol, met when each crossing lands just over tol
    below the last. Where no float lies strictly between the ends the
    loop stops and flags it."""
    step, run, halvings = tol, 0, _halvings(lower, upper, tol)
    while upper - lower > tol:
        q = upper - step
        if upper - q > step:
            # rounded down: a clean probe at q must leave at most step
            q = math.nextafter(q, upper)
        q = max(min(q, math.nextafter(upper, lower)),
                lower + (upper - lower) / 2)
        if not lower < q < upper:
            # adjacent floats: the bracket cannot narrow any further
            flags.append("tolerance below float resolution")
            break
        w = probe(q)
        if w is None:
            lower, step, run = q, tol, 0
            halvings = _halvings(lower, upper, tol)
        else:
            upper, witness, run = crossing(w, lower, q), w, run + 1
            if run > 2 * halvings:
                step *= 2
    return lower, upper, witness


def estimate_roundness(space, max_size: int = 3,
                       p_tolerance: float = 1e-3,
                       budget: int | None = None,
                       p_cap: float = 16.0
                       ) -> RoundnessEstimate:
    """Bracket the roundness between a clean probe and a witness.

    A cycle product is probed through its characters, which covers every
    double simplex (max_size is not read); any other space by the
    exhaustive scan of families up to max_size points, which `covers`
    records. A clean probe at 0 is the lower end, the crossing of the
    witness at p_cap the upper, and `_close_bracket` narrows them to
    p_tolerance. Both ends are certified for what `covers` names: the
    lower by a clean exhaustive scan or full character table, the upper
    by the witness, proven there (`certify_violation`) or positive there
    as an interval. The lower end is absolute: a roundness below
    p_tolerance keeps it at 0, with its witness's crossing above. `budget`
    caps the characters or scanned configurations of each probe. None
    means no cap on a listed space, which its size bounds, and on a cycle
    product, whose character count two integers set, as many characters
    as keep its table within TABLE_INTERVALS intervals. The tolerance and
    p_cap must be finite and positive.
    """
    for name, value in (("p_tolerance", p_tolerance), ("p_cap", p_cap)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    probes: list = []
    flags: list = []
    table = None
    if isinstance(space, ProductCycleSpace):
        covers, size, index = "every double simplex", None, None
        if budget is None:
            # the table holds units/2 intervals per character, and there
            # are at least units/2 characters, so this bounds the kernel
            # rows too
            budget = TABLE_INTERVALS // (space.units // 2)
    else:
        covers = f"double simplices with at most {max_size} points per family"
        size, index = max_size, DistanceIndex(space)

    def probe(p: float):
        w = (find_violation_characters(space, p, table=table)
             if size is None
             else _scan_violation(space, max_size, p, budget, index))
        probes.append({"p": p, "violation": w is not None})
        return w

    def crossing(w, lo: float, hi: float) -> float:
        """Where the witness w, violating at hi, starts to violate."""
        if size is not None:
            return _crossing(_simplex_test(space, w, hi), lo, hi)
        prods = dict(table)[w]
        return _crossing(lambda p: violation(-_eigenvalue(
            _weights(space.units, p), prods)) is True, lo, hi)

    est = RoundnessEstimate(0.0, math.inf, None, None, True, covers, size,
                            p_cap, probes, flags)
    try:
        if size is None:
            # built once and dropped when the estimate returns
            table = character_table(space, budget)
        w0 = probe(0.0)
        if w0 is not None:
            flags.append("violation at p=0")
            est.lower, est.upper = 0.0, 0.0
            est.witness, est.witness_p = w0, 0.0
        else:
            wit = probe(p_cap)
            if wit is None:
                flags.append("no violation up to p_cap")
                est.lower = p_cap
                return est
            est.lower, est.upper, est.witness = _close_bracket(
                probe, crossing, 0.0, crossing(wit, 0.0, p_cap), wit,
                p_tolerance, flags)
            est.witness_p = est.upper
    except BudgetExceeded as exc:
        flags.append(f"budget exhausted: {exc}")
        est.certified = False
        return est
    if size is not None:
        # the reported witness, proven where it is reported
        _recertified(space, est.witness, est.witness_p)
    return est
