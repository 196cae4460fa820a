"""Generalized roundness: double-simplex gaps, violation probes, brackets.

A double simplex (x_1..x_r; y_1..y_r) violates at exponent p when

    sum_{i<j} d(x_i,x_j)^p + d(y_i,y_j)^p  >  sum_{i,j} d(x_i,y_j)^p.

Every gap is decided by `numerics.violation`: as a float with its proven
error radius on a `DistanceIndex` of the points, and where that leaves it
undecided by `exact.settle` (`certify_violation`), so a violation and a
clean probe are both proven; `exact` loads only for such a gap or probe.
The roundness of a space is the supremum
of exponents admitting no violation; the set of good exponents is an
interval starting at 0 (Lennard-Tonge-Weston), so one clean probe below
and one violating witness above bracket it (`bracket`). A probe covers
every double simplex: on a listed table `SpectralProbe`, a proven
factorisation of -B^T D^p B, and on a cycle product its characters
(`probes.CharacterProbe`, loaded only for one). As library API,
`find_violation_exhaustive` scans the families up to a given size.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections import Counter
from fractions import Fraction
from typing import Optional

from . import BudgetExceeded, DoubleSimplex, Record
from .numerics import NORMAL_MIN, UNIT, Number, gap_radius, violation


class GapResult(Record):
    # radius: a proven bound on the error of the gap, 0 for an exact one
    __slots__ = ("p", "lhs", "rhs", "exact", "radius")

    @property
    def gap(self):
        return self.rhs - self.lhs

    def is_violation(self) -> bool | None:
        """`numerics.violation` of the gap: None within its radius of 0."""
        return violation(self.gap, self.radius)


def _pair_counts(ds: DoubleSimplex) -> tuple[Counter, Counter]:
    """How often each pair of points occurs among a double simplex's
    within pairs (f_i, f_j), i < j, of either family f, and among its
    cross pairs (x_i, y_j), from how often each point occurs in each
    family: m_a m_b for two distinct points of one family, m_a(m_a - 1)/2
    for a point with itself, m_a k_b for a cross pair. A within pair is
    held under its points' first occurrences, which on a symmetric table
    (`refuse_unfit`) reads the distance of either order."""
    counts = Counter(ds.xs), Counter(ds.ys)
    within: Counter = Counter()
    for fam in counts:
        within.update({(a, b): m * k for (a, m), (b, k)
                       in itertools.combinations(fam.items(), 2)})
        within.update({(a, a): m * (m - 1) // 2 for a, m in fam.items()
                       if m > 1})
    cross = Counter({(a, b): m * k for a, m in counts[0].items()
                     for b, k in counts[1].items()})
    return within, cross


_NORMAL_MIN_RATIO = NORMAL_MIN.as_integer_ratio()


class DistanceIndex:
    """The distances of pairs of a space's points as an index into their
    distinct values: `keys` holds the first of each distinct (type, value)
    (a Fraction's by numerator and denominator: no pair pays its hash),
    `slots[k]` the position of the k-th pair's among them, and `ratios`
    the keys over `top` (by default their largest magnitude) as the
    nearest floats, so no power exceeds 1 and no gap changes sign. The
    pairs are every ordered pair of the space row by row (`power_matrix`)
    or, given `ds`, the distinct pairs `_pair_counts` counts from its
    points' counts, each side held as (slot, count) (`gap`), so a family
    of thousands of points costs no more than its distinct points. Given
    `ds`, the pairs' distances must pass `refuse_unfit`, else ValueError
    before any power. Each probe of an estimate, and each evaluation of a
    witness's crossing, powers only the keys of one index built
    beforehand.

    The ratios are int / int true divisions of the keys' and `top`'s
    (positive) exact integer ratios over one common denominator, whatever
    their number type: Python rounds those correctly, so each is the
    float of the exact ratio, and `low` is decided on the same integers."""

    __slots__ = ("pairs", "slots", "keys", "ratios", "low", "weights",
                 "terms", "count")

    def __init__(self, space, ds: DoubleSimplex | None = None,
                 top: Number | None = None):
        if ds is None:
            n = space.size
            self.pairs = [divmod(k, n) for k in range(n * n)]
        else:
            sides = _pair_counts(ds)
            self.pairs = [pair for side in sides for pair in side]
        first: dict = {}
        self.slots = [first.setdefault(
            (d.numerator, d.denominator) if type(d) is Fraction
            else (type(d), d), (len(first), d))[0]
            for d in itertools.starmap(space.distance, self.pairs)]
        self.keys = [d for _, d in first.values()]
        top = top or max(map(abs, self.keys), default=0) or 1
        # top and each key as an exact (numerator, denominator)
        (a, b), *exact = (d.as_integer_ratio() for d in (top, *self.keys))
        den = math.lcm(b, *(q for _, q in exact))
        nums = [x * (den // q) for x, q in exact]
        scale = a * (den // b)
        self.ratios = [x / scale for x in nums]
        # 0 < |x| / scale < NORMAL_MIN, exactly
        below = scale * _NORMAL_MIN_RATIO[0]
        self.low = any(0 < abs(x) * _NORMAL_MIN_RATIO[1] < below
                       for x in nums)
        if ds is not None:
            refuse_unfit(space, self)
            # each side's count of every key, and those counts split into
            # powers of two: a power times 2^b is exact, so one fsum of the
            # split terms is the correctly rounded sum over every pair
            slots, self.weights = iter(self.slots), []
            for side in sides:
                weight: Counter = Counter()
                for count in side.values():
                    weight[next(slots)] += count
                self.weights.append(list(weight.items()))
            self.terms = [[(s, float(1 << b)) for s, w in side
                           for b in range(w.bit_length()) if w >> b & 1]
                          for side in self.weights]
            self.count = ds.r * (2 * ds.r - 1)

    def powers(self, p) -> list[float]:
        """Each ratio's float power, 0 for 0 (0**0 = 0, as in `power`)."""
        return [float(e ** p) if e else 0.0 for e in self.ratios]

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
        """A double simplex's (within, cross) distances, as (distance,
        count) for each distinct one."""
        return tuple([(self.keys[s], w) for s, w in side]
                     for side in self.weights)

    def gap(self, p) -> tuple:
        """(gap, radius, lhs, rhs) of a double simplex's float powers, each
        side one math.fsum: a single rounding, whatever the order of its
        terms. The radius scales with their magnitude lhs + rhs, and adds
        `floor` for each of the r(2r - 1) pairs."""
        powers = self.powers(p)
        lhs, rhs = (math.fsum([powers[s] * m for s, m in side])
                    for side in self.terms)
        return (rhs - lhs, gap_radius(p, 1) * (lhs + rhs)
                + self.count * self.floor(p), lhs, rhs)


def simplex_gap(space, ds: DoubleSimplex, p) -> GapResult:
    """Exact Fractions when every distance is rational and p a nonnegative
    integer; float sums, with the gap's radius, otherwise. Each side sums
    count x power over ds's distinct pairs (`DistanceIndex`), whose
    distances must pass `refuse_unfit`, else ValueError before any
    power."""
    index = DistanceIndex(space, ds, 1)
    sides = index.sides()
    if p == int(p) and p >= 0 and all(isinstance(d, (int, Fraction))
                                      for d, _ in sides[0] + sides[1]):
        # 0**0 = 0, as in `power`, with no bound on the exact power's size
        lhs, rhs = (Fraction(sum(w * d ** int(p) for d, w in side if d))
                    for side in sides)
        return GapResult(int(p), lhs, rhs, True, 0)
    _, radius, lhs, rhs = index.gap(p)
    return GapResult(p, lhs, rhs, False, radius)


def certify_violation(space, ds: DoubleSimplex, p,
                      index: DistanceIndex | None = None) -> bool:
    """Whether ds violates at p, proven: its float gap on the distances
    over their largest, against the gap's radius. Where that leaves it
    undecided, not at all when both sides' nonzero distances are one
    multiset, which makes the gap 0 at every p (every X = Y
    configuration), else as `exact.settle` decides it. `index` is
    ds's `DistanceIndex` where the caller holds one, built here if not:
    either way only distances `refuse_unfit` admits are powered."""
    if index is None:
        index = DistanceIndex(space, ds)
    verdict = violation(*index.gap(p)[:2])
    if verdict is not None:
        return verdict
    within, cross = index.sides()
    if _nonzero_multiset(within) == _nonzero_multiset(cross):
        return False
    from .exact import power, settle

    return settle(lambda lift: sum(w * power(lift(d), p) for d, w in cross)
                  - sum(w * power(lift(d), p) for d, w in within),
                  f"gap at p={p}")


def _nonzero_multiset(side: list) -> Counter:
    multiset: Counter = Counter()
    for d, w in side:
        if d:
            multiset[d] += w
    return multiset


def _recertified(space, ds: DoubleSimplex, p,
                 index: DistanceIndex | None = None) -> DoubleSimplex:
    if not certify_violation(space, ds, p, index=index):
        raise ArithmeticError(
            f"witness failed recertification at p={p}")
    return ds


def exhaustive_config_count(n_points: int, max_size: int) -> int:
    total = 0
    for k in range(2, max_size + 1):
        m = math.comb(n_points + k - 1, k)
        total += m * (m + 1) // 2
    return total


def find_violation_exhaustive(space, max_size: int, p,
                              budget: int | None = None
                              ) -> Optional[DoubleSimplex]:
    """First violating double simplex over all index multisets of sizes
    2..max_size, or None, scanned (`kernels.min_gap_scan`) on a
    `DistanceIndex` of the space built per call, each gap the scan leaves
    undecided settled by `certify_violation`. A table `refuse_unfit`
    refuses raises ValueError, and a scan of more than `budget`
    configurations BudgetExceeded, both before any power. The witness is
    certified again before it is returned."""
    index = DistanceIndex(space)
    refuse_unfit(space, index)
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    if budget is not None:
        need = exhaustive_config_count(space.size, max_size)
        if need > budget:
            raise BudgetExceeded(
                f"exhaustive scan needs {need} configurations", need)
    if p == 0 and all(index.keys[s] != 0 for (i, j), s
                      in zip(index.pairs, index.slots) if i != j):
        # D^0 is all ones off the diagonal and 0 on it, so with c the
        # signed member counts every gap is |c|^2 / 2: exact in floats,
        # never a violation
        return None
    from . import kernels

    witness, _, _ = kernels.min_gap_scan(
        index.power_matrix(p), max_size, p, index.floor(p),
        lambda xs, ys: certify_violation(space, DoubleSimplex(xs, ys), p))
    return None if witness is None else _recertified(
        space, DoubleSimplex(*witness), p)


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


def _simplex_test(space, ds: DoubleSimplex, hi: float,
                  index: DistanceIndex | None = None):
    """Whether `ds`, which a probe found violating at hi, is proven to
    violate at p > 0 by its float gap and radius, on its `DistanceIndex`
    (`index`, or one built here): the test `certify_violation` makes
    first, so it agrees wherever this holds. Where even hi is not proven
    in floats, `certify_violation` must prove hi, which then stays the
    crossing."""
    if index is None:
        index = DistanceIndex(space, ds)

    def violates(p):
        return violation(*index.gap(p)[:2]) is True

    if not violates(hi):
        _recertified(space, ds, hi, index)
    return violates


# the most points a family of a spectral witness may hold: each doubling
# of the rounding scale doubles it, and the report lists every point
WITNESS_POINTS = 2 ** 14


def refuse_unfit(space, index: DistanceIndex) -> None:
    """ValueError naming the axiom and the first pair that fails it where a
    distance among the pairs of `index` (a listed table's every ordered
    pair, or a double simplex's) is not zero from a point to itself
    (identity), the same both ways (symmetry) or nonnegative
    (nonnegativity), decided on its keys before any power, values compared
    only where slots differ, and a mirror the index does not hold read
    from the space. Every other table is a pseudometric's up to the
    triangle inequality, which no probe needs."""
    keys = index.keys
    slot = dict(zip(index.pairs, index.slots))
    negative = {s for s, d in enumerate(keys) if d < 0}

    def asymmetric(i, j, s):
        t = slot.get((j, i))
        return t != s and keys[s] != (space.distance(j, i) if t is None
                                      else keys[t])

    for axiom, failing in (
            ("identity", ((i, j) for (i, j), s in slot.items()
                          if i == j and keys[s] != 0)),
            ("symmetry", ((i, j) for (i, j), s in slot.items()
                          if i != j and asymmetric(i, j, s))),
            ("nonnegativity", (pair for pair, s in slot.items()
                               if s in negative))):
        pair = next(failing, None)
        if pair is not None:
            raise ValueError(f"distance matrix fails {axiom} at "
                             f"({pair[0]},{pair[1]})")


def _merged(space, index: DistanceIndex) -> tuple:
    """(kept, zeros) for a table `refuse_unfit` admits: the points kept
    when each point at distance 0 from an earlier kept one, with an equal
    row (its slots in the full `index`, or where they differ its keys),
    merges into it, and whether a zero still lies off the diagonal between
    two kept points. Every double simplex keeps its distances under the
    merge, so the roundness is the kept points'."""
    n, keys, slots = space.size, index.keys, index.slots
    zero = {s for s, d in enumerate(keys) if d == 0}
    rows = [slots[i * n:(i + 1) * n] for i in range(n)]
    kept, zeros = [], False
    for j in range(n):
        twins = [i for i in kept if rows[i][j] in zero]
        if not any(rows[i] == rows[j] or [keys[s] for s in rows[i]]
                   == [keys[s] for s in rows[j]] for i in twins):
            zeros = zeros or bool(twins)
            kept.append(j)
    return kept, zeros


class _Kept:
    """The points `kept` of a space, as points 0..len(kept) - 1."""

    __slots__ = ("space", "kept", "size")

    def __init__(self, space, kept: list):
        self.space, self.kept, self.size = space, kept, len(kept)

    def distance(self, a: int, b: int):
        return self.space.distance(self.kept[a], self.kept[b])


def _dot(a, b) -> float:
    return sum(map(operator.mul, a, b))


def _cholesky(rows: list, shift: float) -> tuple:
    """Float Cholesky R^T R of rows - shift I, a column at a time:
    (R's columns above the diagonal, its diagonal, None) when every pivot
    is positive, else (the same for the columns before the failing pivot,
    x), where x^T (rows - shift I) x is that pivot, in exact arithmetic."""
    cols: list = []
    diag: list = []
    for j, row in enumerate(rows):
        col: list = []
        for k in range(j):
            col.append((row[k] - _dot(cols[k], col)) / diag[k])
        pivot = row[j] - shift - _dot(col, col)
        if not pivot > 0:
            # x = (-R^-1 R^-T a_j, 1, 0, ...): back-substitution
            x = col + [1.0] + [0.0] * (len(rows) - j - 1)
            for k in range(j - 1, -1, -1):
                x[k] /= diag[k]
                for i, r in enumerate(cols[k]):
                    x[i] -= r * x[k]
            return cols, diag, [-t for t in x[:j]] + x[j:]
        cols.append(col)
        diag.append(math.sqrt(pivot))
    return cols, diag, None


def _solve(cols: list, diag: list, v: list) -> list:
    """x with R^T R x = v for a complete factor."""
    w: list = []
    for k, col in enumerate(cols):
        w.append((v[k] - _dot(col, w)) / diag[k])
    for k in range(len(w) - 1, -1, -1):
        w[k] /= diag[k]
        for i, r in enumerate(cols[k]):
            w[i] -= r * w[k]
    return w


def _form(rows: list, x: list) -> float:
    return _dot(x, [_dot(row, x) for row in rows])


def _rayleigh(rows: list, x: list) -> float:
    """x^T A x / x^T x, or 0 where a back-substitution through a tiny
    pivot left x too large for that to be a finite float."""
    q = _form(rows, x) / _dot(x, x)
    return q if math.isfinite(q) else 0.0


class SpectralProbe:
    """The probe of a listed table `refuse_unfit` admits, with no point
    repeated (`_merged`), for every double simplex at once. With
    B = (e_i - e_n), the n - 1 vectors from the last point, and D^p the
    distance powers, c = B z is a signed multiset of points summing to 0,
    and z^T A(p) z = -c^T D^p c is twice the gap of the double simplex
    whose points are c's positive and negative parts, whatever the signs
    of the distances. So no double simplex violates at p exactly when
    A(p) = -B^T D^p B is positive semidefinite (Schoenberg), and
    A(0) = I + J where no zero lies off the diagonal (0^0 = 0), so
    `bracket` probes 0 first only with one (`zeros`).

    A probe at q factors A(q) - cI in floats (`_cholesky`) from the
    `DistanceIndex` powers over the largest distance. Where it completes,
    A(q) is positive definite, by Weyl's inequality: the factor is exact
    for the matrix factored plus an error of spectral norm at most
    gamma/(1 - gamma) times its trace, gamma = (m + 1)u/(1 - (m + 1)u)
    for an m x m matrix (Demmel 1989; Rump 2006, BIT 46), plus subnormal
    terms, and the float A(q) is within a row sum of its entries' radii
    (`gap_radius`, `floor`) of the exact one; c is twice the two bounds,
    with the rounding of the shifted diagonal. Where the
    factorisation fails but that of A(q) + cI completes, the probe is
    settled as a gap is (`exact.settle`): A(q) is factored exactly
    (`exact._psd_value`) in Fractions where every power is rational, else on
    intervals at twice PRECISION_BITS. A failure of both only steers the
    bisection; `witness` proves a violation."""

    def __init__(self, space, index: DistanceIndex, zeros: bool = False):
        self.space, self.index, self.zeros = space, index, zeros
        self.m, self.proof = max(space.size - 1, 0), None

    def plan(self, budget: int | None) -> None:
        # the multiply-adds of one factorisation, sum_j j (j + 1) / 2
        work = (self.m - 1) * self.m * (self.m + 1) // 6
        if budget is not None and work > budget:
            raise BudgetExceeded(f"factorisation needs {work} multiply-adds",
                                 work)

    def matrix(self, p) -> tuple:
        """(A(p) in floats from the powers over the largest distance, the
        shift c that makes a completed factorisation of A(p) - cI a
        proof)."""
        m, pw = self.m, self.index.power_matrix(p)
        last = [row[m] for row in pw]
        rows = [[(last[i] + last[j]) - pw[i][j] for j in range(m)]
                for i in range(m)]
        # Weyl: each entry (P_in + P_jn) - P_ij is within gap_radius(p, 1)
        # of its three powers' sum, plus a floor each; a row sum of those
        # bounds the spectral norm of the symmetric error
        total = sum(last[:m])
        error = (gap_radius(p, 1) * max(
            (m * last[i] + total + sum(pw[i][:m]) for i in range(m)),
            default=0.0) + 3 * m * self.index.floor(p))
        # Cholesky: the trace term, and a subnormal ulp for every product
        # and quotient of an entry
        steps = (self.m + 1) * UNIT
        gamma = steps / (1 - steps)
        tiny = m * (m + 2) * math.ulp(0.0)
        rounding = gamma / (1 - gamma) * (2 * total + tiny) + tiny
        # doubled: the bound's own rounding, and fl(a_ii - c) >= a_ii - c
        # less one rounding of a_ii
        shift = 2 * (rounding + error) + 4 * UNIT * 2 * max(last[:m],
                                                            default=0.0)
        return rows, shift

    def clean(self, p) -> bool:
        """Whether no double simplex violates at p, proven."""
        rows, shift = self.matrix(p)
        if _cholesky(rows, shift)[2] is None:
            return True
        if _cholesky(rows, -shift)[2] is not None:
            return False
        from .exact import _psd_value, power, settle

        index, n = self.index, self.space.size

        def value(lift):
            pw = [power(lift(d), p) for d in index.keys]
            at = [pw[s] for s in index.slots]
            return _psd_value([[at[i * n + n - 1] + at[j * n + n - 1]
                                - at[i * n + j] for j in range(self.m)]
                               for i in range(self.m)])

        return not settle(value, f"spectral probe at p={p}")

    def witness(self, p) -> Optional[DoubleSimplex]:
        """A double simplex proven to violate at p, its `DistanceIndex`
        kept as `proof`, or None. The failing factorisation's vector starts
        inverse iteration toward A(p)'s most negative eigenvector, with a
        shift bisected below that eigenvalue (a factorisation of A(p) - sI
        completes only for s below it); the vector, scaled to largest entry
        1, 2, 4, ..., is rounded to integer multiplicities z of the first
        n - 1 points, the last one taking -sum(z), until `certify_violation`
        proves one or a family passes WITNESS_POINTS points."""
        rows, shift = self.matrix(p)
        x = _cholesky(rows, shift)[2]
        if x is None:
            return None
        # inverse iteration converges by (lambda - lo) / (lambda_2 - lo)
        # a step, for a shift lo below the least eigenvalue lambda; near
        # the roundness lambda_2 >= 0, so a shift within |hi| / 8 of it,
        # hi >= lambda, gains a factor 9 a step. The shift doubles below
        # hi until a factorisation completes, then bisects; each failing
        # one's vector lowers hi to its Rayleigh quotient
        hi, lo, factor = min(-shift, _rayleigh(rows, x)), 0.0, None
        while factor is None or hi - lo > -hi / 8:
            mid = 2 * hi if factor is None else lo + (hi - lo) / 2
            if factor is not None and not lo < mid < hi:
                break
            trial = _cholesky(rows, mid)
            if trial[2] is None:
                lo, factor = mid, trial
            else:
                hi = min(mid, _rayleigh(rows, trial[2]))
        # converged to 2^-40, far below what a rounding at a scale within
        # WITNESS_POINTS can see
        v = x
        for _ in range(100):
            w = _solve(factor[0], factor[1], v)
            top = max(w, key=abs)
            w, v = v, [t / top for t in w]
            if max(map(abs, map(operator.sub, w, v))) <= 2.0 ** -40:
                break
        points = self.space.size
        for b in range(64):
            z = [round(t * 2 ** b) for t in v]
            z.append(-sum(z))
            r = sum(t for t in z if t > 0)
            if r > WITNESS_POINTS:
                return None
            if r < 2 or not _form(rows, z[:-1]) < 0:
                continue
            ds = DoubleSimplex(
                tuple(i for i in range(points) for _ in range(z[i])),
                tuple(i for i in range(points) for _ in range(-z[i])))
            self.proof = DistanceIndex(self.space, ds)
            if certify_violation(self.space, ds, p, index=self.proof):
                return ds
        return None

    def narrow(self, clean, cap: float, tol: float, flags: list) -> tuple:
        """Bisect on the factorisation to within tol / 4, then close the
        bracket to tol at the crossing, on its `proof`, of a witness at
        lower + tol: a rounded eigenvector crosses above the roundness by
        its rounding, so no witness steers the bisection. Where none of at
        most WITNESS_POINTS points a family is proven there, the span above
        lower quadruples up to cap, a bracket left wider than tol flagged."""
        lower, upper = 0.0, cap
        while upper - lower > tol / 4:
            mid = lower + (upper - lower) / 2
            if not lower < mid < upper:
                # adjacent floats, within tol / 4 only for tol under 4 ulps
                if upper - lower > tol:
                    flags.append("tolerance below float resolution")
                break
            if clean(mid):
                lower = mid
            else:
                upper = mid
        span = tol
        while True:
            q = lower + span
            if q - lower > span:
                q = math.nextafter(q, lower)
            q = min(max(q, upper), cap)
            ds = self.witness(q)
            if ds is not None:
                upper = _crossing(_simplex_test(self.space, ds, q, self.proof),
                                  lower, q)
                if span > tol and upper - lower > tol:
                    flags.append(f"no witness of at most {WITNESS_POINTS} points"
                                 f" per family within p_tolerance")
                return lower, upper, ds
            if q == cap:
                return lower, math.inf, None
            span *= 4


class RoundnessEstimate(Record):
    # the witness is a double simplex, or on a cycle product a character's
    # folded frequency multiset
    __slots__ = ("lower", "upper", "witness", "witness_p", "certified",
                 "p_cap", "probes", "flags")

    def fields(self) -> dict:
        fields = super().fields()
        if isinstance(self.witness, tuple):
            fields["witness"] = {"character": self.witness}
        unbounded = math.isinf(self.upper)
        return {**fields, "upper": None if unbounded else self.upper,
                "unbounded": unbounded}


def bracket(probe, cap: float, tol: float,
            budget: int | None = None) -> RoundnessEstimate:
    """The estimate of every engine between 0 and cap, each `probe.clean`
    listed in `probes`: uncertified before any work where
    `probe.plan(budget)` refuses. With `probe.zeros`, 0 is probed first,
    and a witness there ends the bracket at (0, 0). Else it is (cap, inf)
    where cap probes clean, else `probe.narrow` closes it to tol by its
    own rule to (lower, upper, witness), upper inf with no witness. A
    witness violates at `witness_p`, the upper end; a bracket without one
    is flagged."""
    est = RoundnessEstimate(0.0, math.inf, None, None, True, cap, [], [])
    flags = est.flags
    try:
        probe.plan(budget)
    except BudgetExceeded as exc:
        flags.append(f"budget exhausted: {exc}")
        est.certified = False
        return est

    def clean(p: float) -> bool:
        verdict = probe.clean(p)
        est.probes.append({"p": p, "violation": not verdict})
        return verdict

    if probe.zeros and not clean(0.0):
        est.witness, missing = probe.witness(0.0), "no witness proven at p=0"
        if est.witness is not None:
            flags.append("violation at p=0")
            est.upper = 0.0
    elif clean(cap):
        flags.append("no violation up to p_cap")
        est.lower = cap
        return est
    else:
        est.lower, est.upper, est.witness = probe.narrow(clean, cap, tol,
                                                         flags)
        missing = "no witness proven up to p_cap"
    if est.witness is None:
        flags.append(missing)
    else:
        est.witness_p = est.upper
    return est


def estimate_roundness(space, p_tolerance: float = 1e-3,
                       budget: int | None = None,
                       p_cap: float = 16.0
                       ) -> RoundnessEstimate:
    """Bracket the roundness between a clean probe and a witness, for
    every double simplex, by `bracket`: on a cycle product through its
    characters (`probes.CharacterProbe`), on a listed table through
    `SpectralProbe`. A listed table must be zero on its diagonal,
    symmetric and nonnegative, else ValueError names the axiom and the
    pair (`refuse_unfit`), and each point at distance 0 from an earlier
    one with an equal row is merged into it first (`_merged`); the
    reported witness names the table's own points and is proven on it.
    Both ends are certified: the lower by a full character table or
    factorisation, the upper by the witness, proven there
    (`certify_violation`) or positive there as an interval. The lower end
    is absolute: a roundness below p_tolerance keeps it at 0, with its
    witness's crossing above. `budget` caps the characters or the
    multiply-adds of one factorisation. None means no cap on a listed
    space, which its size bounds, and on a cycle product, whose character
    count two integers set, as many characters as keep its table within
    `probes.TABLE_INTERVALS` intervals. The tolerance and p_cap must be
    finite and positive.
    """
    for name, value in (("p_tolerance", p_tolerance), ("p_cap", p_cap)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    # a cycle product exists only once its module has loaded, and a listed
    # space loads neither it nor the character probe (`probes`)
    cycles = sys.modules.get(f"{__package__}.cycles")
    if cycles is not None and isinstance(space, cycles.ProductCycleSpace):
        from .probes import CharacterProbe

        return bracket(CharacterProbe(space), p_cap, p_tolerance, budget)
    index = DistanceIndex(space)
    refuse_unfit(space, index)
    kept, zeros = _merged(space, index)
    points = space
    if len(kept) < space.size:
        points = _Kept(space, kept)
        index = DistanceIndex(points)
    form = SpectralProbe(points, index, zeros)
    est = bracket(form, p_cap, p_tolerance, budget)
    if est.witness is not None:
        index = form.proof
        if points is not space:
            # the merged points' labels, and a proof on the table itself
            est.witness, index = DoubleSimplex(*(
                tuple(kept[i] for i in fam)
                for fam in (est.witness.xs, est.witness.ys))), None
        # the reported witness, proven where it is reported
        _recertified(space, est.witness, est.witness_p, index)
    return est
