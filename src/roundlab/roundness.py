"""Generalized roundness: double-simplex gaps, violation probes, brackets.

A double simplex (x_1..x_r; y_1..y_r) violates at exponent p when

    sum_{i<j} d(x_i,x_j)^p + d(y_i,y_j)^p  >  sum_{i,j} d(x_i,y_j)^p

beyond tolerance. The roundness of a space is the supremum of exponents
admitting no violation; the set of good exponents is an interval starting
at 0 (Lennard-Tonge-Weston), so one clean probe below and one violating
witness above bracket it.
"""

from __future__ import annotations

import functools
import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import Optional

from . import BudgetExceeded, Record
from .cycles import DoubleSimplex, ProductCycleSpace
from .numerics import PRECISION_BITS, REL_TOL, Number, dpow, is_violation

# the intervals a cycle product's character table may hold when the
# caller of `estimate_roundness` sets no budget: about 10 s and 100 MiB
# to build (measured at 8 coordinates of Z_16, 102,952 intervals in
# 5.3 s and 52 MiB), and 50 times the 3,952 of stage 2
TABLE_INTERVALS = 2 * 10 ** 5

# significant digits of witness certification: at least twice
# PRECISION_BITS bits
CERTIFY_DIGITS = math.ceil(2 * PRECISION_BITS * math.log10(2))


class GapResult(Record):
    __slots__ = ("p", "lhs", "rhs", "exact")

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


def _dpow_decimal(d: Number, p) -> Decimal:
    """dpow in the ambient decimal context, with its 0**0 = 0 convention."""
    if d == 0:
        return Decimal(0)
    if p == 0:
        return Decimal(1)
    if isinstance(d, Fraction):
        base = Decimal(d.numerator) / d.denominator
    else:
        base = Decimal(d)
    if float(p).is_integer():
        # exact up to rounding, and defined for a negative base
        return base ** int(p)
    # ln then exp: about 78 us a distance at CERTIFY_DIGITS, where
    # Decimal.__pow__ takes about 190 us
    return (base.ln() * Decimal(p)).exp()


def certify_violation(space, ds: DoubleSimplex, p) -> bool:
    """Recompute the gap independently and re-test the violation.

    Rational distances with integer p settle the question exactly; all
    other cases are re-summed in decimal at CERTIFY_DIGITS significant
    digits, no less than twice PRECISION_BITS.
    """
    within, cross = _pair_distances(space, ds)
    exact = _exact_gap(within, cross, p)
    if exact is not None:
        return exact.is_violation()
    with localcontext() as ctx:
        ctx.prec = CERTIFY_DIGITS
        lhs = sum(_dpow_decimal(d, p) for d in within)
        rhs = sum(_dpow_decimal(d, p) for d in cross)
        return is_violation(rhs - lhs, max(lhs, rhs))


def exhaustive_config_count(n_points: int, max_size: int) -> int:
    total = 0
    for k in range(2, max_size + 1):
        m = comb(n_points + k - 1, k)
        total += m * (m + 1) // 2
    return total


class DistanceIndex:
    """A space's distances as an index into their distinct values: `keys`
    holds one distance per distinct (type, value) and `rows[i][j]` the
    position of d(i, j) among them. `dpow` depends on a distance only
    through its type and value, so powering each key once gives every
    entry of the power matrix; an estimate builds one index and each
    probe powers only the keys."""

    __slots__ = ("keys", "rows")

    def __init__(self, space):
        n = space.size
        slots: dict = {}
        self.rows = [[slots.setdefault((type(d), d), len(slots))
                      for d in [space.distance(i, j) for j in range(n)]]
                     for i in range(n)]
        self.keys = [d for _, d in slots]

    def power_matrix(self, p) -> list[list[float]]:
        """float(dpow(d(i, j), p)) for every ordered pair of points. A
        negative distance (an unchecked space) at fractional p has no real
        power and raises ValueError naming its first pair."""
        try:
            powers = [float(dpow(d, p)) for d in self.keys]
        except TypeError:
            # float() refuses the complex power of a negative base
            negative = next(((i, j) for i, row in enumerate(self.rows)
                             for j, k in enumerate(row) if self.keys[k] < 0),
                            None)
            if negative is None:
                raise
            i, j = negative
            raise ValueError(
                f"distance between points {i} and {j} is negative "
                f"({self.keys[self.rows[i][j]]}): no real power at p={p}"
            ) from None
        return [[powers[k] for k in row] for row in self.rows]


def _scan_violation(space, max_size: int, p, budget: int | None,
                    index: DistanceIndex) -> Optional[DoubleSimplex]:
    """`find_violation_exhaustive` without the re-sum: the first double
    simplex the float scan finds violating, or None."""
    n = space.size
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    if budget is not None:
        need = exhaustive_config_count(n, max_size)
        if need > budget:
            raise BudgetExceeded(
                f"exhaustive scan needs {need} configurations", need)
    if p == 0 and all(index.keys[k] != 0 for i, row in enumerate(index.rows)
                      for j, k in enumerate(row) if i != j):
        # D^0 is all ones off the diagonal, so with c the signed member
        # counts, twice every gap is sum_k (1 - D^0_kk) c_k^2 plus the
        # diagonal entries of the members: an integer >= 0, exact in
        # floats, never a violation (|c|^2 / 2 on a zero diagonal)
        return None
    from . import kernels

    witness, _, _ = kernels.min_gap_scan(index.power_matrix(p), max_size,
                                         REL_TOL)
    if witness is None:
        return None
    return DoubleSimplex(tuple(witness[0]), tuple(witness[1]))


def _recertified(space, ds: DoubleSimplex, p) -> DoubleSimplex:
    if not certify_violation(space, ds, p):
        raise ArithmeticError(
            f"scan witness failed recertification at p={p}; raise precision")
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


def _simplex_test(space, index: DistanceIndex, ds: DoubleSimplex, hi: float):
    """Whether `ds`, which the scan found violating at hi, violates
    certainly at p > 0. The test powers the simplex's own distances in
    floats (15 for a 3+3 simplex) and adds (lhs + rhs)(p + 4) 2^-52 to
    the gap, a bound on the rounding of float(d), the power and the sums,
    so a gap that still violates violates exactly and `certify_violation`
    agrees. Where even hi does not clear that bound, the decimal re-sum
    must certify hi, which then stays the crossing."""
    within, cross = ([float(d) for d in dists]
                     for dists in _pair_distances(space, ds))

    def violates(p):
        try:
            lhs = math.fsum(d ** p for d in within)
            rhs = math.fsum(d ** p for d in cross)
        except TypeError:
            # fsum refuses the complex power of a negative distance; the
            # power matrix names its pair
            index.power_matrix(p)
            raise
        return is_violation(rhs - lhs + (lhs + rhs) * (p + 4) * 2.0 ** -52,
                            max(lhs, rhs))

    if not violates(hi):
        _recertified(space, ds, hi)
    return violates


@functools.lru_cache(maxsize=2)
def _intervals(bits: int):
    """An mpmath interval context of its own at `bits` of precision, so no
    probe sets the precision of the shared `mpmath.iv`."""
    from mpmath.ctx_iv import MPIntervalContext

    iv = MPIntervalContext()
    iv.prec = bits
    return iv


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
    iv, half = _intervals(PRECISION_BITS), units // 2
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
    [d >= kq], w_k = k^p - (k-1)^p and 0^p = 0 as in dpow, so the
    eigenvalue at xi is -q^p sum_k w_k prod_i D_k(xi_i), evaluated as an
    interval at PRECISION_BITS. One that straddles 0 with none positive
    must be proven 0 (`_eigenvalue_vanishes`), else ArithmeticError.
    `table` is the space's `character_table`, built here under `budget`
    when not given.
    """
    if table is None:
        table = character_table(space, budget)
    units = space.units
    weights = _weights(units, p)
    undecided = []
    for xi, prods in table:
        lam = _eigenvalue(weights, prods)
        if lam.a > 0:
            return xi
        if lam.b > 0:
            undecided.append(xi)
    for xi in undecided:
        if not _eigenvalue_vanishes(units, xi, p):
            raise ArithmeticError(f"eigenvalue at character {list(xi)} "
                                  f"undecided at p={p}; raise precision")
    return None


def _weights(units: int, p) -> list:
    """The intervals w_k = k^p - (k-1)^p, k = 1..units/2: units/2 interval
    powers at PRECISION_BITS."""
    iv = _intervals(PRECISION_BITS)
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
    by the witness, re-summed there (`certify_violation`) or positive
    there as an interval. The lower end is absolute: a roundness below
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
            return _crossing(_simplex_test(space, index, w, hi), lo, hi)
        prods = dict(table)[w]
        return _crossing(lambda p: _eigenvalue(_weights(space.units, p),
                                               prods).a > 0, lo, hi)

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
        # the reported witness, re-summed where it is reported
        _recertified(space, est.witness, est.witness_p)
    return est
