"""Generalized roundness: double-simplex gaps, violation probes, bisection.

A double simplex (x_1..x_r; y_1..y_r) violates at exponent p when

    sum_{i<j} d(x_i,x_j)^p + d(y_i,y_j)^p  >  sum_{i,j} d(x_i,y_j)^p

beyond tolerance. The roundness of a space is the supremum of exponents
admitting no violation; the set of good exponents is an interval starting
at 0, which is what makes bisection sound.
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

# significant digits of witness certification: at least twice
# PRECISION_BITS bits
CERTIFY_DIGITS = math.ceil(2 * PRECISION_BITS * math.log10(2))


class GapResult(Record):
    __slots__ = ("p", "lhs", "rhs", "exact")

    def __init__(self, p: Number, lhs: Number, rhs: Number, exact: bool):
        self.p = p
        self.lhs = lhs
        self.rhs = rhs
        self.exact = exact

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
    return base ** Decimal(p)


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


def distance_power_matrix(space, p) -> list[list[float]]:
    """float(dpow(d(i, j), p)) for every ordered pair of points, with one
    `dpow` per unordered pair: the mirror entry reuses it wherever d(j, i)
    equals d(i, j) in value and type, which is where `dpow` is bound to
    agree (an asymmetric input still gets its own power). A negative
    distance (an unchecked space) at fractional p has no real power and
    raises ValueError naming its pair."""
    n = space.size
    dist = [[space.distance(i, j) for j in range(n)] for i in range(n)]
    dp = [[0.0] * n for _ in range(n)]
    try:
        for i, row in enumerate(dist):
            out = dp[i]
            for j in range(i, n):
                d = row[j]
                out[j] = value = float(dpow(d, p))
                mirror = dist[j][i]
                dp[j][i] = (value if mirror == d and type(mirror) is type(d)
                            else float(dpow(mirror, p)))
    except TypeError:
        # float() refuses the complex power of a negative base
        negative = next(((i, j) for i, row in enumerate(dist)
                         for j, d in enumerate(row) if d < 0), None)
        if negative is None:
            raise
        i, j = negative
        raise ValueError(f"distance between points {i} and {j} is negative "
                         f"({dist[i][j]}): no real power at p={p}") from None
    return dp


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
    if p == 0 and all(space.distance(i, j) != 0
                      for i in range(n) for j in range(n) if i != j):
        # D^0 is all ones off the diagonal, so with c the signed member
        # counts, twice every gap is sum_k (1 - D^0_kk) c_k^2 plus the
        # diagonal entries of the members: an integer >= 0, exact in
        # floats, never a violation (|c|^2 / 2 on a zero diagonal)
        return None
    from . import kernels

    dp = distance_power_matrix(space, p)
    witness, _, _ = kernels.min_gap_scan(dp, max_size, REL_TOL)
    if witness is None:
        return None
    ds = DoubleSimplex(tuple(witness[0]), tuple(witness[1]))
    if not certify_violation(space, ds, p):
        raise ArithmeticError(
            f"scan witness failed recertification at p={p}; raise precision")
    return ds


@functools.lru_cache(maxsize=2)
def _intervals(bits: int):
    """An mpmath interval context of its own at `bits` of precision, so no
    probe sets the precision of the shared `mpmath.iv`."""
    from mpmath.ctx_iv import MPIntervalContext

    iv = MPIntervalContext()
    iv.prec = bits
    return iv


@functools.lru_cache(maxsize=8)
def _character_products(units: int, coords: int, bits: int) -> tuple:
    """For each nontrivial folded frequency multiset xi in {0..units/2}
    (combinations_with_replacement order), the intervals prod_i D_k(xi_i),
    k = 1..units/2, of `bits` bits. D_k is one cycle's character sum over
    |g| < k: sin(pi(2k-1)v/units) / sin(pi v/units), and 2k - 1 at v = 0."""
    iv, half = _intervals(bits), units // 2
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
                              budget: int | None = None
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
    must be proven 0 (`_eigenvalue_vanishes`), else ArithmeticError. Over
    `budget` characters raise BudgetExceeded before any is built.
    """
    units, coords = space.units, space.coords
    need = comb(units // 2 + coords, coords) - 1
    if budget is not None and need > budget:
        raise BudgetExceeded(f"character probe needs {need} characters", need)
    iv = _intervals(PRECISION_BITS)
    pw = [iv.mpf(k) ** iv.mpf(p) for k in range(1, units // 2 + 1)]
    weights = [pw[0]] + [b - a for a, b in zip(pw, pw[1:])]
    undecided = []
    for xi, prods in _character_products(units, coords, PRECISION_BITS):
        lam = -sum(w * d for w, d in zip(weights, prods))
        if lam.a > 0:
            return xi
        if lam.b > 0:
            undecided.append(xi)
    for xi in undecided:
        if not _eigenvalue_vanishes(units, xi, p):
            raise ArithmeticError(f"eigenvalue at character {list(xi)} "
                                  f"undecided at p={p}; raise precision")
    return None


class RoundnessEstimate:
    __slots__ = ("lower", "upper", "witness", "witness_p", "certified",
                 "covers", "max_simplex_size", "p_cap", "probes", "flags")

    def __init__(self, lower: float, upper: float,
                 witness: Optional[DoubleSimplex | tuple],
                 witness_p: Optional[float], certified: bool, covers: str,
                 max_simplex_size: Optional[int], p_cap: float,
                 probes: Optional[list] = None,
                 flags: Optional[list] = None):
        self.lower = lower
        self.upper = upper
        # a double simplex, or on a cycle product a character's folded
        # frequency multiset
        self.witness = witness
        self.witness_p = witness_p
        self.certified = certified
        self.covers = covers
        self.max_simplex_size = max_simplex_size
        self.p_cap = p_cap
        self.probes = [] if probes is None else probes
        self.flags = [] if flags is None else flags

    def to_dict(self) -> dict:
        if self.witness is None:
            witness = None
        elif isinstance(self.witness, DoubleSimplex):
            witness = {"xs": list(self.witness.xs),
                       "ys": list(self.witness.ys)}
        else:
            witness = {"character": list(self.witness)}
        return {
            "lower": self.lower,
            "upper": None if math.isinf(self.upper) else self.upper,
            "unbounded": math.isinf(self.upper),
            "witness": witness,
            "witness_p": self.witness_p,
            "certified": self.certified,
            "covers": self.covers,
            "max_simplex_size": self.max_simplex_size,
            "p_cap": self.p_cap,
            "probes": self.probes,
            "flags": self.flags,
        }


def estimate_roundness(space, max_size: int = 3,
                       p_tolerance: float = 1e-3,
                       budget: int | None = None,
                       p_cap: float = 16.0
                       ) -> RoundnessEstimate:
    """Bracket the roundness by bisection on the violation predicate.

    A cycle product is probed through its characters, which covers every
    double simplex (max_size is not read); any other space by the
    exhaustive scan of families up to max_size points, which `covers`
    records. Both ends are certified for what `covers` names. `budget`
    caps the characters or scanned configurations of each probe. The
    tolerance and p_cap must be finite and positive.
    """
    for name, value in (("p_tolerance", p_tolerance), ("p_cap", p_cap)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    probes: list = []
    flags: list = []
    if isinstance(space, ProductCycleSpace):
        covers, size = "every double simplex", None
    else:
        covers = f"double simplices with at most {max_size} points per family"
        size = max_size

    def probe(p: float):
        w = (find_violation_characters(space, p, budget) if size is None
             else find_violation_exhaustive(space, max_size, p, budget))
        probes.append({"p": p, "violation": w is not None})
        return w

    est = RoundnessEstimate(0.0, math.inf, None, None, True, covers, size,
                            p_cap, probes, flags)
    try:
        w0 = probe(0.0)
        if w0 is not None:
            flags.append("violation at p=0")
            est.lower, est.upper = 0.0, 0.0
            est.witness, est.witness_p = w0, 0.0
            return est
        wit = probe(p_cap)
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
            w = probe(mid)
            if w is not None:
                est.upper, est.witness, est.witness_p = mid, w, mid
            else:
                est.lower = mid
        return est
    except BudgetExceeded as exc:
        flags.append(f"budget exhausted: {exc}")
        est.certified = False
        return est
