"""Product-of-cycles metric spaces and their structured pair/simplex combinatorics.

Distances live in integer quanta (one cycle step); a space's quantum converts
them to real units. Pair classes (delta, support) collect the point pairs
that differ in exactly `support` coordinates, each by cyclic distance exactly
`delta` quanta. Simplex classes describe double simplices whose edges and
connecting lines fall in prescribed pair classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

from . import kernels
from .kernels import BudgetExceeded

if TYPE_CHECKING:
    import numpy as np

CyclePoint = tuple[int, ...]

_NUMPY_THRESHOLD = 1024


def cyclic_distance(units: int, a: int, b: int) -> int:
    """min(|a-b|, units-|a-b|) for residues 0 <= a, b < units."""
    if not (0 <= a < units and 0 <= b < units):
        raise ValueError(f"residues must lie in [0, {units})")
    d = a - b
    if d < 0:
        d = -d
    return d if 2 * d <= units else units - d


@dataclass(frozen=True)
class CycleSpace:
    """Discrete circle: residues 0..units-1, distance = shorter arc in quanta."""

    units: int
    quantum: Fraction = Fraction(1)

    def __post_init__(self):
        if self.units < 2 or self.units % 2 != 0:
            raise ValueError("units must be a positive even integer")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")

    def distance_quanta(self, a: int, b: int) -> int:
        return cyclic_distance(self.units, a, b)

    def distance(self, a: int, b: int) -> Fraction:
        return self.quantum * self.distance_quanta(a, b)


@dataclass(frozen=True)
class ProductCycleSpace:
    """coords independent copies of one cycle under the sup metric."""

    coords: int
    cycle: CycleSpace

    def __post_init__(self):
        if self.coords < 1:
            raise ValueError("coords must be >= 1")

    @property
    def units(self) -> int:
        return self.cycle.units

    @property
    def quantum(self) -> Fraction:
        return self.cycle.quantum

    @property
    def size(self) -> int:
        return self.units ** self.coords

    def check_point(self, x: Sequence[int]) -> None:
        if len(x) != self.coords:
            raise ValueError(f"point length {len(x)} != coords {self.coords}")
        for v in x:
            if not (0 <= v < self.units):
                raise ValueError(f"residue {v} out of range [0, {self.units})")

    def iter_points(self) -> Iterator[CyclePoint]:
        return itertools.product(range(self.units), repeat=self.coords)

    def random_point(self, rng: np.random.Generator) -> CyclePoint:
        return tuple(int(v) for v in rng.integers(0, self.units, self.coords))

    def distance_quanta(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sup_distance(self, x, y)

    def distance(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        return self.quantum * sup_distance(self, x, y)


def sup_distance(space: ProductCycleSpace, x: Sequence[int], y: Sequence[int]) -> int:
    """Maximum of per-coordinate cyclic distances, in quanta."""
    if len(x) != len(y) or len(x) != space.coords:
        raise ValueError("point length mismatch")
    u = space.units
    if space.coords > _NUMPY_THRESHOLD:
        return int(_profile_np(space, x, y).max(initial=0))
    best = 0
    for a, b in zip(x, y):
        d = a - b
        if d < 0:
            d = -d
        if 2 * d > u:
            d = u - d
        if d > best:
            best = d
    return best


def _profile_np(space: ProductCycleSpace, x: Sequence[int], y: Sequence[int]) -> np.ndarray:
    import numpy as np

    ax = np.asarray(x, dtype=np.int64)
    ay = np.asarray(y, dtype=np.int64)
    d = np.abs(ax - ay)
    return np.minimum(d, space.units - d)


@dataclass(frozen=True)
class PairClass:
    """Point pairs differing in exactly `support` coords, each by `delta` quanta."""

    delta: int
    support: int

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if self.support < 1:
            raise ValueError("support must be >= 1")

    def validate_for(self, space: ProductCycleSpace) -> None:
        if 2 * self.delta > space.units:
            raise ValueError(f"delta {self.delta} exceeds half of {space.units} units")
        if self.support > space.coords:
            raise ValueError(f"support {self.support} exceeds {space.coords} coords")

    def orientations(self, space: ProductCycleSpace) -> int:
        """Per-coordinate direction count: 2, or 1 at the antipode."""
        return 1 if 2 * self.delta == space.units else 2


@dataclass(frozen=True)
class SimplexClass:
    """Double simplices of `families` points per side: edges are
    (2*delta, support)-pairs, connecting lines (delta, support*families)-pairs."""

    delta: int
    support: int
    families: int

    def __post_init__(self):
        if self.families < 2 or self.families % 2 != 0:
            raise ValueError("families must be an even integer >= 2")
        if self.delta < 1 or self.support < 1:
            raise ValueError("delta and support must be >= 1")

    def edge_class(self) -> PairClass:
        return PairClass(2 * self.delta, self.support)

    def conn_class(self) -> PairClass:
        return PairClass(self.delta, self.support * self.families)

    def validate_for(self, space: ProductCycleSpace) -> None:
        self.edge_class().validate_for(space)
        self.conn_class().validate_for(space)


@dataclass(frozen=True)
class DoubleSimplex:
    """Two equal-size families of points; repetition permitted."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        if len(self.xs) != len(self.ys):
            raise ValueError("families must have equal size")
        if len(self.xs) < 2:
            raise ValueError("families must have >= 2 members")

    @property
    def r(self) -> int:
        return len(self.xs)


@dataclass(frozen=True)
class Isometry:
    """Sup-metric self-map: out[i] = rot[i] +/- z[perm[i]] (mod units)."""

    perm: tuple[int, ...]
    rot: tuple[int, ...]
    reflect: tuple[bool, ...]
    units: int

    def apply(self, z: Sequence[int]) -> CyclePoint:
        u = self.units
        return tuple(
            (self.rot[i] + (-z[self.perm[i]] if self.reflect[i] else z[self.perm[i]])) % u
            for i in range(len(self.perm))
        )


# ---------------------------------------------------------------------------
# stage-form instances: C = n^n coords, U = n^(2n) units, quantum = n^(-n)

def stage_space(n: int) -> ProductCycleSpace:
    if n < 2:
        raise ValueError("n must be >= 2")
    return ProductCycleSpace(n ** n, CycleSpace(n ** (2 * n), Fraction(1, n ** n)))


def stage_delta(n: int, t: int) -> int:
    """2^t * n^n in quanta; exact, or an error if 2^(-t) does not divide n^n."""
    base = n ** n
    if t >= 0:
        return base * 2 ** t
    q, rem = divmod(base, 2 ** (-t))
    if rem:
        raise ValueError(f"2^{t} * {n}^{n} is not an integer number of quanta")
    return q


def stage_pair_class(n: int, t: int, m: int) -> PairClass:
    return PairClass(stage_delta(n, t), n ** m)


def stage_simplex_class(n: int, t: int, m: int) -> SimplexClass:
    """Simplex with n families whose connecting lines are (t, m+1)-pairs
    and edges (t+1, m)-pairs."""
    return SimplexClass(stage_delta(n, t), n ** m, n)


def stage_range_warnings(n: int, t: int, m: int) -> list[str]:
    """Non-fatal flags where (t, m) leaves the source construction's stated ranges."""
    warnings = []
    if n % 2 != 0:
        warnings.append(f"n = {n} is odd; the construction is stated for even n")
    if not (0 < m <= n):
        warnings.append(f"m = {m} outside the studied range 0 < m <= {n}")
    if not (abs(t) < n):
        warnings.append(f"|t| = {abs(t)} outside the studied range |t| < {n}")
    return warnings


def stage_form_of_pair(n: int, cls: PairClass) -> tuple[int, int] | None:
    """Recover (t, m) with delta = 2^t * n^n and support = n^m, if expressible."""
    base = n ** n
    m = round(math.log(cls.support, n)) if cls.support > 1 else 0
    if n ** m != cls.support:
        return None
    ratio = Fraction(cls.delta, base)
    num, den = ratio.numerator, ratio.denominator
    if num & (num - 1) or den & (den - 1):
        return None
    t = num.bit_length() - den.bit_length()
    if Fraction(2) ** t != ratio:
        return None
    return t, m


# ---------------------------------------------------------------------------
# pair and simplex predicates

def is_pair(space: ProductCycleSpace, x: Sequence[int], y: Sequence[int],
            cls: PairClass) -> bool:
    """True iff exactly `support` coords differ, each by exactly `delta` quanta."""
    cls.validate_for(space)
    if len(x) != space.coords or len(y) != space.coords:
        raise ValueError("point length mismatch")
    if space.coords > _NUMPY_THRESHOLD:
        prof = _profile_np(space, x, y)
        nz = prof[prof != 0]
        return nz.size == cls.support and bool((nz == cls.delta).all())
    return kernels.is_class_pair(space.coords, space.units, cls.delta, cls.support,
                                 tuple(x), tuple(y))


def build_simplex(space: ProductCycleSpace, scls: SimplexClass) -> DoubleSimplex:
    """Construct a class double simplex on three coordinate groups.

    Two lead groups of size support*families/2; the first is split into
    `families` subgroups of size support/2 carrying 2*delta for the i-th x,
    the second group holds the constant delta; the y's swap the two group
    roles; all remaining coordinates are zero.
    """
    r, s, delta = scls.families, scls.support, scls.delta
    if s % 2 != 0:
        raise ValueError("support must be even for the group construction")
    if space.coords < s * r:
        raise ValueError(
            f"insufficient coordinates: need {s * r}, space has {space.coords}")
    if 4 * delta > space.units:
        raise ValueError(
            f"edge distance 2*{delta} exceeds half of {space.units} units")
    scls.validate_for(space)
    half = s * r // 2
    sub = s // 2
    xs, ys = [], []
    for i in range(r):
        x = [0] * space.coords
        y = [0] * space.coords
        for c in range(half):
            x[c] = 2 * delta if i * sub <= c < (i + 1) * sub else 0
            y[c] = delta
        for c in range(half, 2 * half):
            x[c] = delta
            y[c] = 2 * delta if half + i * sub <= c < half + (i + 1) * sub else 0
        xs.append(tuple(x))
        ys.append(tuple(y))
    return DoubleSimplex(tuple(xs), tuple(ys))


def is_simplex(space: ProductCycleSpace, ds: DoubleSimplex, scls: SimplexClass) -> bool:
    """True iff all within-family pairs are edge-class and all cross pairs
    connecting-class for this simplex class."""
    if ds.r != scls.families:
        return False
    edge, conn = scls.edge_class(), scls.conn_class()
    for fam in (ds.xs, ds.ys):
        for a, b in itertools.combinations(fam, 2):
            if not is_pair(space, a, b, edge):
                return False
    for a in ds.xs:
        for b in ds.ys:
            if not is_pair(space, a, b, conn):
                return False
    return True


def transport_pair(space: ProductCycleSpace, pair_a: tuple, pair_b: tuple,
                   cls: PairClass) -> Isometry:
    """Isometry of the whole space mapping class pair A onto class pair B.

    Coordinates permute so differing positions map to differing positions in
    sorted order; each coordinate then rotates, with a reflection where the
    two pairs disagree on orientation.
    """
    x, y = pair_a
    u, v = pair_b
    for pt in (x, y, u, v):
        space.check_point(pt)
    if not is_pair(space, x, y, cls):
        raise ValueError("first pair is not in the class")
    if not is_pair(space, u, v, cls):
        raise ValueError("second pair is not in the class")
    units = space.units
    diff_a = [c for c in range(space.coords) if x[c] != y[c]]
    agree_a = [c for c in range(space.coords) if x[c] == y[c]]
    diff_b = [c for c in range(space.coords) if u[c] != v[c]]
    agree_b = [c for c in range(space.coords) if u[c] == v[c]]
    perm = [0] * space.coords
    rot = [0] * space.coords
    reflect = [False] * space.coords
    for slot, src in zip(agree_b, agree_a):
        perm[slot] = src
        rot[slot] = (u[slot] - x[src]) % units
    for slot, src in zip(diff_b, diff_a):
        orient_a = (y[src] - x[src]) % units == cls.delta
        orient_b = (v[slot] - u[slot]) % units == cls.delta
        perm[slot] = src
        reflect[slot] = orient_a != orient_b
        base = -x[src] if reflect[slot] else x[src]
        rot[slot] = (u[slot] - base) % units
    iso = Isometry(tuple(perm), tuple(rot), tuple(reflect), units)
    if iso.apply(x) != tuple(u) or iso.apply(y) != tuple(v):
        raise AssertionError("transport recipe failed to map the pair")
    return iso


# ---------------------------------------------------------------------------
# counting

def count_pairs_closed(space: ProductCycleSpace, cls: PairClass) -> int:
    """Closed-form class size: binom(C, s) * U^(C-s) * (U*w)^s / 2 with the
    orientation weight w = 2 below the antipode and 1 at it."""
    cls.validate_for(space)
    c, u, s = space.coords, space.units, cls.support
    w = cls.orientations(space)
    ordered = math.comb(c, s) * u ** (c - s) * (u * w) ** s
    return ordered // 2


def enumerate_pairs(space: ProductCycleSpace, cls: PairClass,
                    budget: int | None = 1_000_000) -> Iterator[tuple[CyclePoint, CyclePoint]]:
    """Yield every unordered class pair exactly once, deterministic order.

    Raises BudgetExceeded up front when the closed-form count is over budget.
    """
    cls.validate_for(space)
    total = count_pairs_closed(space, cls)
    if budget is not None and total > budget:
        raise BudgetExceeded(
            f"class holds {total} pairs, budget {budget}", required=total)
    c, u = space.coords, space.units
    delta, s = cls.delta, cls.support
    offs = (delta,) if 2 * delta == u else (delta, u - delta)

    def generate():
        for combo in itertools.combinations(range(c), s):
            rest = [i for i in range(c) if i not in combo]
            for shared in itertools.product(range(u), repeat=c - s):
                base = [0] * c
                for i, val in zip(rest, shared):
                    base[i] = val
                for xs_vals in itertools.product(range(u), repeat=s):
                    for i, val in zip(combo, xs_vals):
                        base[i] = val
                    tx = tuple(base)
                    for signs in itertools.product(offs, repeat=s):
                        y = list(tx)
                        for i, off in zip(combo, signs):
                            y[i] = (y[i] + off) % u
                        ty = tuple(y)
                        if tx < ty:
                            yield tx, ty

    return generate()


@dataclass(frozen=True)
class SparsePairBatch:
    """Class pairs, differing coordinates only.

    Agreeing coordinates are never materialized: every bundled map is
    invariant to them (they contribute zero to any per-coordinate image
    factor), so a map that depends on them cannot be evaluated on a batch.
    """

    space: ProductCycleSpace
    cls: PairClass
    supports: np.ndarray  # (k, s) coordinate indices
    x_vals: np.ndarray    # (k, s) residues
    y_vals: np.ndarray    # (k, s) residues

    @property
    def count(self) -> int:
        return self.supports.shape[0]


def sample_pairs_sparse(space: ProductCycleSpace, cls: PairClass, k: int,
                        rng: np.random.Generator) -> SparsePairBatch:
    """Uniform class sample: support uniform over coordinate subsets, shared
    values uniform (omitted), x-values uniform, orientation uniform over the
    w directions. Uniformity over the class follows by direct counting.

    No report draws pairs: Monte Carlo averages read a map's declared
    `class_distance`. This is the reference sampler that `class_distance`
    is checked against on classes too large to enumerate."""
    import numpy as np

    cls.validate_for(space)
    c, u, s = space.coords, space.units, cls.support
    supports = np.empty((k, s), dtype=np.int64)
    for i in range(k):
        supports[i] = np.sort(rng.choice(c, size=s, replace=False))
    x_vals = rng.integers(0, u, size=(k, s), dtype=np.int64)
    if cls.orientations(space) == 2:
        signs = rng.integers(0, 2, size=(k, s), dtype=np.int64) * 2 - 1
    else:
        signs = np.ones((k, s), dtype=np.int64)
    y_vals = (x_vals + signs * cls.delta) % u
    return SparsePairBatch(space, cls, supports, x_vals, y_vals)


def canonical_class_pair(space: ProductCycleSpace, cls: PairClass,
                         index: int = 0) -> tuple[CyclePoint, CyclePoint]:
    """Deterministic class pairs for anchored counting; index 0 is the
    lexicographically smallest (zero point, partner with late support).
    Distinct indices give distinct pairs (translated base points)."""
    cls.validate_for(space)
    c, s, u = space.coords, cls.support, space.units
    x = tuple((index * (i + 1)) % u for i in range(c))
    y = list(x)
    for i in range(c - s, c):
        y[i] = (y[i] + cls.delta) % u
    return x, tuple(y)


@dataclass(frozen=True)
class IncidenceCounts:
    """Simplex/pair incidence census; both double-counting identities are
    enforced at construction."""

    delta: int
    support: int
    families: int
    n_edge_class: int
    n_conn_class: int
    k_count: int
    l_count: int
    s_count: int

    def __post_init__(self):
        r = self.families
        if self.s_count * r * (r - 1) != self.n_edge_class * self.k_count:
            raise ArithmeticError("edge double-counting identity failed")
        if self.s_count * r * r != self.n_conn_class * self.l_count:
            raise ArithmeticError("connecting double-counting identity failed")

    def ratio_identity_holds(self) -> bool:
        """L/K = (r/(r-1)) * N_edge/N_conn, as exact rationals."""
        r = self.families
        return (Fraction(self.l_count, self.k_count) ==
                Fraction(r, r - 1) * Fraction(self.n_edge_class, self.n_conn_class))


def completion_counts(space: ProductCycleSpace, scls: SimplexClass,
                      pair: tuple, role_edge: bool,
                      budget: int | None = None) -> int:
    """Simplices containing `pair` as a within-family edge (role_edge) or as
    a connecting line. The count is pair-independent within a class; its
    DP raises BudgetExceeded past `budget` column transitions."""
    cls = scls.edge_class() if role_edge else scls.conn_class()
    a, b = pair
    if not is_pair(space, a, b, cls):
        raise ValueError("anchored pair is not in the required class")
    return kernels.completion_count(space.coords, space.units, scls.delta,
                                    scls.support, scls.families,
                                    tuple(a), tuple(b), role_edge, budget)


def count_incidences(space: ProductCycleSpace, scls: SimplexClass,
                     budget: int | None = 10 ** 8) -> IncidenceCounts:
    """Exact incidence census for a simplex class.

    S counts class simplices with the family swap identified; K and L anchor
    the lexicographically smallest class pairs. All three come from the
    coordinate-column DP; K and L are counted with their own anchors, not
    derived from S, so the double-counting identities stay checks. Each of
    the three DPs raises BudgetExceeded before its column transitions
    pass `budget`.
    """
    scls.validate_for(space)
    edge, conn = scls.edge_class(), scls.conn_class()
    n_edge = count_pairs_closed(space, edge)
    n_conn = count_pairs_closed(space, conn)
    r = scls.families
    s_count = kernels.simplex_count(space.coords, space.units,
                                    scls.delta, scls.support, r, budget)
    k_count = completion_counts(space, scls, canonical_class_pair(space, edge),
                                True, budget)
    l_count = completion_counts(space, scls, canonical_class_pair(space, conn),
                                False, budget)
    return IncidenceCounts(scls.delta, scls.support, r,
                           n_edge, n_conn, k_count, l_count, s_count)
