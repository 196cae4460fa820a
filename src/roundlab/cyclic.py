"""The census of cyclic-product classes: membership predicates, simplex
construction, isometries between class pairs, pair enumeration, the
reference class-pair sampler and the incidence counts.

The vocabulary these act on (spaces, classes, double simplices, stage-form
instances, closed class counts) lives in `cycles`; this module re-exports
it, so `roundlab.cyclic` names both. The counts run on `kernels`, which
only this module of the two loads.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Iterator, Sequence

from . import BudgetExceeded, Record, kernels
from .cycles import (CyclePoint, CycleSpace, DoubleSimplex,  # noqa: F401
                     PairClass, ProductCycleSpace, SimplexClass,
                     count_pairs_closed, cyclic_distance, stage_delta,
                     stage_pair_class, stage_range_warnings,
                     stage_simplex_class, stage_space, sup_distance)

if TYPE_CHECKING:
    import numpy as np


class Isometry(Record):
    """Sup-metric self-map: out[i] = rot[i] +/- z[perm[i]] (mod units)."""

    __slots__ = ("perm", "rot", "reflect", "units")

    def apply(self, z: Sequence[int]) -> CyclePoint:
        u = self.units
        return tuple(
            (self.rot[i] + (-z[self.perm[i]] if self.reflect[i] else z[self.perm[i]])) % u
            for i in range(len(self.perm))
        )


# ---------------------------------------------------------------------------
# pair and simplex predicates

def is_pair(space: ProductCycleSpace, x: Sequence[int], y: Sequence[int],
            cls: PairClass) -> bool:
    """True iff exactly `support` coords differ, each by exactly `delta` quanta."""
    cls.validate_for(space)
    if len(x) != space.coords or len(y) != space.coords:
        raise ValueError("point length mismatch")
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
        # The two points first differ at the lead coordinate of the
        # support, so x < y exactly when that coordinate grows without
        # wrapping: only those offsets are built there. The x values of a
        # support and their y values are the same for every support set;
        # a point lays out (shared values + support values) by position.
        wrap = [[(v + off) % u for off in offs] for v in range(u)]
        grow = [[v + off for off in offs if v + off < u] for v in range(u)]
        table = []
        for xv in itertools.product(range(u), repeat=s):
            yvs = list(itertools.product(grow[xv[0]],
                                         *(wrap[v] for v in xv[1:])))
            if yvs:
                table.append((xv, yvs))
        for combo in itertools.combinations(range(c), s):
            rest = [i for i in range(c) if i not in combo]
            slot = {i: k for k, i in enumerate(rest + list(combo))}
            # one index makes itemgetter return a bare value
            point = (operator.itemgetter(*(slot[i] for i in range(c)))
                     if c > 1 else tuple)
            for shared in itertools.product(range(u), repeat=c - s):
                for xv, yvs in table:
                    x = point(shared + xv)
                    for yv in yvs:
                        yield x, point(shared + yv)

    return generate()


class SparsePairBatch(Record):
    """Class pairs, differing coordinates only.

    Agreeing coordinates are never materialized: every bundled map is
    invariant to them (they contribute zero to any per-coordinate image
    factor), so a map that depends on them cannot be evaluated on a batch.
    `supports` holds the (k, s) coordinate indices, `x_vals` and `y_vals`
    the (k, s) residues.
    """

    __slots__ = ("space", "cls", "supports", "x_vals", "y_vals")

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


class IncidenceCounts(Record):
    """Simplex/pair incidence census; both double-counting identities are
    enforced at construction."""

    __slots__ = ("delta", "support", "families", "n_edge_class",
                 "n_conn_class", "k_count", "l_count", "s_count")

    def __init__(self, delta: int, support: int, families: int,
                 n_edge_class: int, n_conn_class: int, k_count: int,
                 l_count: int, s_count: int):
        r = families
        if s_count * r * (r - 1) != n_edge_class * k_count:
            raise ArithmeticError("edge double-counting identity failed")
        if s_count * r * r != n_conn_class * l_count:
            raise ArithmeticError("connecting double-counting identity failed")
        self.delta = delta
        self.support = support
        self.families = families
        self.n_edge_class = n_edge_class
        self.n_conn_class = n_conn_class
        self.k_count = k_count
        self.l_count = l_count
        self.s_count = s_count

    def ratio_identity_holds(self) -> bool:
        """L/K = (r/(r-1)) * N_edge/N_conn, cross-multiplied in integers so
        that a class with no double simplex (S = K = L = 0) reads 0 == 0."""
        r = self.families
        return (self.l_count * (r - 1) * self.n_conn_class
                == r * self.k_count * self.n_edge_class)


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
