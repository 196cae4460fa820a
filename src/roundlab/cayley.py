"""Cayley graphs of integer lattices with jump generators.

The generator families pair unit moves with jumps of size J on each
coordinate. The merged family {0, +-1, +-J}^dim lets one step mix units
and jumps across coordinates, and its word metric matches the sup of
per-coordinate costs; the literal family (all-jump or all-unit steps)
does not. Word distances come from an exact per-coordinate exchange
argument, cross-checked against BFS in tests.

`verify_mstar_isometry` compares the word metric with the cyclic sup
metric of (Z_P)^C, P = C = n^n and J = P - 1, by scanning coordinate
values instead of point pairs. Both metrics see a pair only through its
difference w = v - u, whose coordinates lie in -(P-1)..P-1, and only
through the values |w_c|, in any order, with zero coordinates costing 0.
- merged: the word distance is max_c phi(|w_c|), phi(a) = min_b
  (b + |a - J*b|), and the cyclic one is max_c psi(|w_c|), psi(a) =
  min(a, P - a). If phi = psi on a = 0..P-1, the two maxima agree on
  every pair; if phi(a) != psi(a), the pair u = (1, ..., 1), v = u + a*e_1
  tells them apart. So the P-value scan is a proof for all P^(2C) pairs.
- literal: the word distance min_k (k + max_c min_{b <= k} |a_c - J*b|)
  is not a max of per-coordinate terms, so no one-coordinate scan decides
  it. The check scans the P^2 patterns (|w_0|, |w_1|): each mismatch
  there is a real pair, but a clean scan says nothing about pairs whose
  difference has wider support.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import Record
from .cycles import DoubleSimplex

GroupVector = tuple[int, ...]

ENUM_LIMIT = 300_000


class CutoffExceeded(Exception):
    def __init__(self, message: str, lower_bound: int):
        super().__init__(message)
        self.lower_bound = lower_bound


def _check_vector(v: Sequence[int], dim: int) -> GroupVector:
    vec = tuple(int(x) for x in v)
    if len(vec) != dim:
        raise ValueError(f"vector has length {len(vec)}, expected {dim}")
    return vec


class FamilyGenerators(Record):
    """Structured symmetric generator family on Z^dim.

    literal: nonzero vectors with entries all in {0, +-jump} or all in
    {0, +-1}. merged: nonzero vectors with entries in {0, +-1, +-jump}.
    """

    __slots__ = ("dim", "jump", "variant")

    def __init__(self, dim: int, jump: int, variant: str = "merged"):
        if dim < 1:
            raise ValueError("dim must be positive")
        if jump < 2:
            raise ValueError("jump must be at least 2")
        if variant not in ("literal", "merged"):
            raise ValueError(f"unknown variant {variant!r}")
        self.dim = dim
        self.jump = jump
        self.variant = variant

    def contains(self, v: Sequence[int]) -> bool:
        vec = _check_vector(v, self.dim)
        if not any(vec):
            return False
        j = self.jump
        if self.variant == "merged":
            return all(abs(x) in (0, 1, j) for x in vec)
        return (all(abs(x) in (0, j) for x in vec)
                or all(abs(x) in (0, 1) for x in vec))

    def count(self) -> int:
        if self.variant == "merged":
            return 5 ** self.dim - 1
        return (3 ** self.dim - 1) * 2

    def enumerate(self) -> list[GroupVector]:
        if self.count() > ENUM_LIMIT:
            raise ValueError(
                f"family of {self.count()} generators is too large to list")
        out = []
        j = self.jump
        if self.variant == "merged":
            for vec in itertools.product((-j, -1, 0, 1, j), repeat=self.dim):
                if any(vec):
                    out.append(vec)
            return out
        seen = set()
        for entries in ((-j, 0, j), (-1, 0, 1)):
            for vec in itertools.product(entries, repeat=self.dim):
                if any(vec) and vec not in seen:
                    seen.add(vec)
                    out.append(vec)
        return out


class ExplicitGenerators(Record):
    """Explicit symmetric set of nonzero vectors."""

    __slots__ = ("dim", "vectors")

    def __init__(self, dim: int, vectors: frozenset):
        for v in vectors:
            vec = _check_vector(v, dim)
            if not any(vec):
                raise ValueError("generators must be nonzero")
            if tuple(-x for x in vec) not in vectors:
                raise ValueError(f"{vec} present without its inverse")
        self.dim = dim
        self.vectors = vectors

    @classmethod
    def make(cls, dim: int, vectors: Iterable[Sequence[int]]) -> "ExplicitGenerators":
        return cls(dim, frozenset(_check_vector(v, dim) for v in vectors))

    def contains(self, v: Sequence[int]) -> bool:
        return _check_vector(v, self.dim) in self.vectors

    def count(self) -> int:
        return len(self.vectors)

    def enumerate(self) -> list[GroupVector]:
        return sorted(self.vectors)


GeneratorSet = Union[FamilyGenerators, ExplicitGenerators]


def standard_basis_generators(dim: int) -> ExplicitGenerators:
    vecs = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        vecs.append(tuple(e))
        e[i] = -1
        vecs.append(tuple(e))
    return ExplicitGenerators.make(dim, vecs)


def family_word_distances(diffs: np.ndarray, jump: int, variant: str) -> np.ndarray:
    """Exact word distances for a batch of difference vectors.

    merged: one step sets every coordinate independently, so the distance
    is the max over coordinates of min_b (|b| + |w - jump*b|). literal:
    each step is all-jump or all-unit; with k2 jump steps coordinate c can
    shed min_{|b| <= k2} |w_c - jump*b| to units, so the distance is
    min over k2 of (k2 + max_c residual_c(k2)).
    """
    a = np.abs(np.asarray(diffs, dtype=np.int64))
    if a.ndim != 2:
        raise ValueError("diffs must be a 2d batch")
    if a.size == 0:
        return np.zeros(a.shape[0], dtype=np.int64)
    bmax = int(a.max()) // jump + 1
    if variant == "merged":
        cost = a.copy()
        for b in range(1, bmax + 1):
            cost = np.minimum(cost, b + np.abs(a - b * jump))
        return cost.max(axis=1)
    if variant != "literal":
        raise ValueError(f"unknown variant {variant!r}")
    residual = a.copy()
    best = residual.max(axis=1)
    for k2 in range(1, bmax + 1):
        residual = np.minimum(residual, np.abs(a - k2 * jump))
        best = np.minimum(best, k2 + residual.max(axis=1))
    return best


def _bfs_distance(target: GroupVector, gens: ExplicitGenerators,
                  cutoff: int) -> Optional[int]:
    if not any(target):
        return 0
    dim = gens.dim
    moves = gens.enumerate()
    zero = tuple([0] * dim)
    seen = {zero}
    frontier = [zero]
    for depth in range(1, cutoff + 1):
        nxt = []
        for v in frontier:
            for m in moves:
                w = tuple(a + b for a, b in zip(v, m))
                if w == target:
                    return depth
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
        if not frontier:
            break
    return None


def word_distance(u: Sequence[int], v: Sequence[int], gens: GeneratorSet,
                  cutoff: Optional[int] = None) -> int:
    """Cayley distance between u and v; translation-invariant, so only the
    difference matters. Family sets solve exactly; explicit sets BFS under
    a cutoff (default 16) and raise CutoffExceeded with the best lower
    bound known when the search space runs out."""
    diff = tuple(b - a for a, b in zip(_check_vector(u, gens.dim),
                                       _check_vector(v, gens.dim)))
    if isinstance(gens, FamilyGenerators):
        d = int(family_word_distances(
            np.array([diff], dtype=np.int64), gens.jump, gens.variant)[0])
        if cutoff is not None and d > cutoff:
            raise CutoffExceeded(
                f"distance {d} exceeds cutoff {cutoff}", lower_bound=d)
        return d
    cut = 16 if cutoff is None else cutoff
    d = _bfs_distance(diff, gens, cut)
    if d is None:
        raise CutoffExceeded(
            f"no word of length <= {cut} reaches {diff}", lower_bound=cut + 1)
    return d


def bfs_ball(gens: Iterable[Sequence[int]], radius: int) -> dict:
    """Distances from the origin out to the radius, frontier-expanded in
    numpy chunks. Returns {vector: distance}."""
    moves = np.asarray(list(gens), dtype=np.int64)
    if moves.ndim != 2 or moves.shape[0] == 0:
        raise ValueError("need a nonempty list of generator vectors")
    dim = moves.shape[1]
    zero = tuple([0] * dim)
    dist = {zero: 0}
    frontier = np.zeros((1, dim), dtype=np.int64)
    chunk_rows = max(1, 2_000_000 // moves.shape[0])
    for depth in range(1, radius + 1):
        pieces = []
        for lo in range(0, frontier.shape[0], chunk_rows):
            part = frontier[lo:lo + chunk_rows]
            cand = (part[:, None, :] + moves[None, :, :]).reshape(-1, dim)
            pieces.append(np.unique(cand, axis=0))
        cand = np.unique(np.concatenate(pieces), axis=0)
        fresh = []
        for row in cand.tolist():
            t = tuple(row)
            if t not in dist:
                dist[t] = depth
                fresh.append(t)
        if not fresh:
            break
        frontier = np.asarray(fresh, dtype=np.int64)
    return dist


class MStarSpace(Record):
    """Product of n^n cycles of length n^n with 1-based residues; distances
    are the sup of cyclic coordinate distances, in whole quanta."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 2 or n % 2:
            raise ValueError("n must be even and >= 2")
        self.n = n

    @property
    def coords(self) -> int:
        return self.n ** self.n

    @property
    def period(self) -> int:
        return self.n ** self.n

    @property
    def jump(self) -> int:
        return self.period - 1

    def check_point(self, u: Sequence[int]) -> GroupVector:
        vec = _check_vector(u, self.coords)
        for x in vec:
            if not (1 <= x <= self.period):
                raise ValueError(f"residue {x} outside 1..{self.period}")
        return vec

    def distance(self, u: Sequence[int], v: Sequence[int]) -> int:
        uu, vv = self.check_point(u), self.check_point(v)
        p = self.period
        best = 0
        for a, b in zip(uu, vv):
            d = abs(a - b)
            best = max(best, min(d, p - d))
        return best


class MStarReport:
    __slots__ = ("n", "variant", "support", "values_scanned",
                 "mismatch_count", "mismatches", "max_word_distance")

    def __init__(self, n: int, variant: str, support: int,
                 values_scanned: int, mismatch_count: int, mismatches: list,
                 max_word_distance: int):
        self.n = n
        self.variant = variant
        self.support = support
        self.values_scanned = values_scanned
        self.mismatch_count = mismatch_count
        self.mismatches = mismatches
        self.max_word_distance = max_word_distance

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0

    def to_dict(self) -> dict:
        covers = ("every pair" if self.support == 1 else
                  f"pairs whose difference has at most {self.support} "
                  "nonzero coordinates")
        return {
            "n": self.n,
            "variant": self.variant,
            "support": self.support,
            "values_scanned": self.values_scanned,
            "covers": covers,
            "mismatch_count": self.mismatch_count,
            "mismatches": self.mismatches,
            "max_word_distance": self.max_word_distance,
            "ok": self.ok,
        }


def verify_mstar_isometry(n: int, variant: str = "merged") -> MStarReport:
    """Compare the cyclic sup metric of MStarSpace(n) with the word metric
    of the chosen family by the coordinate scan in the module docstring:
    the P values of |w_0| for merged, the P^2 patterns (|w_0|, |w_1|) for
    literal. Mismatches list the first 20 patterns in lexicographic order.
    A scan of more than ENUM_LIMIT patterns is refused before anything is
    allocated."""
    space = MStarSpace(n)
    if variant not in ("merged", "literal"):
        raise ValueError(f"unknown variant {variant!r}")
    support = 1 if variant == "merged" else 2
    period = space.period
    size = period ** support
    if size > ENUM_LIMIT:
        raise ValueError(
            f"{variant} scan of {size} difference patterns at n = {n} "
            f"exceeds the limit of {ENUM_LIMIT}")
    patterns = np.indices((period,) * support).reshape(support, -1).T
    word = family_word_distances(patterns, space.jump, variant)
    cyc = np.minimum(patterns, period - patterns).max(axis=1)
    bad = np.nonzero(word != cyc)[0]
    mism = [{"abs_diff": patterns[k].tolist(), "cyclic": int(cyc[k]),
             "word": int(word[k])} for k in bad[:20]]
    return MStarReport(n, variant, support, size, len(bad), mism,
                       int(word.max()))


def projection_generators(dims: Sequence[int], jumps: Sequence[int],
                          variant: str) -> list[GroupVector]:
    """Per-block jump families plus global unit moves, deduplicated."""
    if len(dims) != len(jumps):
        raise ValueError("dims and jumps must pair up")
    total = sum(dims)
    out = set()
    offset = 0
    for d, j in zip(dims, jumps):
        if variant == "literal":
            entries = (-j, 0, j)
        elif variant == "merged":
            entries = (-j, -1, 0, 1, j)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        for block_vec in itertools.product(entries, repeat=d):
            if any(block_vec):
                full = [0] * total
                full[offset:offset + d] = block_vec
                out.add(tuple(full))
        offset += d
    for unit_vec in itertools.product((-1, 0, 1), repeat=total):
        if any(unit_vec):
            out.add(unit_vec)
    return sorted(out)


class ProjectionReport:
    __slots__ = ("dims", "jumps", "variant", "radius", "states_full",
                 "block_reports", "mismatch_count", "mismatches")

    def __init__(self, dims: tuple, jumps: tuple, variant: str, radius: int,
                 states_full: int, block_reports: list, mismatch_count: int,
                 mismatches: list):
        self.dims = dims
        self.jumps = jumps
        self.variant = variant
        self.radius = radius
        self.states_full = states_full
        self.block_reports = block_reports
        self.mismatch_count = mismatch_count
        self.mismatches = mismatches

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "jumps": list(self.jumps),
            "variant": self.variant,
            "radius": self.radius,
            "states_full": self.states_full,
            "blocks": self.block_reports,
            "mismatch_count": self.mismatch_count,
            "mismatches": self.mismatches,
            "ok": self.ok,
        }


def block_projection_check(dims: Sequence[int] = (2, 2),
                           jumps: Sequence[int] = (3, 8),
                           radius: int = 3,
                           variant: str = "literal") -> ProjectionReport:
    """States supported in one block must sit at the same distance in the
    full group as in the block's own Cayley graph, both ways around."""
    dims = tuple(dims)
    jumps = tuple(jumps)
    total = sum(dims)
    full_gens = projection_generators(dims, jumps, variant)
    full = bfs_ball(full_gens, radius)
    mismatches = []
    blocks = []
    offset = 0
    for bi, (d, j) in enumerate(zip(dims, jumps)):
        inside = list(range(offset, offset + d))
        outside = [c for c in range(total) if c not in inside]
        block_gens = [g for g in full_gens
                      if all(g[c] == 0 for c in outside)]
        block_ball = bfs_ball(block_gens, radius)
        checked = 0
        for state, dist in full.items():
            if any(state[c] for c in outside):
                continue
            checked += 1
            bd = block_ball.get(state)
            if bd != dist:
                mismatches.append({
                    "block": bi, "state": list(state),
                    "full": dist, "block_only": bd,
                })
        for state, dist in block_ball.items():
            fd = full.get(state)
            if fd != dist:
                mismatches.append({
                    "block": bi, "state": list(state),
                    "full": fd, "block_only": dist,
                })
        blocks.append({
            "block": bi,
            "generators": len(block_gens),
            "states": len(block_ball),
            "states_checked_in_full": checked,
        })
        offset += d
    return ProjectionReport(dims, jumps, variant, radius, len(full),
                            blocks, len(mismatches), mismatches[:20])


class CayleyRoundnessReport:
    __slots__ = ("g", "h", "edges", "conns", "critical_p", "gap_at_2",
                 "witness", "canonical")

    def __init__(self, g: GroupVector, h: GroupVector, edges: tuple,
                 conns: tuple, critical_p: float, gap_at_2: float,
                 witness: DoubleSimplex, canonical: bool):
        self.g = g
        self.h = h
        self.edges = edges
        self.conns = conns
        self.critical_p = critical_p
        self.gap_at_2 = gap_at_2
        self.witness = witness
        self.canonical = canonical

    def to_dict(self) -> dict:
        return {
            "g": list(self.g),
            "h": list(self.h),
            "edge_distances": list(self.edges),
            "conn_distances": list(self.conns),
            "critical_p": self.critical_p,
            "gap_at_2": self.gap_at_2,
            "witness": {"xs": [list(x) for x in self.witness.xs],
                        "ys": [list(y) for y in self.witness.ys]},
            "canonical": self.canonical,
            "statement": "roundness of the Cayley graph is at most critical_p",
        }


def _config_gap(edges: Sequence[int], conns: Sequence[int], p: float) -> float:
    rhs = sum(c ** p for c in conns)
    lhs = sum(e ** p for e in edges)
    return rhs - lhs


def cayley_roundness_upper(gens: GeneratorSet, g: Sequence[int],
                           h: Sequence[int], cutoff: int = 8
                           ) -> CayleyRoundnessReport:
    """Upper bound from the diagonal configuration {0, g+h} vs {g, h}.

    Needs g, h generators with g+h and g-h outside the set (and g != -h,
    g != h); then both family sides sit at distance 2 while the four
    connecting distances are 1, so exponents above the critical value
    violate the roundness inequality.
    """
    dim = gens.dim
    g = _check_vector(g, dim)
    h = _check_vector(h, dim)
    if not gens.contains(g):
        raise ValueError("g is not a generator")
    if not gens.contains(h):
        raise ValueError("h is not a generator")
    if g == h:
        raise ValueError("g and h must differ")
    gh = tuple(a + b for a, b in zip(g, h))
    diff = tuple(a - b for a, b in zip(g, h))
    if not any(gh):
        raise ValueError("h must not be the inverse of g")
    if gens.contains(gh):
        raise ValueError("g+h is a generator: the configuration degenerates")
    if gens.contains(diff):
        raise ValueError("g-h is a generator: the configuration degenerates")
    zero = tuple([0] * dim)
    edges = (word_distance(zero, gh, gens, cutoff),
             word_distance(g, h, gens, cutoff))
    conns = (word_distance(zero, g, gens, cutoff),
             word_distance(zero, h, gens, cutoff),
             word_distance(gh, g, gens, cutoff),
             word_distance(gh, h, gens, cutoff))
    canonical = edges == (2, 2) and conns == (1, 1, 1, 1)
    if canonical:
        critical = 1.0
    else:
        lo, hi = 0.0, 64.0
        if _config_gap(edges, conns, lo) < 0:
            critical = 0.0
        else:
            for _ in range(80):
                mid = (lo + hi) / 2
                if _config_gap(edges, conns, mid) < 0:
                    hi = mid
                else:
                    lo = mid
            critical = (lo + hi) / 2
    witness = DoubleSimplex((zero, gh), (g, h))
    return CayleyRoundnessReport(
        g, h, edges, conns, critical,
        _config_gap(edges, conns, 2.0), witness, canonical)
