"""Cayley graphs of integer lattices with jump generators.

The generator families pair unit moves with jumps of size J on each
coordinate. The merged family {0, +-1, +-J}^dim lets one step mix units
and jumps across coordinates, and its word metric matches the sup of
per-coordinate costs; the literal family (all-jump or all-unit steps)
does not. `FamilyGenerators.distance` gives either word metric in closed
form on Python integers, exact at any size, cross-checked against BFS in
tests.

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
import operator
from typing import Iterable, Sequence, Union

from . import DoubleSimplex, Record

GroupVector = tuple[int, ...]

ENUM_LIMIT = 300_000
# generator sums v + g that one `bfs_ball` search may take
SUM_LIMIT = 3_000_000


def _check_vector(v: Sequence[int], dim: int) -> GroupVector:
    vec = tuple(int(x) for x in v)
    if len(vec) != dim:
        raise ValueError(f"vector has length {len(vec)}, expected {dim}")
    return vec


def _merged_cost(a: int, jump: int) -> int:
    """min over b >= 0 of b + |a - jump*b|: the cost is piecewise linear
    in b, so b = a // jump or the next one is optimal."""
    q, r = divmod(a, jump)
    return min(q + r, q + 1 + jump - r)


def _residual(a: int, jump: int, k: int) -> int:
    """The units a >= 0 still needs after k jump steps, min over b <= k of
    |a - jump*b|."""
    q, r = divmod(a, jump)
    return a - jump * k if k <= q else min(r, jump - r)


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

    def distance(self, w: Sequence[int]) -> int:
        """Word distance from 0 to w. merged: one step moves every
        coordinate on its own, so it is the max of `_merged_cost`. literal:
        each step is all-jump or all-unit, so it is min over k jump steps of
        k + max_c `_residual`. From any k outside {0} and {q_c, q_c + 1},
        one step toward them costs no more, so those k suffice."""
        a = [abs(x) for x in _check_vector(w, self.dim)]
        j = self.jump
        if self.variant == "merged":
            return max(_merged_cost(x, j) for x in a)
        ks = {0}.union(*((x // j, x // j + 1) for x in a))
        return min(k + max(_residual(x, j, k) for x in a) for k in ks)

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
        # with jump >= 2 the two entry sets share only the zero vector
        for entries in ((-j, 0, j), (-1, 0, 1)):
            for vec in itertools.product(entries, repeat=self.dim):
                if any(vec):
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
    if dim < 1:
        raise ValueError("dim must be positive")
    vecs = []
    for i in range(dim):
        e = [0] * dim
        e[i] = 1
        vecs.append(tuple(e))
        e[i] = -1
        vecs.append(tuple(e))
    return ExplicitGenerators.make(dim, vecs)


def bfs_ball(gens: Iterable[Sequence[int]], radius: int) -> dict:
    """Distances from the origin out to the radius. Returns {vector:
    distance}; each depth holds the sums v + g over the last depth and the
    generators that no earlier depth reached, in sorted order. A search
    whose sums would pass SUM_LIMIT is refused before the depth that
    would pass it."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    moves = [tuple(map(int, g)) for g in gens]
    if not moves or any(len(g) != len(moves[0]) for g in moves):
        raise ValueError("need a nonempty list of generator vectors")
    dist = {(0,) * len(moves[0]): 0}
    frontier = list(dist)
    sums = 0
    for depth in range(1, radius + 1):
        sums += len(frontier) * len(moves)
        if sums > SUM_LIMIT:
            raise ValueError(
                f"ball of radius {radius} needs {sums} generator sums by "
                f"depth {depth}, over the limit of {SUM_LIMIT}")
        frontier = sorted({tuple(map(operator.add, v, g))
                           for v in frontier for g in moves} - dist.keys())
        if not frontier:
            break
        dist.update(dict.fromkeys(frontier, depth))
    return dist


class MStarReport(Record):
    __slots__ = ("n", "variant", "support", "values_scanned",
                 "mismatch_count", "mismatches", "max_word_distance")

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0

    def fields(self) -> dict:
        covers = ("every pair" if self.support == 1 else
                  f"pairs whose difference has at most {self.support} "
                  "nonzero coordinates")
        return {**super().fields(), "covers": covers, "ok": self.ok}


def verify_mstar_isometry(n: int, variant: str = "merged") -> MStarReport:
    """Compare the cyclic sup metric of (Z_P)^P, P = n^n, with the word
    metric of the chosen family with jump P - 1, by the coordinate scan in
    the module docstring: the P values of |w_0| for merged, the P^2
    patterns (|w_0|, |w_1|) for literal. Below P every a // J is at most
    1 and k = 2 jump steps shed nothing more than k = 1, so a literal
    pattern costs min(max(a, b), 1 + max(R(a), R(b))), R = `_residual` at
    k = 1. Mismatches list the first 20 patterns in lexicographic order. A
    scan of more than ENUM_LIMIT patterns is refused before any of it."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    support = 1 if variant == "merged" else 2
    period = n ** n
    jump = FamilyGenerators(support, period - 1, variant).jump
    size = period ** support
    if size > ENUM_LIMIT:
        raise ValueError(
            f"{variant} scan of {size} difference patterns at n = {n} "
            f"exceeds the limit of {ENUM_LIMIT}")
    values = range(period)
    cyc = [min(a, period - a) for a in values]
    if support == 1:
        scan = (((a,), _merged_cost(a, jump), cyc[a]) for a in values)
    else:
        res = [_residual(a, jump, 1) for a in values]
        scan = (((a, b), min(max(a, b), 1 + max(res[a], res[b])),
                 max(cyc[a], cyc[b])) for a in values for b in values)
    mism, count, top = [], 0, 0
    for diff, word, cyclic in scan:
        top = max(top, word)
        if word != cyclic:
            count += 1
            if count <= 20:
                mism.append({"abs_diff": list(diff), "cyclic": cyclic,
                             "word": word})
    return MStarReport(n, variant, support, size, count, mism, top)


def projection_generators(dims: Sequence[int], jumps: Sequence[int],
                          variant: str) -> list[GroupVector]:
    """Each block's jump family, padded with zeros into the whole group,
    plus the global unit moves; sorted and deduplicated."""
    if len(dims) != len(jumps):
        raise ValueError("dims and jumps must pair up")
    total = sum(dims)
    if (units := 3 ** total - 1) > ENUM_LIMIT:
        raise ValueError(
            f"{units} unit moves on {total} coordinates are too many to list")
    out = set()
    offset = 0
    for d, j in zip(dims, jumps):
        before, after = (0,) * offset, (0,) * (total - offset - d)
        out.update(before + g + after
                   for g in FamilyGenerators(d, j, variant).enumerate())
        offset += d
    for unit_vec in itertools.product((-1, 0, 1), repeat=total):
        if any(unit_vec):
            out.add(unit_vec)
    return sorted(out)


class ProjectionReport(Record):
    __slots__ = ("dims", "jumps", "variant", "radius", "states_full",
                 "block_reports", "mismatch_count", "mismatches")

    @property
    def ok(self) -> bool:
        return self.mismatch_count == 0

    def fields(self) -> dict:
        fields = super().fields()
        fields["blocks"] = fields.pop("block_reports")
        return {**fields, "ok": self.ok}


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


class CayleyRoundnessReport(Record):
    __slots__ = ("g", "h", "edges", "conns", "critical_p", "gap_at_2",
                 "witness", "canonical")

    def fields(self) -> dict:
        fields = super().fields()
        fields["edge_distances"] = fields.pop("edges")
        fields["conn_distances"] = fields.pop("conns")
        fields["statement"] = ("roundness of the Cayley graph is at most "
                               "critical_p")
        return fields


def cayley_roundness_upper(gens: GeneratorSet, g: Sequence[int],
                           h: Sequence[int]) -> CayleyRoundnessReport:
    """Upper bound from the diagonal configuration {0, g+h} vs {g, h}.

    Needs g, h generators with g+h and g-h outside the set (and g != -h,
    g != h); then both family sides sit at distance 2 while the four
    connecting distances are 1, so exponents above 1 violate the
    roundness inequality: 2 * 2^p > 4 * 1^p exactly when p > 1.
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
    # every set here is symmetric, so 0, g, g+h, h is a 4-cycle with sides 1;
    # g+h and g-h are nonzero non-generators, so both diagonals are 2
    zero = tuple([0] * dim)
    witness = DoubleSimplex((zero, gh), (g, h))
    return CayleyRoundnessReport(g, h, (2, 2), (1, 1, 1, 1), 1.0, -4.0,
                                 witness, True)
