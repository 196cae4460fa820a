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
import operator
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from . import DoubleSimplex, Record

if TYPE_CHECKING:
    import numpy as np

GroupVector = tuple[int, ...]

ENUM_LIMIT = 300_000
# generator sums v + g that one `bfs_ball` search may take
SUM_LIMIT = 3_000_000


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


def family_word_distances(diffs: np.ndarray, jump: int, variant: str) -> np.ndarray:
    """Exact word distances for a batch of difference vectors.

    merged: one step sets every coordinate independently, so the distance
    is the max over coordinates of min_b (|b| + |w - jump*b|). literal:
    each step is all-jump or all-unit; with k2 jump steps coordinate c can
    shed min_{|b| <= k2} |w_c - jump*b| to units, so the distance is
    min over k2 of (k2 + max_c residual_c(k2)).
    """
    import numpy as np

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
    patterns (|w_0|, |w_1|) for literal. Mismatches list the first 20
    patterns in lexicographic order. A scan of more than ENUM_LIMIT
    patterns is refused before anything is allocated."""
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if variant not in ("merged", "literal"):
        raise ValueError(f"unknown variant {variant!r}")
    support = 1 if variant == "merged" else 2
    period = n ** n
    size = period ** support
    if size > ENUM_LIMIT:
        raise ValueError(
            f"{variant} scan of {size} difference patterns at n = {n} "
            f"exceeds the limit of {ENUM_LIMIT}")
    import numpy as np

    patterns = np.indices((period,) * support).reshape(support, -1).T
    word = family_word_distances(patterns, period - 1, variant)
    cyc = np.minimum(patterns, period - patterns).max(axis=1)
    bad = np.nonzero(word != cyc)[0]
    mism = [{"abs_diff": patterns[k].tolist(), "cyclic": int(cyc[k]),
             "word": int(word[k])} for k in bad[:20]]
    return MStarReport(n, variant, support, size, len(bad), mism,
                       int(word.max()))


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
