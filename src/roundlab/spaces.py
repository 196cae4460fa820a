"""Ready-made finite spaces and the whitespace CSV interchange format.

File format: first line holds the point count n, then n rows of n
whitespace-separated rationals (`a/b` or plain integers).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .metric import FiniteMetricSpace


def parse_space_text(text: str, checked: bool = True) -> FiniteMetricSpace:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty space file")
    n = int(tokens[0])
    if n < 1:
        raise ValueError("point count must be positive")
    body = tokens[1:]
    if len(body) != n * n:
        raise ValueError(f"expected {n * n} entries, found {len(body)}")
    rows = [[Fraction(body[i * n + j]) for j in range(n)] for i in range(n)]
    if checked:
        return FiniteMetricSpace.from_rows(rows)
    return FiniteMetricSpace.unchecked(rows)


def read_space_csv(path, checked: bool = True) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_space_text(fh.read(), checked=checked)


def space_to_text(space: FiniteMetricSpace) -> str:
    lines = [str(space.size)]
    for row in space.dist:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def write_space_csv(space: FiniteMetricSpace, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(space_to_text(space))


def cycle_graph_space(k: int) -> FiniteMetricSpace:
    """Shortest-path metric on the k-cycle with unit edges."""
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    rows = [[Fraction(min(abs(i - j), k - abs(i - j))) for j in range(k)]
            for i in range(k)]
    return FiniteMetricSpace.from_rows(rows)


def equilateral_space(k: int, d=1) -> FiniteMetricSpace:
    if k < 2:
        raise ValueError("need at least 2 points")
    d = Fraction(d)
    if d <= 0:
        raise ValueError("distance must be positive")
    rows = [[Fraction(0) if i == j else d for j in range(k)] for i in range(k)]
    return FiniteMetricSpace.from_rows(rows)


def two_point_space(d=1) -> FiniteMetricSpace:
    return equilateral_space(2, d)


def path_graph_space(k: int) -> FiniteMetricSpace:
    """Shortest-path metric on the path with k vertices and unit edges."""
    if k < 2:
        raise ValueError("need at least 2 points")
    rows = [[Fraction(abs(i - j)) for j in range(k)] for i in range(k)]
    return FiniteMetricSpace.from_rows(rows)


@dataclass(frozen=True)
class PlanarPoints:
    """Euclidean distances between integer grid points, as floats."""

    coords: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.coords)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"({x},{y})" for x, y in self.coords)

    def distance(self, a: int, b: int) -> float:
        xa, ya = self.coords[a]
        xb, yb = self.coords[b]
        return math.hypot(xa - xb, ya - yb)


def planar_points_space(k: int, seed: int, box: int = 100) -> PlanarPoints:
    """k distinct random lattice points in [0, box]^2, seeded."""
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    if k > (box + 1) ** 2:
        raise ValueError("box too small for k distinct points")
    while len(seen) < k:
        seen.add((rng.randint(0, box), rng.randint(0, box)))
    return PlanarPoints(tuple(sorted(seen)))


def random_rational_metric_space(n: int, seed: int,
                                 weight_max: int = 50,
                                 denominator_max: int = 7) -> FiniteMetricSpace:
    """Shortest paths of a random integer-weighted complete graph, divided by
    a random common denominator. Exact, symmetric, triangle-safe."""
    if n < 2:
        raise ValueError("need at least 2 points")
    rng = random.Random(seed)
    dist = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(1, weight_max)
            dist[i][j] = w
            dist[j][i] = w
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    q = rng.randint(1, denominator_max)
    rows = [[Fraction(dist[i][j], q) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace.from_rows(rows)


def line_space(values: Sequence) -> FiniteMetricSpace:
    """Metric |a - b| on the given distinct rational values."""
    vals = [Fraction(v) for v in values]
    if len(set(vals)) != len(vals):
        raise ValueError("values must be distinct")
    rows = [[abs(a - b) for b in vals] for a in vals]
    return FiniteMetricSpace.from_rows(rows, labels=tuple(str(v) for v in vals))
