"""The vocabulary of cyclic-product spaces: spaces, pair and simplex
classes, double simplices, stage-form instances and closed class counts.

Distances live in integer quanta (one cycle step); a space's quantum converts
them to real units. Pair classes (delta, support) collect the point pairs
that differ in exactly `support` coordinates, each by cyclic distance exactly
`delta` quanta. Simplex classes describe double simplices whose edges and
connecting lines fall in prescribed pair classes.

Everything here is plain arithmetic on these descriptions. The census that
enumerates, samples and counts class members is `cyclic`, which re-exports
these names.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

from . import Record

CyclePoint = tuple[int, ...]


def cyclic_distance(units: int, a: int, b: int) -> int:
    """min(|a-b|, units-|a-b|) for residues 0 <= a, b < units."""
    if not (0 <= a < units and 0 <= b < units):
        raise ValueError(f"residues must lie in [0, {units})")
    d = a - b
    if d < 0:
        d = -d
    return d if 2 * d <= units else units - d


class CycleSpace(Record):
    """Discrete circle: residues 0..units-1, distance = shorter arc in quanta."""

    __slots__ = ("units", "quantum")

    def __init__(self, units: int, quantum: Fraction = Fraction(1)):
        if units < 2 or units % 2 != 0:
            raise ValueError("units must be a positive even integer")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.units = units
        self.quantum = quantum

    def distance_quanta(self, a: int, b: int) -> int:
        return cyclic_distance(self.units, a, b)

    def distance(self, a: int, b: int) -> Fraction:
        return self.quantum * self.distance_quanta(a, b)


class ProductCycleSpace(Record):
    """coords independent copies of one cycle under the sup metric."""

    __slots__ = ("coords", "cycle")

    def __init__(self, coords: int, cycle: CycleSpace):
        if coords < 1:
            raise ValueError("coords must be >= 1")
        self.coords = coords
        self.cycle = cycle

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

    def distance_quanta(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sup_distance(self, x, y)

    def distance(self, x: Sequence[int], y: Sequence[int]) -> Fraction:
        return self.quantum * sup_distance(self, x, y)


def sup_distance(space: ProductCycleSpace, x: Sequence[int], y: Sequence[int]) -> int:
    """Maximum of per-coordinate cyclic distances, in quanta."""
    if len(x) != len(y) or len(x) != space.coords:
        raise ValueError("point length mismatch")
    u = space.units
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


class PairClass(Record):
    """Point pairs differing in exactly `support` coords, each by `delta` quanta."""

    __slots__ = ("delta", "support")

    def __init__(self, delta: int, support: int):
        if delta < 1:
            raise ValueError("delta must be >= 1")
        if support < 1:
            raise ValueError("support must be >= 1")
        self.delta = delta
        self.support = support

    def validate_for(self, space: ProductCycleSpace) -> None:
        if 2 * self.delta > space.units:
            raise ValueError(f"delta {self.delta} exceeds half of {space.units} units")
        if self.support > space.coords:
            raise ValueError(f"support {self.support} exceeds {space.coords} coords")

    def orientations(self, space: ProductCycleSpace) -> int:
        """Per-coordinate direction count: 2, or 1 at the antipode."""
        return 1 if 2 * self.delta == space.units else 2


class SimplexClass(Record):
    """Double simplices of `families` points per side: edges are
    (2*delta, support)-pairs, connecting lines (delta, support*families)-pairs."""

    __slots__ = ("delta", "support", "families")

    def __init__(self, delta: int, support: int, families: int):
        if families < 2 or families % 2 != 0:
            raise ValueError("families must be an even integer >= 2")
        if delta < 1 or support < 1:
            raise ValueError("delta and support must be >= 1")
        self.delta = delta
        self.support = support
        self.families = families

    def edge_class(self) -> PairClass:
        return PairClass(2 * self.delta, self.support)

    def conn_class(self) -> PairClass:
        return PairClass(self.delta, self.support * self.families)

    def validate_for(self, space: ProductCycleSpace) -> None:
        self.edge_class().validate_for(space)
        self.conn_class().validate_for(space)


class DoubleSimplex(Record):
    """Two equal-size families of points; repetition permitted."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: tuple, ys: tuple):
        if len(xs) != len(ys):
            raise ValueError("families must have equal size")
        if len(xs) < 2:
            raise ValueError("families must have >= 2 members")
        self.xs = xs
        self.ys = ys

    @property
    def r(self) -> int:
        return len(self.xs)


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
# closed counts

def count_pairs_closed(space: ProductCycleSpace, cls: PairClass) -> int:
    """Closed-form class size: binom(C, s) * U^(C-s) * (U*w)^s / 2 with the
    orientation weight w = 2 below the antipode and 1 at it."""
    cls.validate_for(space)
    c, u, s = space.coords, space.units, cls.support
    w = cls.orientations(space)
    ordered = math.comb(c, s) * u ** (c - s) * (u * w) ** s
    return ordered // 2
