"""Disjoint unions of cyclic-product blocks under candidate cross distances.

Block n is `cycles.stage_space(n)`: the product of n^n cycles with n^(2n)
units and quantum n^(-n), under the sup metric. Two cross-distance
variants are audited: `literal` uses 4^(m+n) between blocks m and n,
`corrected` uses m^m + n^n. The literal variant breaks the triangle
inequality in two ways (a cheap detour through a small block, and
antipodal pairs inside a large block); the corrected one survives an
exact extremal case analysis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from . import Record
from .cycles import cyclic_distance, stage_space
from .exact import json_int

VARIANTS = ("literal", "corrected")
DENSE_COORD_LIMIT = 4096


def block_diameter(n: int) -> Fraction:
    """Half the units, in real distance: n^n / 2."""
    space = stage_space(n)
    return Fraction(space.units, 2) * space.quantum


def _check_block(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"block size must be even and >= 2, got {n}")


class ZPoint(Record):
    """Point of one block, nonzero residues only.

    Dense blocks are huge (block 8 has 16777216 coordinates), so points
    hold a sparse {coordinate: residue} map; missing coordinates are 0.
    """

    __slots__ = ("block", "residues")

    def __init__(self, block: int, residues: tuple = ()):
        _check_block(block)
        space = stage_space(block)
        c, u = space.coords, space.units
        seen = set()
        for coord, val in residues:
            if not (0 <= coord < c):
                raise ValueError(f"coordinate {coord} out of range")
            if not (0 < val < u):
                raise ValueError(f"residue {val} out of range or zero")
            if coord in seen:
                raise ValueError(f"coordinate {coord} repeated")
            seen.add(coord)
        self.block = block
        self.residues = residues

    @classmethod
    def make(cls, block: int, residues: dict | None = None) -> "ZPoint":
        res = residues or {}
        return cls(block, tuple(sorted((int(k), int(v)) for k, v in res.items()
                                       if int(v) != 0)))

    @classmethod
    def zero(cls, block: int) -> "ZPoint":
        return cls.make(block)

    @classmethod
    def antipode(cls, block: int) -> "ZPoint":
        """Distance-maximizing partner of the zero point (one coordinate at
        half the units already reaches the sup)."""
        return cls.make(block, {0: stage_space(block).units // 2})

    def as_dict(self) -> dict:
        return dict(self.residues)

    def fields(self) -> dict:
        """The form a point serializes to: dense residues up to
        DENSE_COORD_LIMIT coordinates, a sparse {coordinate: residue} map
        above it."""
        c = stage_space(self.block).coords
        if c <= DENSE_COORD_LIMIT:
            dense = [0] * c
            for coord, val in self.residues:
                dense[coord] = val
            return {"block": self.block, "residues": dense}
        return {"block": self.block, "sparse": self.as_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ZPoint":
        """Decode a point; malformed input raises ValueError naming the
        missing key or the bad entry. The block and the residues must be
        integers and sparse coordinates integers or decimal strings:
        nothing is rounded."""
        if not isinstance(data, dict) or "block" not in data:
            raise ValueError("ZPoint lacks 'block'")
        if "residues" not in data and "sparse" not in data:
            raise ValueError("ZPoint lacks 'residues' or 'sparse'")
        block = json_int(data["block"], "ZPoint block")
        _check_block(block)
        try:
            if "residues" in data:
                vals = data["residues"]
                if len(vals) != stage_space(block).coords:
                    raise ValueError("dense residue list has wrong length")
                items = enumerate(vals)
            else:
                items = ((_sparse_coordinate(k), v)
                         for k, v in data["sparse"].items())
            return cls.make(block, {
                k: json_int(v, f"ZPoint residue at coordinate {k}")
                for k, v in items})
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed ZPoint: {exc}") from None


def _sparse_coordinate(key) -> int:
    if isinstance(key, str) and key.isascii() and key.isdigit():
        return int(key)
    return json_int(key, "ZPoint sparse coordinate")


def block_distance(x: ZPoint, y: ZPoint) -> Fraction:
    """Sup metric within a shared block, exact."""
    if x.block != y.block:
        raise ValueError("points live in different blocks")
    space = stage_space(x.block)
    xd, yd = x.as_dict(), y.as_dict()
    best = max((cyclic_distance(space.units, xd.get(c, 0), yd.get(c, 0))
                for c in set(xd) | set(yd)), default=0)
    return best * space.quantum


def cross_distance(m: int, n: int, variant: str) -> Fraction:
    if variant == "literal":
        return Fraction(4 ** (m + n))
    if variant == "corrected":
        return Fraction(m ** m + n ** n)
    raise ValueError(f"unknown variant {variant!r}")


def zeta(x: ZPoint, y: ZPoint, variant: str = "corrected") -> Fraction:
    """Candidate distance on the disjoint union of blocks."""
    if x.block == y.block:
        return block_distance(x, y)
    return cross_distance(x.block, y.block, variant)


class TriangleViolation(Record):
    __slots__ = ("kind", "x", "y", "z", "lhs", "rhs")

    @property
    def slack(self) -> Fraction:
        return self.lhs - self.rhs

    def fields(self) -> dict:
        return {**super().fields(), "slack": self.slack}


def _blocks_up_to(bound: int) -> list[int]:
    if bound < 2:
        raise ValueError("block bound must be at least 2")
    return list(range(2, bound + 1, 2))


def scan_triangle_violations(variant: str, block_bound: int) -> list[TriangleViolation]:
    """Deterministic exact scan of the two ways a detour can undercut zeta.

    Cross-block section first: for block pairs (a, b) in lexicographic
    order, try every detour block c ascending and compare zeta(a,b) against
    zeta(a,c) + zeta(c,b). Then the within-block section: an antipodal pair
    inside block a against a round trip through block c. Same-block detours
    of cross pairs and all-same-block triples can never violate (the within
    metric is genuine and the cross leg reappears on the right), so these
    two sections are exhaustive over witness shapes.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    blocks = _blocks_up_to(block_bound)
    found: list[TriangleViolation] = []
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            lhs = cross_distance(a, b, variant)
            for c in blocks:
                if c in (a, b):
                    continue
                rhs = cross_distance(a, c, variant) + cross_distance(c, b, variant)
                if lhs > rhs:
                    found.append(TriangleViolation(
                        "cross_detour", ZPoint.zero(a), ZPoint.zero(b),
                        ZPoint.zero(c), lhs, rhs))
    for a in blocks:
        lhs = block_diameter(a)
        for c in blocks:
            if c == a:
                continue
            rhs = 2 * cross_distance(a, c, variant)
            if lhs > rhs:
                found.append(TriangleViolation(
                    "within_block_detour", ZPoint.zero(a), ZPoint.antipode(a),
                    ZPoint.zero(c), lhs, rhs))
    return found


def find_triangle_violation(variant: str, block_bound: int) -> Optional[TriangleViolation]:
    hits = scan_triangle_violations(variant, block_bound)
    return hits[0] if hits else None


class CorrectedCertificate(Record):
    __slots__ = ("block_bound", "checked_cases", "violations", "ok")


def certify_corrected(block_bound: int) -> CorrectedCertificate:
    """Exact certificate that the corrected zeta satisfies the triangle
    inequality on all block triples up to the bound.

    Every leg that stays inside a block is linear in its length, so it
    suffices to test the extremes 0 and the block diameter; cross legs are
    constants. The checks run over all ordered shape/extreme combinations.
    """
    blocks = _blocks_up_to(block_bound)
    checked = 0
    bad: list[TriangleViolation] = []

    def check(kind, a_pt, b_pt, c_pt, lhs, rhs):
        nonlocal checked
        checked += 1
        if lhs > rhs:
            bad.append(TriangleViolation(kind, a_pt, b_pt, c_pt, lhs, rhs))

    for a in blocks:
        ends_a = (ZPoint.zero(a), ZPoint.antipode(a))
        for b in blocks:
            for c in blocks:
                if a == b == c:
                    continue
                x_opts = ends_a
                y_opts = (ZPoint.zero(b), ZPoint.antipode(b))
                z_opts = (ZPoint.zero(c), ZPoint.antipode(c))
                for x in x_opts:
                    for y in y_opts:
                        for z in z_opts:
                            lhs = zeta(x, y, "corrected")
                            rhs = (zeta(x, z, "corrected")
                                   + zeta(z, y, "corrected"))
                            check("extremal_triple", x, y, z, lhs, rhs)
    return CorrectedCertificate(block_bound, checked, bad, not bad)


class BallCensusEntry(Record):
    __slots__ = ("block", "count", "count_log10", "formula")


class BallCensus(Record):
    __slots__ = ("center", "radius", "variant", "block_bound", "entries",
                 "total", "total_log10")


def _residues_within(u: int, radius_quanta: int) -> int:
    if radius_quanta <= 0:
        return 1
    if 2 * radius_quanta >= u:
        return u
    return 2 * radius_quanta + 1


def ball_census(center: ZPoint, radius, variant: str = "corrected",
                block_bound: int = 8) -> BallCensus:
    """Exact point counts of the closed zeta-ball, block by block.

    Foreign blocks are all-or-nothing: every point sits at one cross
    distance. Inside the center's own block the per-coordinate residue
    window is raised to the coordinate count; blocks whose coordinate count
    exceeds the dense limit report a digit estimate instead of the integer.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    radius = Fraction(radius)
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    entries: list[BallCensusEntry] = []
    blocks = sorted(set(_blocks_up_to(block_bound)) | {center.block})
    for blk in blocks:
        space = stage_space(blk)
        c = space.coords
        if blk == center.block:
            rq = int(radius / space.quantum)
            per = _residues_within(space.units, rq)
            base, expo = per, c
            formula = f"{per}^{c}"
        else:
            if cross_distance(center.block, blk, variant) > radius:
                continue
            base, expo = space.units, c
            formula = f"{base}^{c}"
        log10 = expo * math.log10(base) if base > 1 else 0.0
        count = base ** expo if c <= DENSE_COORD_LIMIT else None
        entries.append(BallCensusEntry(blk, count, log10, formula))
    if all(e.count is not None for e in entries):
        total = sum(e.count for e in entries)
        total_log10 = math.log10(total) if total > 0 else 0.0
    else:
        total = None
        top = max(e.count_log10 for e in entries)
        rest = sum(10.0 ** (e.count_log10 - top) for e in entries)
        total_log10 = top + math.log10(rest)
    return BallCensus(center, radius, variant, block_bound, entries,
                      total, total_log10)

