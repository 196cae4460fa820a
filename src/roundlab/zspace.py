"""Disjoint unions of cyclic-product blocks under candidate cross distances.

Block n is the product of n^n cycles with n^(2n) units and quantum n^(-n);
within a block the sup metric applies. Two cross-distance variants are
audited: `literal` uses 4^(m+n) between blocks m and n, `corrected` uses
m^m + n^n. The literal variant breaks the triangle inequality in two ways
(a cheap detour through a small block, and antipodal pairs inside a large
block); the corrected one survives an exact extremal case analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

VARIANTS = ("literal", "corrected")
DENSE_COORD_LIMIT = 4096


def block_coords(n: int) -> int:
    return n ** n


def block_units(n: int) -> int:
    return n ** (2 * n)


def block_quantum(n: int) -> Fraction:
    return Fraction(1, n ** n)


def block_diameter(n: int) -> Fraction:
    """Half the units, in real distance: n^n / 2."""
    return Fraction(block_units(n), 2) * block_quantum(n)


def _check_block(n: int) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"block size must be even and >= 2, got {n}")


@dataclass(frozen=True)
class ZPoint:
    """Point of one block, nonzero residues only.

    Dense blocks are huge (block 8 has 16777216 coordinates), so points
    hold a sparse {coordinate: residue} map; missing coordinates are 0.
    """

    block: int
    residues: tuple = ()

    def __post_init__(self):
        _check_block(self.block)
        c, u = block_coords(self.block), block_units(self.block)
        seen = set()
        for coord, val in self.residues:
            if not (0 <= coord < c):
                raise ValueError(f"coordinate {coord} out of range")
            if not (0 < val < u):
                raise ValueError(f"residue {val} out of range or zero")
            if coord in seen:
                raise ValueError(f"coordinate {coord} repeated")
            seen.add(coord)

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
        return cls.make(block, {0: block_units(block) // 2})

    def as_dict(self) -> dict:
        return dict(self.residues)

    def to_json_dict(self) -> dict:
        c = block_coords(self.block)
        if c <= DENSE_COORD_LIMIT:
            dense = [0] * c
            for coord, val in self.residues:
                dense[coord] = val
            return {"block": self.block, "residues": dense}
        return {"block": self.block,
                "sparse": {str(k): v for k, v in self.residues}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ZPoint":
        """Decode a point; malformed input raises ValueError naming the
        missing key or the bad entry."""
        if not isinstance(data, dict) or "block" not in data:
            raise ValueError("ZPoint lacks 'block'")
        if "residues" not in data and "sparse" not in data:
            raise ValueError("ZPoint lacks 'residues' or 'sparse'")
        try:
            block = int(data["block"])
            if "residues" in data:
                vals = data["residues"]
                if len(vals) != block_coords(block):
                    raise ValueError("dense residue list has wrong length")
                return cls.make(block, {i: v for i, v in enumerate(vals) if v})
            return cls.make(block,
                            {int(k): v for k, v in data["sparse"].items()})
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed ZPoint: {exc}") from None


def block_distance(x: ZPoint, y: ZPoint) -> Fraction:
    """Sup metric within a shared block, exact."""
    if x.block != y.block:
        raise ValueError("points live in different blocks")
    u = block_units(x.block)
    xd, yd = x.as_dict(), y.as_dict()
    best = 0
    for coord in set(xd) | set(yd):
        d = abs(xd.get(coord, 0) - yd.get(coord, 0))
        best = max(best, min(d, u - d))
    return best * block_quantum(x.block)


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


@dataclass(frozen=True)
class TriangleViolation:
    kind: str
    x: ZPoint
    y: ZPoint
    z: ZPoint
    lhs: Fraction
    rhs: Fraction

    @property
    def slack(self) -> Fraction:
        return self.lhs - self.rhs

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "x": self.x.to_json_dict(),
            "y": self.y.to_json_dict(),
            "z": self.z.to_json_dict(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
        }


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


@dataclass
class CorrectedCertificate:
    block_bound: int
    checked_cases: int
    violations: list
    ok: bool

    def to_dict(self) -> dict:
        return {
            "block_bound": self.block_bound,
            "checked_cases": self.checked_cases,
            "violations": [v.to_dict() for v in self.violations],
            "ok": self.ok,
        }


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


@dataclass
class BallCensusEntry:
    block: int
    count: Optional[int]
    count_log10: float
    formula: str

    def to_dict(self) -> dict:
        return {
            "block": self.block,
            "count": self.count,
            "count_log10": self.count_log10,
            "formula": self.formula,
        }


@dataclass
class BallCensus:
    center: ZPoint
    radius: Fraction
    variant: str
    block_bound: int
    entries: list
    total: Optional[int]
    total_log10: float

    def to_dict(self) -> dict:
        return {
            "center": self.center.to_json_dict(),
            "radius": self.radius,
            "variant": self.variant,
            "block_bound": self.block_bound,
            "entries": [e.to_dict() for e in self.entries],
            "total": self.total,
            "total_log10": self.total_log10,
        }


def _residues_within(block: int, radius_quanta: int) -> int:
    u = block_units(block)
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
        c = block_coords(blk)
        if blk == center.block:
            rq = int(radius / block_quantum(blk))
            per = _residues_within(blk, rq)
            base, expo = per, c
            formula = f"{per}^{c}"
        else:
            if cross_distance(center.block, blk, variant) > radius:
                continue
            base, expo = block_units(blk), c
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


def representatives_space(blocks: Iterable[int], variant: str):
    """Zero and antipodal representatives of each block as an explicit
    (possibly non-metric) distance matrix for external audits."""
    from .metric import FiniteMetricSpace
    pts: list[ZPoint] = []
    for blk in blocks:
        pts.append(ZPoint.zero(blk))
        pts.append(ZPoint.antipode(blk))
    rows = [[zeta(p, q, variant) for q in pts] for p in pts]
    labels = tuple(
        f"M{p.block}:{'zero' if not p.residues else 'antipode'}" for p in pts)
    return FiniteMetricSpace.unchecked(rows, labels), pts
