"""Injection builders with certified modulus bounds.

Every builder keys off the gap g_x of a point (its least positive distance)
and the level kappa(x) = min{n >= 1 : 2^(1-n) <= g_x}. The exclusion sets
A_n = {x : 2^(1-n) > g_x} shrink as n grows and empty out at the top level,
which is what makes the coordinate tables injective. Image distances then
telescope over levels >= kappa(x, y), giving the 2^(1-kappa) <= max(g) <= d
bound that each verifier re-checks pair by pair in exact arithmetic where
possible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .metric import FiniteMetricSpace
from .numerics import REL_TOL, Number, rational_pow

LEVEL_HUNT_CAP = 1_000_000


@dataclass(frozen=True)
class SeqVector:
    """Sparse sequence: (level, value) entries, levels strictly increasing,
    values nonzero."""

    entries: tuple = ()

    def __post_init__(self):
        last = 0
        for idx, val in self.entries:
            if idx <= last:
                raise ValueError("levels must be strictly increasing")
            if val == 0:
                raise ValueError("values must be nonzero")
            last = idx

    def as_dict(self) -> dict:
        return dict(self.entries)


def ell0_distance(a: SeqVector, b: SeqVector) -> Number:
    """sum over levels of 2^-n * |delta_n| / (1 + |delta_n|); exact for
    rational values."""
    ad, bd = a.as_dict(), b.as_dict()
    exact = True
    terms = []
    for n in sorted(set(ad) | set(bd)):
        delta = abs(ad.get(n, 0) - bd.get(n, 0))
        if delta == 0:
            continue
        if isinstance(delta, (int, Fraction)):
            delta = Fraction(delta)
            terms.append(Fraction(1, 2 ** n) * delta / (1 + delta))
        else:
            exact = False
            terms.append(2.0 ** (-n) * delta / (1.0 + delta))
    if exact:
        return sum(terms, Fraction(0))
    return math.fsum(float(t) for t in terms)


def ellp_convention(p) -> str:
    return "norm" if p >= 1 else "pth_power_metric"


def ellp_distance(a: SeqVector, b: SeqVector, p) -> Number:
    """p >= 1: the usual norm; p < 1: the sum of p-th powers (a metric).
    Exact whenever every power comes out rational."""
    p = Fraction(p)
    if p <= 0:
        raise ValueError("p must be positive")
    ad, bd = a.as_dict(), b.as_dict()
    terms = []
    for n in sorted(set(ad) | set(bd)):
        av, bv = ad.get(n, 0), bd.get(n, 0)
        delta = abs(av - bv)
        if delta == 0:
            continue
        if isinstance(delta, Fraction) or isinstance(delta, int):
            terms.append(rational_pow(Fraction(delta), p))
        else:
            terms.append(float(delta) ** float(p))
    if not terms:
        return Fraction(0)
    if all(isinstance(t, (int, Fraction)) for t in terms):
        inner: Number = sum(terms, Fraction(0))
    else:
        inner = math.fsum(float(t) for t in terms)
    if p < 1:
        return inner
    if isinstance(inner, Fraction):
        return rational_pow(inner, 1 / p)
    return float(inner) ** float(1 / p)


def point_gaps(space) -> list:
    """Least positive distance from each point; empty-minded on singletons."""
    n = space.size
    out = []
    for i in range(n):
        best = None
        for j in range(n):
            if j == i:
                continue
            d = space.distance(i, j)
            if d > 0 and (best is None or d < best):
                best = d
        out.append(best)
    return out


def gap_level(g) -> int:
    """min n >= 1 with 2^(1-n) <= g."""
    if g is None or g <= 0:
        raise ValueError("gap must be positive")
    n = 1
    threshold = Fraction(1)  # 2^(1-n) at n = 1
    while threshold > g:
        n += 1
        threshold /= 2
        if n > LEVEL_HUNT_CAP:
            raise ValueError("gap too small: level hunt exceeded cap")
    return n


@dataclass(frozen=True)
class LevelStructure:
    """Per-point gaps and levels plus the shrinking exclusion sets."""

    gaps: tuple
    kappas: tuple
    levels: int
    a_sets: tuple
    h_index: tuple
    dyadic_boundary: tuple
    warning: Optional[str] = None

    def kappa(self, x: int, y: int) -> int:
        if x == y:
            return self.kappas[x]
        return min(self.kappas[x], self.kappas[y])


def build_level_structure(space) -> LevelStructure:
    n = space.size
    if n == 1:
        return LevelStructure((None,), (0,), 0, (), (), (),
                              warning="single point: no gaps, trivial structure")
    gaps = point_gaps(space)
    kappas = tuple(gap_level(g) for g in gaps)
    top = max(kappas)
    a_sets = []
    h_index = []
    for lvl in range(1, top + 1):
        threshold = Fraction(2, 2 ** lvl)  # 2^(1-lvl)
        a_set = frozenset(i for i in range(n) if threshold > gaps[i])
        a_sets.append(a_set)
        idx = {}
        j = 1
        for i in range(n):
            if i not in a_set:
                idx[i] = j
                j += 1
        h_index.append(idx)
    dyadic = tuple(i for i in range(n)
                   if isinstance(gaps[i], (int, Fraction))
                   and Fraction(gaps[i]) == Fraction(2, 2 ** kappas[i]))
    return LevelStructure(tuple(gaps), kappas, top, tuple(a_sets),
                          tuple(h_index), dyadic)


@dataclass
class InjectionTable:
    target: str
    images: list
    labels: tuple
    p: Optional[Fraction] = None
    descriptor: Optional[str] = None
    structure: Optional[LevelStructure] = None
    warnings: list = field(default_factory=list)

    def to_json_dict(self, space: Optional[FiniteMetricSpace] = None) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return str(v)
            return v

        def enc_image(img):
            if isinstance(img, SeqVector):
                return [[n, enc(v)] for n, v in img.entries]
            return enc(img)

        out = {
            "schema": 1,
            "target": self.target,
            "labels": list(self.labels),
            "images": [enc_image(img) for img in self.images],
            "warnings": list(self.warnings),
        }
        if self.p is not None:
            out["p"] = str(self.p)
        if self.descriptor is not None:
            out["descriptor"] = self.descriptor
        if space is not None:
            out["domain"] = [[str(d) for d in row] for row in space.dist]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> tuple["InjectionTable", Optional[FiniteMetricSpace]]:
        def dec(v):
            return Fraction(v) if isinstance(v, str) else v

        target = data["target"]
        if target in ("ell0", "ellp"):
            images = [SeqVector(tuple((int(n), dec(v)) for n, v in img))
                      for img in data["images"]]
        else:
            images = [dec(img) for img in data["images"]]
        table = cls(
            target, images, tuple(data.get("labels", ())),
            p=Fraction(data["p"]) if "p" in data else None,
            descriptor=data.get("descriptor"),
            warnings=list(data.get("warnings", ())),
        )
        space = None
        if "domain" in data:
            space = FiniteMetricSpace.from_rows(
                [[Fraction(v) for v in row] for row in data["domain"]],
                labels=table.labels)
        return table, space


def build_ell0_injection(space) -> InjectionTable:
    """Coordinate n of x is its enumeration index outside A_n (0 inside)."""
    st = build_level_structure(space)
    labels = getattr(space, "labels", tuple(str(i) for i in range(space.size)))
    images = []
    for i in range(space.size):
        entries = []
        for lvl in range(1, st.levels + 1):
            if i not in st.a_sets[lvl - 1]:
                entries.append((lvl, Fraction(st.h_index[lvl - 1][i])))
        images.append(SeqVector(tuple(entries)))
    table = InjectionTable("ell0", images, tuple(labels), structure=st)
    if st.warning:
        table.warnings.append(st.warning)
    return table


def build_ellp_injection(space, p) -> InjectionTable:
    """Coordinate n of x is 2^(-n/p) * (1 - 2^-j) for its index j outside
    A_n; every level's values stay inside [0, 2^(-n/p))."""
    p = Fraction(p)
    if p <= 0:
        raise ValueError("p must be positive")
    st = build_level_structure(space)
    labels = getattr(space, "labels", tuple(str(i) for i in range(space.size)))
    images = []
    for i in range(space.size):
        entries = []
        for lvl in range(1, st.levels + 1):
            if i not in st.a_sets[lvl - 1]:
                j = st.h_index[lvl - 1][i]
                scale = rational_pow(Fraction(1, 2 ** lvl), 1 / p)
                val = scale * (1 - Fraction(1, 2 ** j))
                entries.append((lvl, val))
        images.append(SeqVector(tuple(entries)))
    table = InjectionTable("ellp", images, tuple(labels), p=p, structure=st)
    if st.warning:
        table.warnings.append(st.warning)
    return table


@dataclass(frozen=True)
class BallChainTarget:
    """Nested-ball allocation scheme: diameters(n) gives the nonincreasing
    ball diameter t_n, allocator(n, j) the j-th fresh candidate inside ball
    n (None when exhausted), metric the target distance."""

    name: str
    diameters: Callable[[int], Fraction]
    allocator: Callable[[int, int], Optional[Fraction]]
    metric: Callable[[Fraction, Fraction], Fraction]


def interval_chain_target() -> BallChainTarget:
    """Open intervals (0, 1/n) on the line; candidates 1/(n + j)."""
    return BallChainTarget(
        "intervals",
        diameters=lambda n: Fraction(1, n),
        allocator=lambda n, j: Fraction(1, n + j),
        metric=lambda a, b: abs(a - b),
    )


def cauchy_sequence_target() -> BallChainTarget:
    """Tails of the sequence 1/k: ball n holds {1/k : k >= n}."""
    return BallChainTarget(
        "cauchy",
        diameters=lambda n: Fraction(1, n),
        allocator=lambda n, j: Fraction(1, n + j - 1),
        metric=lambda a, b: abs(a - b),
    )


BALLCHAIN_TARGETS = {
    "intervals": interval_chain_target,
    "cauchy": cauchy_sequence_target,
}


def load_ballchain_target(spec: str) -> BallChainTarget:
    """`intervals`, `cauchy`, or a JSON file naming one via {"kind": ...}."""
    if spec in BALLCHAIN_TARGETS:
        return BALLCHAIN_TARGETS[spec]()
    with open(spec, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    kind = data.get("kind")
    if kind not in BALLCHAIN_TARGETS:
        raise ValueError(f"unknown ballchain kind {kind!r}")
    return BALLCHAIN_TARGETS[kind]()


def build_ballchain_injection(space, target: BallChainTarget) -> InjectionTable:
    """Place each point in the first ball no wider than its gap, taking the
    first unused candidate; a global used-set keeps images distinct across
    levels."""
    labels = getattr(space, "labels", tuple(str(i) for i in range(space.size)))
    st = build_level_structure(space)
    used = set()
    images = []
    warnings = []
    if st.warning:
        warnings.append(st.warning)
    for i in range(space.size):
        g = st.gaps[i]
        if g is None:
            lvl = 1
        else:
            lvl = 1
            prev = target.diameters(1)
            while target.diameters(lvl) > g:
                lvl += 1
                t = target.diameters(lvl)
                if t > prev:
                    raise ValueError(
                        f"diameters increase at level {lvl}: not a chain")
                prev = t
                if lvl > LEVEL_HUNT_CAP:
                    raise ValueError("no ball small enough for the gap")
        j = 1
        while True:
            cand = target.allocator(lvl, j)
            if cand is None:
                raise ValueError(
                    f"ball {lvl} exhausted after {j - 1} candidates")
            if cand not in used:
                break
            j += 1
        used.add(cand)
        images.append(cand)
    return InjectionTable("ballchain", images, tuple(labels),
                          descriptor=target.name, warnings=warnings)


@dataclass
class InjectionReport:
    target: str
    injective: bool
    duplicate_pair: Optional[tuple]
    worst_ratio: Optional[Number]
    worst_pair: Optional[tuple]
    violations: list
    checked_pairs: int
    modulus: str
    convention: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.injective and not self.violations

    def to_dict(self) -> dict:
        def num(v):
            if isinstance(v, Fraction):
                return str(v)
            return v
        return {
            "target": self.target,
            "injective": self.injective,
            "duplicate_pair": list(self.duplicate_pair) if self.duplicate_pair else None,
            "worst_ratio": num(self.worst_ratio),
            "worst_ratio_float": None if self.worst_ratio is None else float(self.worst_ratio),
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
            "violations": self.violations,
            "checked_pairs": self.checked_pairs,
            "modulus": self.modulus,
            "convention": self.convention,
            "ok": self.ok,
        }


def resolve_modulus(spec: str):
    """`identity` or `root:p` (t -> t^(1/p))."""
    if spec == "identity":
        return lambda t: t, "identity"
    if spec.startswith("root:"):
        p = Fraction(spec.split(":", 1)[1])
        if p <= 0:
            raise ValueError("root exponent must be positive")

        def mod(t):
            if isinstance(t, (int, Fraction)):
                return rational_pow(Fraction(t), 1 / p)
            return float(t) ** float(1 / p)
        return mod, spec
    raise ValueError(f"unknown modulus {spec!r}")


def default_modulus_for(table: InjectionTable) -> str:
    if table.target == "ellp" and table.p is not None and table.p >= 1:
        return f"root:{table.p}"
    return "identity"


def verify_injection(space, table: InjectionTable,
                     modulus: str | None = None) -> InjectionReport:
    """Check distinctness of images and the Lipschitz bound
    image_distance <= modulus(domain_distance) on every pair."""
    if len(table.images) != space.size:
        raise ValueError("image count does not match the space")
    if modulus is None:
        modulus = default_modulus_for(table)
    mod_fn, mod_name = resolve_modulus(modulus)
    if table.target == "ell0":
        img_dist = ell0_distance
        convention = None
    elif table.target == "ellp":
        if table.p is None:
            raise ValueError("ellp table lacks p")
        img_dist = lambda a, b: ellp_distance(a, b, table.p)
        convention = ellp_convention(table.p)
    elif table.target == "ballchain":
        img_dist = lambda a, b: abs(a - b)
        convention = None
    else:
        raise ValueError(f"unknown target {table.target!r}")

    keys = [img.entries if isinstance(img, SeqVector) else img
            for img in table.images]
    injective = True
    duplicate = None
    seen = {}
    for i, k in enumerate(keys):
        if k in seen:
            injective = False
            duplicate = (seen[k], i)
            break
        seen[k] = i

    worst = None
    worst_pair = None
    violations = []
    checked = 0
    n = space.size
    for i in range(n):
        for j in range(i + 1, n):
            checked += 1
            di = img_dist(table.images[i], table.images[j])
            bound = mod_fn(space.distance(i, j))
            if bound == 0:
                if di != 0:
                    violations.append({"pair": [i, j], "ratio": "inf"})
                continue
            ratio = (di / bound if isinstance(di, Fraction)
                     and isinstance(bound, Fraction)
                     else float(di) / float(bound))
            if worst is None or ratio > worst:
                worst, worst_pair = ratio, (i, j)
            if (isinstance(ratio, Fraction) and ratio > 1) or (
                    isinstance(ratio, float) and ratio > 1.0 + REL_TOL):
                violations.append({"pair": [i, j], "ratio": float(ratio)})
    return InjectionReport(table.target, injective, duplicate, worst,
                           worst_pair, violations, checked, mod_name,
                           convention)
