"""Injection builders with certified modulus bounds.

Every builder keys off the gap g_x of a point (its least positive distance)
and the level kappa(x) = min{n >= 1 : 2^(1-n) <= g_x}. The exclusion sets
A_n = {x : kappa(x) > n} shrink as n grows and empty out at the top level,
which is what makes the coordinate tables injective. Image distances then
telescope over levels >= kappa(x, y), giving the 2^(1-kappa) <= max(g) <= d
bound that each verifier re-checks pair by pair in exact arithmetic where
possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .metric import FiniteMetricSpace
from .numerics import REL_TOL, Number, rational_pow


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


def _level_deltas(a: SeqVector, b: SeqVector):
    """|a_n - b_n| on the levels n where the two sequences differ, in
    level order."""
    ad, bd = a.as_dict(), b.as_dict()
    for n in sorted(set(ad) | set(bd)):
        delta = abs(ad.get(n, 0) - bd.get(n, 0))
        if delta != 0:
            yield n, delta


def ell0_distance(a: SeqVector, b: SeqVector) -> Number:
    """sum over levels of 2^-n * |delta_n| / (1 + |delta_n|); exact for
    rational values."""
    terms = []
    for n, delta in _level_deltas(a, b):
        if isinstance(delta, (int, Fraction)):
            delta = Fraction(delta)
            terms.append(Fraction(1, 2 ** n) * delta / (1 + delta))
        else:
            terms.append(2.0 ** (-n) * delta / (1.0 + delta))
    if all(isinstance(t, Fraction) for t in terms):
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
    terms = []
    for _, delta in _level_deltas(a, b):
        if isinstance(delta, (int, Fraction)):
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
    """Least positive distance from each point; None on singletons."""
    n = space.size
    return [min((d for j in range(n)
                 if j != i and (d := space.distance(i, j)) > 0), default=None)
            for i in range(n)]


def _ceil_inverse(g) -> int:
    """ceil(1/g) for a positive gap, from its exact fraction a/b."""
    if g is None or g <= 0:
        raise ValueError("gap must be positive")
    g = Fraction(g)
    return -(-g.denominator // g.numerator)


def gap_level(g) -> int:
    """min n >= 1 with 2^(1-n) <= g, i.e. 2^(n-1) >= ceil(1/g)."""
    return (_ceil_inverse(g) - 1).bit_length() + 1


def ballchain_level(g) -> int:
    """min n >= 1 with 1/n <= g: the first ball no wider than the gap
    (ball 1 for a point without a gap)."""
    return 1 if g is None else _ceil_inverse(g)


@dataclass(frozen=True)
class LevelStructure:
    """Per-point gaps and levels, and at each level n the enumeration index
    of every point outside A_n (a point without an index lies in A_n)."""

    gaps: tuple
    kappas: tuple
    levels: int
    h_index: tuple
    warning: Optional[str] = None


def build_level_structure(space) -> LevelStructure:
    n = space.size
    if n == 1:
        return LevelStructure((None,), (0,), 0, (),
                              warning="single point: no gaps, trivial structure")
    gaps = point_gaps(space)
    kappas = tuple(gap_level(g) for g in gaps)
    top = max(kappas)
    h_index = tuple(
        {i: j for j, i in enumerate(
            (i for i in range(n) if kappas[i] <= lvl), 1)}
        for lvl in range(1, top + 1))
    return LevelStructure(tuple(gaps), kappas, top, h_index)


@dataclass
class InjectionTable:
    target: str
    images: list
    labels: tuple
    p: Optional[Fraction] = None
    descriptor: Optional[str] = None
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
        """Decode a table and its embedded domain (None without one);
        malformed input raises ValueError naming the missing key or the
        bad entry."""
        def dec(v):
            if isinstance(v, str):
                return Fraction(v)
            if isinstance(v, (int, float)):
                return v
            raise TypeError(f"{v!r} is not a number")

        if not isinstance(data, dict):
            raise ValueError("injection table is not a JSON object")
        for key in ("target", "images"):
            if key not in data:
                raise ValueError(f"injection table lacks {key!r}")
        target = data["target"]
        try:
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
        except TypeError as exc:
            raise ValueError(f"malformed injection table: {exc}") from None
        return table, space


def _labels(space) -> tuple:
    return tuple(getattr(space, "labels",
                         tuple(str(i) for i in range(space.size))))


def _level_table(space, target: str, value, p=None) -> InjectionTable:
    """Coordinate n of x is value(n, j) for its enumeration index j outside
    A_n, and absent inside."""
    st = build_level_structure(space)
    images = [SeqVector(tuple((lvl, value(lvl, idx[i]))
                              for lvl, idx in enumerate(st.h_index, 1)
                              if i in idx))
              for i in range(space.size)]
    return InjectionTable(target, images, _labels(space), p=p,
                          warnings=[st.warning] if st.warning else [])


def build_ell0_injection(space) -> InjectionTable:
    """Coordinate n of x is its enumeration index outside A_n (0 inside)."""
    return _level_table(space, "ell0", lambda lvl, j: Fraction(j))


def build_ellp_injection(space, p) -> InjectionTable:
    """Coordinate n of x is 2^(-n/p) * (1 - 2^-j) for its index j outside
    A_n; every level's values stay inside [0, 2^(-n/p))."""
    p = Fraction(p)
    if p <= 0:
        raise ValueError("p must be positive")
    return _level_table(
        space, "ellp",
        lambda lvl, j: (rational_pow(Fraction(1, 2 ** lvl), 1 / p)
                        * (1 - Fraction(1, 2 ** j))),
        p=p)


@dataclass(frozen=True)
class BallChainTarget:
    """Nested balls of diameter 1/n on the line: ball n offers the
    candidates 1/(n + shift), 1/(n + shift + 1), ..."""

    name: str
    shift: int


def interval_chain_target() -> BallChainTarget:
    """Open intervals (0, 1/n) on the line; candidates 1/(n + j), j >= 1."""
    return BallChainTarget("intervals", 1)


def cauchy_sequence_target() -> BallChainTarget:
    """Tails of the sequence 1/k: ball n holds {1/k : k >= n}."""
    return BallChainTarget("cauchy", 0)


BALLCHAIN_TARGETS = {
    "intervals": interval_chain_target,
    "cauchy": cauchy_sequence_target,
}


def build_ballchain_injection(space, target: BallChainTarget) -> InjectionTable:
    """Place each point in the first ball no wider than its gap, taking the
    first unused candidate; a global used-set keeps images distinct across
    levels."""
    st = build_level_structure(space)
    used = set()
    images = []
    for g in st.gaps:
        k = ballchain_level(g) + target.shift
        while k in used:
            k += 1
        used.add(k)
        images.append(Fraction(1, k))
    return InjectionTable("ballchain", images, _labels(space),
                          descriptor=target.name,
                          warnings=[st.warning] if st.warning else [])


def build_injection(space, spec: str) -> InjectionTable:
    """The table a target spec names: `ell0`, `ellp:P` or
    `ballchain:intervals|cauchy`."""
    kind, _, arg = spec.partition(":")
    if spec == "ell0":
        return build_ell0_injection(space)
    if kind == "ellp" and arg:
        return build_ellp_injection(space, Fraction(arg))
    if kind == "ballchain" and arg in BALLCHAIN_TARGETS:
        return build_ballchain_injection(space, BALLCHAIN_TARGETS[arg]())
    raise ValueError(f"unknown target {spec!r}")


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
