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
from fractions import Fraction
from typing import Optional

from . import Record
from .metric import FiniteMetricSpace
from .exact import exact_sum, json_int, parse_fraction, power, settle
from .numerics import Number, violation
from .report import sanitize


class SeqVector(Record):
    """Sparse sequence: (level, value) entries, levels strictly increasing,
    values nonzero."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple = ()):
        last = 0
        for idx, val in entries:
            if idx <= last:
                raise ValueError("levels must be strictly increasing")
            if val == 0:
                raise ValueError("values must be nonzero")
            last = idx
        self.entries = entries

    def as_dict(self) -> dict:
        return dict(self.entries)


def _same(x):
    return x


def _level_deltas(a: SeqVector, b: SeqVector, lift=_same):
    """|lift(a_n) - lift(b_n)| on the levels n where the two sequences
    differ, in level order."""
    ad, bd = a.as_dict(), b.as_dict()
    for n in sorted(set(ad) | set(bd)):
        x, y = ad.get(n, 0), bd.get(n, 0)
        delta = abs(lift(x) - lift(y))
        # a difference of two intervals may straddle 0
        if delta != 0 or x != y:
            yield n, delta


def ell0_distance(a: SeqVector, b: SeqVector, lift=_same) -> Number:
    """sum over levels of 2^-n * |delta_n| / (1 + |delta_n|) of the values
    passed through `lift`; exact for rational values."""
    return exact_sum(lift(Fraction(1, 2 ** n)) * delta / (1 + delta)
                     for n, delta in _level_deltas(a, b, lift))


def ellp_convention(p) -> str:
    return "norm" if p >= 1 else "pth_power_metric"


def _image_power(target: str, p, a, b, lift=_same) -> tuple:
    """(s, e): the distance of images a and b in `target` (`ellp` at
    exponent p) is s^(1/e), e = 1 but for an ellp norm, from their values
    passed through `lift` (none, Fraction or an mpmath interval)."""
    if target == "ballchain":
        return abs(lift(a) - lift(b)), 1
    if target == "ell0":
        return ell0_distance(a, b, lift), 1
    return exact_sum(power(delta, p)
                     for _, delta in _level_deltas(a, b, lift)), max(p, 1)


def ellp_distance(a: SeqVector, b: SeqVector, p) -> Number:
    """p >= 1: the usual norm; p < 1: the sum of p-th powers (a metric).
    Exact whenever every power comes out rational."""
    if p <= 0:
        raise ValueError("p must be positive")
    s, e = _image_power("ellp", Fraction(p), a, b)
    return power(s, 1 / Fraction(e))


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


class LevelStructure(Record):
    """Per-point gaps and levels, and at each level n the enumeration index
    of every point outside A_n (a point without an index lies in A_n)."""

    __slots__ = ("gaps", "kappas", "levels", "h_index", "warning")


def build_level_structure(space) -> LevelStructure:
    n = space.size
    if n == 1:
        return LevelStructure((None,), (0,), 0, (),
                              "single point: no gaps, trivial structure")
    gaps = point_gaps(space)
    kappas = tuple(gap_level(g) for g in gaps)
    top = max(kappas)
    h_index = tuple(
        {i: j for j, i in enumerate(
            (i for i in range(n) if kappas[i] <= lvl), 1)}
        for lvl in range(1, top + 1))
    return LevelStructure(tuple(gaps), kappas, top, h_index, None)


class InjectionTable(Record):
    """A space's images: SeqVectors in `ell0` and `ellp` (exponent `p`),
    rationals in `ballchain` (its balls named by `descriptor`)."""

    __slots__ = ("target", "images", "labels", "p", "descriptor", "warnings")

    def to_json_dict(self, space: Optional[FiniteMetricSpace] = None) -> dict:
        out = {
            "schema": 1,
            "target": self.target,
            "labels": self.labels,
            "images": [img.entries if isinstance(img, SeqVector) else img
                       for img in self.images],
            "warnings": self.warnings,
        }
        if self.p is not None:
            out["p"] = self.p
        if self.descriptor is not None:
            out["descriptor"] = self.descriptor
        if space is not None:
            out["domain"] = space.dist
        return sanitize(out)

    @classmethod
    def from_json_dict(cls, data: dict) -> tuple["InjectionTable", Optional[FiniteMetricSpace]]:
        """Decode a table and its embedded domain (None without one);
        malformed input raises ValueError naming the missing key or the
        bad entry."""
        def dec(v, entry: str):
            if isinstance(v, str):
                return parse_fraction(v)
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                return v
            raise TypeError(f"{entry} is not a number: {v!r}")

        if not isinstance(data, dict):
            raise ValueError("injection table is not a JSON object")
        for key in ("target", "images"):
            if key not in data:
                raise ValueError(f"injection table lacks {key!r}")
        target = data["target"]
        try:
            if target in ("ell0", "ellp"):
                images = [SeqVector(tuple(
                    (json_int(n, f"image {i} level"), dec(v, f"image {i}"))
                    for n, v in img))
                    for i, img in enumerate(data["images"])]
            else:
                images = [dec(img, f"image {i}")
                          for i, img in enumerate(data["images"])]
            table = cls(
                target, images, tuple(data.get("labels", ())),
                p=Fraction(dec(data["p"], "p")) if "p" in data else None,
                descriptor=data.get("descriptor"),
                warnings=list(data.get("warnings", ())),
            )
            space = None
            if "domain" in data:
                space = FiniteMetricSpace.from_rows(
                    [[Fraction(dec(v, f"domain row {i}")) for v in row]
                     for i, row in enumerate(data["domain"])],
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
                          descriptor=None,
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
        lambda lvl, j: (power(Fraction(1, 2 ** lvl), 1 / p)
                        * (1 - Fraction(1, 2 ** j))),
        p=p)


class BallChainTarget(Record):
    """Nested balls of diameter 1/n on the line: ball n offers the
    candidates 1/(n + shift), 1/(n + shift + 1), ..."""

    __slots__ = ("name", "shift")


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
    return InjectionTable("ballchain", images, _labels(space), p=None,
                          descriptor=target.name,
                          warnings=[st.warning] if st.warning else [])


def build_injection(space, spec: str) -> InjectionTable:
    """The table a target spec names: `ell0`, `ellp:P` or
    `ballchain:intervals|cauchy`."""
    kind, _, arg = spec.partition(":")
    if spec == "ell0":
        return build_ell0_injection(space)
    if kind == "ellp" and arg:
        return build_ellp_injection(space, parse_fraction(arg))
    if kind == "ballchain" and arg in BALLCHAIN_TARGETS:
        return build_ballchain_injection(space, BALLCHAIN_TARGETS[arg]())
    raise ValueError(f"unknown target {spec!r}")


class InjectionReport(Record):
    __slots__ = ("target", "injective", "duplicate_pair", "worst_ratio",
                 "worst_pair", "violations", "checked_pairs", "modulus",
                 "convention")

    @property
    def ok(self) -> bool:
        return self.injective and not self.violations

    def fields(self) -> dict:
        worst = self.worst_ratio
        return {**super().fields(),
                "worst_ratio_float": None if worst is None else float(worst),
                "ok": self.ok}


def resolve_modulus(spec: str):
    """`identity` or `root:p` (t -> t^(1/p))."""
    if spec == "identity":
        return lambda t: t, "identity"
    if spec.startswith("root:"):
        p = parse_fraction(spec.split(":", 1)[1])
        if p <= 0:
            raise ValueError("root exponent must be positive")
        return lambda t: power(t, 1 / p), spec
    raise ValueError(f"unknown modulus {spec!r}")


def default_modulus_for(table: InjectionTable) -> str:
    if table.target == "ellp" and table.p is not None and table.p >= 1:
        return f"root:{table.p}"
    return "identity"


# a proven relative radius of a float ratio whose values no subtraction
# rounds twice: the image distance and the bound pass at most three float
# powers, each within 2 ulps and exp(745 UNIT) (its exponent's rounding
# times |ln| of a finite power) of the exact power, a root dividing the
# error of the first, and fewer than ten other roundings: below 2300
# UNIT, and 2^-40 is 8192 UNIT
RATIO_RADIUS = 2.0 ** -40


def _settled(table: InjectionTable, i: int, j: int, d, q) -> bool:
    """Whether images i and j lie farther apart than d^(1/q), both sides
    raised to the image exponent e, as `exact.settle` decides it."""
    def slack(lift):
        s, e = _image_power(table.target, table.p, table.images[i],
                            table.images[j], lift)
        return power(lift(d), e / q) - s

    return settle(slack, f"Lipschitz bound on pair {[i, j]}")


def verify_injection(space, table: InjectionTable,
                     modulus: str | None = None) -> InjectionReport:
    """Check distinctness of images and the Lipschitz bound
    image_distance <= modulus(domain_distance) on every pair. A ratio of
    Fractions is decided exactly, a float one against RATIO_RADIUS, and
    one that leaves undecided by `_settled`."""
    if len(table.images) != space.size:
        raise ValueError("image count does not match the space")
    if modulus is None:
        modulus = default_modulus_for(table)
    mod_fn, mod_name = resolve_modulus(modulus)
    q = parse_fraction(1 if mod_name == "identity" else mod_name[5:])
    if table.target not in ("ell0", "ellp", "ballchain"):
        raise ValueError(f"unknown target {table.target!r}")
    if table.target == "ellp" and table.p is None:
        raise ValueError("ellp table lacks p")
    convention = ellp_convention(table.p) if table.target == "ellp" else None

    keys = [img.entries if isinstance(img, SeqVector) else img
            for img in table.images]
    duplicate = None
    seen = {}
    for i, k in enumerate(keys):
        if k in seen:
            duplicate = (seen[k], i)
            break
        seen[k] = i

    # Python rounds a Fraction to a float before subtracting a float from
    # it, so a table where floats meet Fractions that no float holds is
    # read in Fractions: no difference is rounded twice (RATIO_RADIUS)
    values = [v for k in keys for v in (
        (v for _, v in k) if isinstance(k, tuple) else (k,))]
    lift = (Fraction if any(isinstance(v, float) for v in values)
            and any(float(v) != v for v in values) else _same)
    worst = None
    worst_pair = None
    violations = []
    checked = 0
    n = space.size
    for i in range(n):
        for j in range(i + 1, n):
            checked += 1
            s, e = _image_power(table.target, table.p, table.images[i],
                                table.images[j], lift)
            di, d = power(s, 1 / Fraction(e)), space.distance(i, j)
            bound = mod_fn(d)
            if bound == 0:
                if di != 0:
                    violations.append({"pair": [i, j], "ratio": "inf"})
                continue
            ratio = (di / bound if isinstance(di, Fraction)
                     and isinstance(bound, Fraction)
                     else float(di) / float(bound))
            if worst is None or ratio > worst:
                worst, worst_pair = ratio, (i, j)
            # an exact ratio is decided outright; past 2^-960 the underflow
            # of any float term is negligible
            exceeds = violation(1 - ratio, RATIO_RADIUS * ratio) if (
                isinstance(ratio, Fraction) or ratio < math.inf and min(
                    float(s), float(di), float(bound)) > 2 ** -960) else None
            if exceeds is None:
                exceeds = _settled(table, i, j, d, q)
            if exceeds:
                violations.append({"pair": [i, j], "ratio": float(ratio)})
    return InjectionReport(table.target, duplicate is None, duplicate, worst,
                           worst_pair, violations, checked, mod_name,
                           convention)
