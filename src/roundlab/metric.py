"""Exact-arithmetic finite metric spaces, the metric-axiom audit, the
snowflake transform, and empirical embedding moduli."""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .numerics import Number, rational_pow


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Explicit point set with an exact rational distance matrix.

    The default constructor audits all metric axioms eagerly with
    `validate_metric`, the triangle inequality included; `unchecked` exists
    for deliberately non-metric data that still needs to be held and
    audited.
    """

    dist: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...] = ()
    _skip_checks: bool = field(default=False, repr=False)

    def __post_init__(self):
        n = len(self.dist)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(str(i) for i in range(n)))
        if len(self.labels) != n:
            raise ValueError("labels length must match matrix size")
        if self._skip_checks:
            return
        if any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix must be square")
        rep = validate_metric(self)
        for axiom, ok in (("identity", rep.identity_ok),
                          ("symmetry", rep.symmetry_ok),
                          ("positivity", rep.positivity_ok)):
            if not ok:
                raise ValueError(f"distance matrix fails {axiom}")
        if rep.violations:
            v = rep.violations[0]
            raise ValueError("triangle inequality fails at "
                             f"({v['x']},{v['z']},{v['y']})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], labels: Sequence[str] = ()) -> "FiniteMetricSpace":
        dist = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(dist, tuple(labels))

    @classmethod
    def unchecked(cls, rows: Sequence[Sequence], labels: Sequence[str] = ()) -> "FiniteMetricSpace":
        """Hold possibly non-metric data without auditing it."""
        dist = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(dist, tuple(labels), _skip_checks=True)

    @property
    def size(self) -> int:
        return len(self.dist)

    def distance(self, a: int, b: int) -> Fraction:
        return self.dist[a][b]


@dataclass
class ValidationReport:
    ok: bool
    symmetry_ok: bool
    identity_ok: bool
    positivity_ok: bool
    violations: list
    checked_triples: int
    exhaustive: bool

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "symmetry_ok": self.symmetry_ok,
            "identity_ok": self.identity_ok,
            "positivity_ok": self.positivity_ok,
            "violations": self.violations,
            "checked_triples": self.checked_triples,
            "exhaustive": self.exhaustive,
        }


def validate_metric(space, budget: int | None = None) -> ValidationReport:
    """Audit metric axioms on any enumerable oracle.

    A violation (x, y, z) means dist(x, z) > dist(x, y) + dist(y, z), checked
    in exact arithmetic when distances are rational. The triple scan runs in
    canonical (x, z, y) order and stops at the budget; `exhaustive` reports
    whether it covered everything.
    """
    n = getattr(space, "size", None)
    if n is None:
        raise TypeError("oracle lacks an enumerator (no size)")
    d = [[space.distance(i, j) for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    identity_ok = all(d[i][i] == 0 for i in range(n))
    symmetry_ok = all(d[i][j] == d[j][i] for i, j in pairs)
    positivity_ok = all(d[i][j] > 0 for i, j in pairs)
    violations = []
    checked = 0
    total = n * (n - 1) * (n - 2) // 2
    triples = ((i, j, k) for i, j in pairs for k in range(n)
               if k != i and k != j)
    for i, j, k in itertools.islice(
            triples, None if budget is None else max(budget, 0)):
        checked += 1
        detour = d[i][k] + d[k][j]
        if d[i][j] > detour:
            violations.append({"x": i, "y": k, "z": j,
                               "slack": d[i][j] - detour})
    exhaustive = checked == total
    ok = symmetry_ok and identity_ok and positivity_ok and not violations
    return ValidationReport(ok, symmetry_ok, identity_ok, positivity_ok,
                            violations, checked, exhaustive)


@dataclass(frozen=True)
class SnowflakeOracle:
    """Distances raised to a power alpha in (0, 1]; still a metric by
    concavity. Exact where the root is exact, declared-precision otherwise."""

    base: object
    alpha: Fraction

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def labels(self) -> tuple[str, ...]:
        return getattr(self.base, "labels", tuple(str(i) for i in range(self.size)))

    def distance(self, a: int, b: int) -> Number:
        d = self.base.distance(a, b)
        if isinstance(d, Fraction):
            return rational_pow(d, self.alpha)
        if isinstance(d, int):
            return rational_pow(Fraction(d), self.alpha)
        return float(d) ** float(self.alpha)


def snowflake(space, alpha) -> SnowflakeOracle:
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    return SnowflakeOracle(space, alpha)


@dataclass(frozen=True)
class ModulusEnvelope:
    """Tightest non-decreasing envelopes around (domain, image) samples.

    rho1 is the largest non-decreasing function below all samples (suffix
    minimum over distance-sorted samples), rho2 the smallest one above
    (prefix maximum); both are right-continuous step functions.
    """

    domains: tuple
    images: tuple
    suffix_min: tuple
    prefix_max: tuple

    def rho1(self, t) -> Number | None:
        """min image over samples with domain >= t; None beyond the data."""
        i = bisect.bisect_left(self.domains, t)
        return self.suffix_min[i] if i < len(self.domains) else None

    def rho2(self, t) -> Number | None:
        """max image over samples with domain <= t; None below the data."""
        i = bisect.bisect_right(self.domains, t) - 1
        return self.prefix_max[i] if i >= 0 else None

    def sandwich_ok(self) -> bool:
        return all(
            self.rho1(d) <= im and im <= self.rho2(d)
            for d, im in zip(self.domains, self.images)
        )


def empirical_moduli(samples: Sequence[tuple]) -> ModulusEnvelope:
    if not samples:
        raise ValueError("at least one sample required")
    ordered = sorted(samples, key=lambda s: s[0])
    domains = tuple(s[0] for s in ordered)
    images = tuple(s[1] for s in ordered)
    n = len(ordered)
    suffix = [None] * n
    acc = None
    for i in range(n - 1, -1, -1):
        acc = images[i] if acc is None or images[i] < acc else acc
        suffix[i] = acc
    prefix = [None] * n
    acc = None
    for i in range(n):
        acc = images[i] if acc is None or images[i] > acc else acc
        prefix[i] = acc
    return ModulusEnvelope(domains, images, tuple(suffix), tuple(prefix))
