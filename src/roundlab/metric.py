"""Exact-arithmetic finite metric spaces, the metric-axiom audit, the
snowflake transform, and empirical embedding moduli."""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Sequence

from . import Record
from .numerics import Number, power


class FiniteMetricSpace(Record):
    """Explicit point set with an exact rational distance matrix.

    The default constructor audits all metric axioms eagerly with
    `validate_metric`, the triangle inequality included; `unchecked` exists
    for deliberately non-metric data that still needs to be held and
    audited.
    """

    __slots__ = ("dist", "labels")

    def __init__(self, dist: tuple[tuple[Fraction, ...], ...],
                 labels: tuple[str, ...] = (), _skip_checks: bool = False):
        n = len(dist)
        self.dist = dist
        self.labels = labels or tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise ValueError("labels length must match matrix size")
        if _skip_checks:
            return
        if any(len(row) != n for row in dist):
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
        return cls(_fractions(rows), tuple(labels))

    @classmethod
    def unchecked(cls, rows: Sequence[Sequence], labels: Sequence[str] = ()) -> "FiniteMetricSpace":
        """Hold possibly non-metric data without auditing it."""
        return cls(_fractions(rows), tuple(labels), _skip_checks=True)

    @property
    def size(self) -> int:
        return len(self.dist)

    def distance(self, a: int, b: int) -> Fraction:
        return self.dist[a][b]


def _fractions(rows: Sequence[Sequence]) -> tuple:
    """The rows as tuples of Fractions, keeping those already built (a
    parsed space file's)."""
    return tuple(tuple(v if type(v) is Fraction else Fraction(v)
                       for v in row) for row in rows)


class ValidationReport(Record):
    __slots__ = ("ok", "symmetry_ok", "identity_ok", "positivity_ok",
                 "violations", "checked_triples", "exhaustive")


def validate_metric(space, budget: int | None = None) -> ValidationReport:
    """Audit metric axioms on any enumerable oracle.

    A violation (x, y, z) means dist(x, z) > dist(x, y) + dist(y, z), checked
    in exact arithmetic when distances are rational: when every distance
    is an int or a Fraction, the axioms are decided on integers over the
    common denominator, and a violation's `slack` is then taken from the
    distances themselves. The triple scan runs in canonical (x, z, y)
    order and stops at the budget; `exhaustive` reports whether it covered
    everything.
    """
    n = getattr(space, "size", None)
    if n is None:
        raise TypeError("oracle lacks an enumerator (no size)")
    d = [[space.distance(i, j) for j in range(n)] for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = d
    if all(isinstance(v, (int, Fraction)) for row in d for v in row):
        den = math.lcm(*(v.denominator for row in d for v in row))
        m = [[v.numerator * (den // v.denominator) for v in row] for row in d]
    identity_ok = all(m[i][i] == 0 for i in range(n))
    symmetry_ok = all(m[i][j] == m[j][i] for i, j in pairs)
    positivity_ok = all(m[i][j] > 0 for i, j in pairs)
    cols = list(zip(*m))
    violations = []
    checked = 0
    total = n * (n - 1) * (n - 2) // 2
    limit = total if budget is None else min(max(budget, 0), total)
    for i, j in pairs:
        if checked == limit:
            break
        ks = [k for k in range(n) if k != i and k != j][:limit - checked]
        checked += len(ks)
        dij, row, col = m[i][j], m[i], cols[j]
        for k in ks:
            if dij > row[k] + col[k]:
                violations.append({"x": i, "y": k, "z": j,
                                   "slack": d[i][j] - (d[i][k] + d[k][j])})
    exhaustive = checked == total
    ok = symmetry_ok and identity_ok and positivity_ok and not violations
    return ValidationReport(ok, symmetry_ok, identity_ok, positivity_ok,
                            violations, checked, exhaustive)


class SnowflakeOracle(Record):
    """Distances raised to a power alpha in (0, 1]; still a metric by
    concavity. Exact where the root is exact, declared-precision otherwise."""

    __slots__ = ("base", "alpha")

    @property
    def size(self) -> int:
        return self.base.size

    @property
    def labels(self) -> tuple[str, ...]:
        return getattr(self.base, "labels", tuple(str(i) for i in range(self.size)))

    def distance(self, a: int, b: int) -> Number:
        return power(self.base.distance(a, b), self.alpha)


def snowflake(space, alpha) -> SnowflakeOracle:
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    return SnowflakeOracle(space, alpha)


class ModulusEnvelope(Record):
    """Tightest non-decreasing envelopes around (domain, image) samples.

    rho1 is the largest non-decreasing function below all samples (suffix
    minimum over distance-sorted samples), rho2 the smallest one above
    (prefix maximum); both are right-continuous step functions.
    """

    __slots__ = ("domains", "images", "suffix_min", "prefix_max")

    def rho1(self, t) -> Number | None:
        """min image over samples with domain >= t; None beyond the data."""
        i = bisect.bisect_left(self.domains, t)
        return self.suffix_min[i] if i < len(self.domains) else None

    def rho2(self, t) -> Number | None:
        """max image over samples with domain <= t; None below the data."""
        i = bisect.bisect_right(self.domains, t) - 1
        return self.prefix_max[i] if i >= 0 else None


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
