"""Exact-arithmetic finite metric spaces, the metric-axiom audit, and the
reader of a space file: first line the point count n, then n rows of n
whitespace-separated rationals (`a/b` or plain integers)."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import Record


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
    try:
        # each distinct entry once, in the order of first occurrence, so
        # an error names the first bad entry in row-major order
        value = {token: Fraction(token) for token in dict.fromkeys(body)}
    except ZeroDivisionError:
        from .exact import parse_fraction

        # parsing again names the first entry with a zero denominator
        for token in body:
            parse_fraction(token)
        raise
    rows = [[value[token] for token in body[i * n:(i + 1) * n]]
            for i in range(n)]
    if checked:
        return FiniteMetricSpace.from_rows(rows)
    return FiniteMetricSpace.unchecked(rows)


def read_space_csv(path, checked: bool = True) -> FiniteMetricSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_space_text(fh.read(), checked=checked)
