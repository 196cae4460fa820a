"""The snowflake transform of a metric space and the empirical embedding
moduli of (domain, image) samples. Of the commands, only `obstruct
coarse` loads this module."""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Sequence

from . import Record
from .exact import power
from .numerics import Number


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
