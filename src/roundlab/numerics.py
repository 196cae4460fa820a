"""Shared numeric conventions, the float rule: one rule (`violation`) that
decides an inequality from an exact value, a float with a proven error
radius (`gap_radius`) or an mpmath interval. The exact and interval half,
the one power rule and the one settlement of a value this rule leaves
undecided, is `exact`."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Number = Union[int, Fraction, float]

# relative rounding of a float operation, and the least normal float
UNIT, NORMAL_MIN = 2.0 ** -53, 2.0 ** -1022
# mpmath working precision of inexact fractional powers and character
# intervals; an undecided gap is re-decided at twice this
PRECISION_BITS = 80


def violation(value, radius: float = 0.0) -> Optional[bool]:
    """The one rule deciding `value >= 0`: True proven false, False proven,
    None undecided. value is exact (int or Fraction), a float within
    `radius` of the truth (value -/+ radius keep their exact signs), or an
    mpmath interval enclosing it."""
    if isinstance(value, float):
        lo, hi = value - radius, value + radius
    elif hasattr(value, "a"):
        lo, hi = value.a, value.b
    else:
        return value < 0
    return True if hi < 0 else False if lo >= 0 else None


def gap_radius(p, additions: int) -> float:
    """Relative radius of a float gap rhs - lhs of float powers b ** p,
    p >= 0, of the floats nearest the bases, each term passing at most
    `additions` rounded additions: the gap is within this times the
    computed lhs + rhs, plus `DistanceIndex.floor` a term, of the exact one
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3-4).
    With theta the error of (1 + UNIT)^p for the base, one ulp (2 UNIT,
    as glibc's pow) and the additions and subtraction, 2 theta bounds
    theta / (1 - theta) and the radius's own rounding while theta < 1/4."""
    theta = math.expm1((p + additions + 3) * UNIT)
    return 2 * theta if theta < 0.25 else math.inf
