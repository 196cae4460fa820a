"""The exact and interval half of the numeric conventions: the one power
rule (`power`), the one settlement (`settle`) of a value the float rule
(`numerics.violation`) leaves undecided, the exact semidefiniteness test
(`_psd_value`) and the strict readers of integers and rationals. A listed
space's `gr estimate` loads it only for a gap or probe in the settle band."""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .numerics import PRECISION_BITS, Number, violation

# the most bits of an exact power's numerator or denominator in `power`:
# Fraction arithmetic takes about 0.1 s on 2^18 bits, 1 s on 2^20
EXACT_POWER_BITS = 2 ** 18


def json_int(value, entry: str) -> int:
    """`value` if it is an integer; a float (4.0 as well as 1.5) or a
    boolean read from JSON is refused with ValueError naming `entry`, not
    rounded."""
    if type(value) is not int:
        raise ValueError(f"{entry} must be an integer, got {value!r}")
    return value


def parse_fraction(text) -> Fraction:
    """Fraction(text) for a rational given as text (or an int); a zero
    denominator is refused with a ValueError naming the text, the error
    argparse reports as a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def to_mpf(d: Number, ctx=None):
    """d in the mpmath context `ctx`: mpmath itself by default, or an
    interval context of `intervals`. A float converts exactly."""
    if ctx is None:
        import mpmath as ctx
    if isinstance(d, Fraction):
        return ctx.mpf(d.numerator) / d.denominator
    return ctx.mpf(d)


def settle(evaluate, what: str) -> bool:
    """`violation` of a value the float rule left undecided, proven, with
    evaluate(lift) computing it from inputs each passed through lift: in
    Fractions (a float converts exactly) where it comes out rational, else
    on intervals at twice PRECISION_BITS; ArithmeticError naming `what`
    where those leave it undecided."""
    try:
        value = evaluate(Fraction)
    except OverflowError:
        # an exact power past the float range met an inexact one, which
        # Python rounds to a float first: the value is not rational
        value = None
    if not isinstance(value, (int, Fraction)):
        value = evaluate(functools.partial(
            to_mpf, ctx=intervals(2 * PRECISION_BITS)))
    verdict = violation(value)
    if verdict is None:
        raise ArithmeticError(f"{what} undecided at {2 * PRECISION_BITS} bits")
    return verdict


@functools.lru_cache(maxsize=2)
def intervals(bits: int):
    """An mpmath interval context of its own at `bits` of precision, so no
    caller sets the precision of the shared `mpmath.iv`."""
    from mpmath.ctx_iv import MPIntervalContext

    iv = MPIntervalContext()
    iv.prec = bits
    return iv


def exact_int_root(x: int, k: int) -> int | None:
    """Integer k-th root of x when exact, else None; integer Newton steps
    from a power of two above the root, so x may pass the float range."""
    if k <= 0:
        return None
    if k == 1 or x in (0, 1):
        return x
    # for x >= 2 with 2^k > x the only candidate root is 1, and 1^k < x
    if x < 0 or k >= x.bit_length():
        return None
    r = 1 << -(-x.bit_length() // k)
    while (s := ((k - 1) * r + x // r ** (k - 1)) // k) < r:
        r = s
    return r if r ** k == x else None


def power(d: Number, p) -> Number:
    """d**p for d >= 0, the one power rule. 0 stays 0 in its own type (the
    counting convention 0**0 = 0; any other d**0 is 1), and an mpmath
    interval gives an interval. A rational d gives the exact Fraction when
    the b-th roots of its numerator and denominator exist, for p = a/b
    read exactly (a float p too), and |a| * (their larger bit length) <=
    EXACT_POWER_BITS * b, checked before any root or power is taken; any
    other rational d gives the float of its PRECISION_BITS value. A float
    d gives float(d) ** float(p), inf past the float range."""
    if d == 0:
        return d
    if not isinstance(d, (int, Fraction)):
        if not isinstance(d, float) and hasattr(d, "a"):
            return d ** to_mpf(p, d.ctx)
        base, exponent = float(d), float(p)
        try:
            return base ** exponent
        except OverflowError:
            return math.inf
    q = Fraction(p)
    a, b = q.numerator, q.denominator
    n, m = d.as_integer_ratio()
    if abs(a) * max(n.bit_length(), m.bit_length()) <= EXACT_POWER_BITS * b:
        # with gcd(a, b) = 1, n^a is a b-th power exactly when n is, so the
        # roots come first and only roots that exist are raised to a
        rn, rm = exact_int_root(n, b), exact_int_root(m, b)
        if rn is not None and rm is not None:
            return Fraction(rn, rm) ** a
    import mpmath

    with mpmath.workprec(PRECISION_BITS):
        return float(to_mpf(d) ** to_mpf(q))


def exact_sum(terms) -> Number:
    """The sum of `terms`: a Fraction when every term is rational
    (Fraction(0) for no terms), an interval when one is an mpmath
    interval, else math.fsum of their floats."""
    terms = list(terms)
    if all(isinstance(t, (int, Fraction)) for t in terms):
        return sum(terms, Fraction(0))
    if all(isinstance(t, (int, Fraction, float)) for t in terms):
        return math.fsum(float(t) for t in terms)
    return sum(terms)


def _psd_value(rows: list):
    """A value that is >= 0 exactly when the symmetric matrix `rows` is
    positive semidefinite, exact on rationals and an interval on mpmath
    intervals: elimination on the largest remaining diagonal entry, which
    leaves a positive semidefinite Schur complement exactly when the
    matrix is one. Its least pivot when every pivot is positive; a
    negative pivot; on rationals, where the largest diagonal entry left
    is 0, 0 if every entry left is 0 (else -1); on intervals, one
    straddling 0 where a pivot is not proven positive. Where any entry is
    a float, which an inexact power leaves among rationals, its sign
    proves nothing: nan, which `violation` leaves undecided."""
    if any(isinstance(t, float) for row in rows for t in row):
        return math.nan
    rows = [list(row) for row in rows]
    live = list(range(len(rows)))
    least = None
    while live:
        k = max(live, key=lambda i: getattr(rows[i][i], "a", rows[i][i]))
        pivot = rows[k][k]
        if hasattr(pivot, "a"):
            if pivot.b < 0:
                return pivot
            if not pivot.a > 0:
                return pivot.ctx.mpf([-1, 1])
        elif pivot < 0:
            return pivot
        elif pivot == 0:
            return 0 if all(rows[i][j] == 0 for i in live
                            for j in live) else -1
        live.remove(k)
        for i in live:
            factor = rows[i][k] / pivot
            for j in live:
                rows[i][j] -= factor * rows[k][j]
        least = pivot if least is None else min(least, pivot)
    return 0 if least is None else least
