"""The character probe of a cycle product, for `roundness.bracket`.
`roundness.estimate_roundness` imports this module only for a cycle
product, so a listed space never compiles it.

Witness crossings are `roundness._crossing`, looked up on that module at
each call.
"""

from __future__ import annotations

import itertools
import math
from math import comb
from typing import Optional

from . import BudgetExceeded, roundness
from .exact import intervals
from .numerics import PRECISION_BITS, violation

# the intervals a cycle product's character table may hold when the
# caller of `estimate_roundness` sets no budget: about 10 s and 100 MiB
# to build (measured at 8 coordinates of Z_16, 102,952 intervals in
# 5.3 s and 52 MiB), and 50 times the 3,952 of stage 2
TABLE_INTERVALS = 2 * 10 ** 5


def character_table(space, budget: int | None = None) -> tuple:
    """For each nontrivial folded frequency multiset xi in {0..units/2}
    (combinations_with_replacement order), the intervals prod_i D_k(xi_i),
    k = 1..units/2, at PRECISION_BITS. D_k is one cycle's character sum
    over |g| < k: sin(pi(2k-1)v/units) / sin(pi v/units), and 2k - 1 at
    v = 0. Over `budget` characters raise BudgetExceeded before any is
    built."""
    units, coords = space.units, space.coords
    need = comb(units // 2 + coords, coords) - 1
    if budget is not None and need > budget:
        raise BudgetExceeded(f"character probe needs {need} characters", need)
    iv, half = intervals(PRECISION_BITS), units // 2
    kernel = [[iv.sin(iv.pi * (2 * k - 1) * v / units)
               / iv.sin(iv.pi * v / units) if v else iv.mpf(2 * k - 1)
               for v in range(half + 1)] for k in range(1, half + 1)]
    chars = itertools.combinations_with_replacement(range(half + 1), coords)
    next(chars)  # the trivial character
    return tuple((xi, tuple(math.prod(row[v] for v in xi) for row in kernel))
                 for xi in chars)


def _eigenvalue_vanishes(units: int, xi: tuple, p) -> bool:
    """Whether the eigenvalue at xi is exactly 0, decided only at integer
    p. With zeta = exp(2 pi i / units), D_k(v) sums zeta^(v g) over
    |g| < k, so the eigenvalue is a(zeta) for an integer polynomial a
    modulo x^units - 1, and its Galois conjugates are the a(zeta^j) with
    gcd(j, units) = 1. It is 0 exactly when sum_j |a(zeta^j)|^2, that is
    sum_{s,t} a_s a_t c(s - t), is, where each Ramanujan sum c(m), the sum
    of cos(2 pi j m / units) over those j, is an integer that rounding its
    float sum gets exactly (the error is below units * 2^-50)."""
    if p != int(p):
        return False
    a = [0] * units
    for k in range(1, units // 2 + 1):
        prod = [1] + [0] * (units - 1)
        for v in xi:
            prod = [sum(prod[(e - v * g) % units] for g in range(1 - k, k))
                    for e in range(units)]
        w = k ** int(p) - (k - 1) ** int(p) if k > 1 else 1
        a = [t + w * c for t, c in zip(a, prod)]
    c = [round(math.fsum(math.cos(2 * math.pi * (j * m % units) / units)
                         for j in range(units) if math.gcd(j, units) == 1))
         for m in range(units)]
    return not sum(a[s] * a[t] * c[s - t] for s in range(units)
                   for t in range(units))


def find_violation_characters(space, p, budget: int | None = None, *,
                              table: tuple | None = None
                              ) -> Optional[tuple]:
    """The first nontrivial character of a cycle product whose eigenvalue
    in [d(x, y)^p] is positive, as its folded frequency multiset, or None.

    The sup metric is translation invariant, so the characters diagonalise
    [d(x, y)^p] and the nontrivial ones span the sum-zero vectors: no
    double simplex of any size violates at p exactly when every nontrivial
    eigenvalue is <= 0 (Schoenberg). With quantum q, d^p is q^p sum_k w_k
    [d >= kq], w_k = k^p - (k-1)^p and 0^p = 0 as in `power`, so the
    eigenvalue at xi is -q^p sum_k w_k prod_i D_k(xi_i), evaluated as an
    interval at PRECISION_BITS and decided by `numerics.violation`. One it
    leaves undecided, with none positive, must be proven 0
    (`_eigenvalue_vanishes`), else ArithmeticError.
    `table` is the space's `character_table`, built here under `budget`
    when not given.
    """
    if table is None:
        table = character_table(space, budget)
    units = space.units
    weights = _weights(units, p)
    undecided = []
    for xi, prods in table:
        verdict = violation(-_eigenvalue(weights, prods))
        if verdict:
            return xi
        if verdict is None:
            undecided.append(xi)
    for xi in undecided:
        if not _eigenvalue_vanishes(units, xi, p):
            raise ArithmeticError(f"eigenvalue at character {list(xi)} "
                                  f"undecided at p={p}; raise precision")
    return None


def _weights(units: int, p) -> list:
    """The intervals w_k = k^p - (k-1)^p, k = 1..units/2: units/2 interval
    powers at PRECISION_BITS."""
    iv = intervals(PRECISION_BITS)
    pw = [iv.mpf(k) ** iv.mpf(p) for k in range(1, units // 2 + 1)]
    return [pw[0]] + [b - a for a, b in zip(pw, pw[1:])]


def _eigenvalue(weights: list, prods: tuple):
    """The eigenvalue at a character in quanta^p, as an interval, from its
    `character_table` row."""
    return -sum(w * d for w, d in zip(weights, prods))


def _halvings(lower: float, upper: float, tol: float) -> int:
    """ceil(log2((upper - lower) / tol)): how many halvings take the
    bracket to tol."""
    return max(0, math.ceil(math.log2(upper - lower) - math.log2(tol)))


def _close_bracket(probe, crossing, lower: float, upper: float, witness,
                   tol: float, flags: list) -> tuple:
    """Narrow [lower, upper] to at most `tol`, where `lower` probed clean
    and `witness` violates at `upper`; returns (lower, upper, witness).

    Each probe sits `step` below upper, never below the midpoint. A
    violating probe at q moves upper to crossing(w, lower, q), where its
    witness w starts to violate; a clean one becomes the lower end and
    starts a new run at step tol, so a clean probe at upper - tol closes
    the bracket. Each violating probe past a run's first 2L doubles the
    step, L the halvings from the bracket at the run's start to tol.

    Bound: at most 2L(L+1) probes, for tol no finer than the float
    spacing at upper. A run makes at most 2L + 1 probes at step tol and
    L - 2 at doubled steps before it reaches the midpoint, where each
    probe halves the bracket; its clean probe leaves at least 2 halvings
    fewer (1 at the midpoint). Without the doubling the bound is only
    (upper - lower) / tol, met when each crossing lands just over tol
    below the last. Where no float lies strictly between the ends the
    loop stops and flags it."""
    step, run, halvings = tol, 0, _halvings(lower, upper, tol)
    while upper - lower > tol:
        q = upper - step
        if upper - q > step:
            # rounded down: a clean probe at q must leave at most step
            q = math.nextafter(q, upper)
        q = max(min(q, math.nextafter(upper, lower)),
                lower + (upper - lower) / 2)
        if not lower < q < upper:
            # adjacent floats: the bracket cannot narrow any further
            flags.append("tolerance below float resolution")
            break
        w = probe(q)
        if w is None:
            lower, step, run = q, tol, 0
            halvings = _halvings(lower, upper, tol)
        else:
            upper, witness, run = crossing(w, lower, q), w, run + 1
            if run > 2 * halvings:
                step *= 2
    return lower, upper, witness


class CharacterProbe:
    """The probe of a cycle product for `roundness.bracket`: its
    characters, in one `character_table` built under the budget (`plan`)
    and dropped with the probe, and `found`, the first violating one (or
    None) at each p probed. `narrow` is `_close_bracket` from the
    crossing of the witness at cap, where its own eigenvalue turns."""

    zeros = True

    def __init__(self, space):
        self.space, self.table, self.found = space, None, {}

    def plan(self, budget: int | None) -> None:
        if budget is None:
            # the table holds units/2 intervals per character, and there are
            # at least units/2 characters, so this bounds the kernel rows too
            budget = TABLE_INTERVALS // (self.space.units // 2)
        self.table = character_table(self.space, budget)

    def clean(self, p) -> bool:
        self.found[p] = find_violation_characters(self.space, p,
                                                  table=self.table)
        return self.found[p] is None

    def witness(self, p):
        return self.found[p]

    def crossing(self, w, lo: float, hi: float) -> float:
        """Where the character w, violating at hi, starts to violate."""
        prods = dict(self.table)[w]
        return roundness._crossing(lambda p: violation(-_eigenvalue(
            _weights(self.space.units, p), prods)) is True, lo, hi)

    def narrow(self, clean, cap: float, tol: float, flags: list) -> tuple:
        w = self.found[cap]
        return _close_bracket(lambda q: None if clean(q) else self.found[q],
                              self.crossing, 0.0, self.crossing(w, 0.0, cap),
                              w, tol, flags)
