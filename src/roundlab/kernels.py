"""Computational kernels, Python and numpy.

Points are tuples of residues, classes are (delta, support) in quanta. These
are the hot loops: the full-space difference census, the simplex and
completion counts, and the exhaustive roundness gap scan. BACKEND names the
implementation in report provenance.

Simplex and completion counts, for every family size r, are one exact
integer DP over coordinate columns: class membership is decided coordinate
by coordinate, so a 2r-point configuration is a sequence of columns, each
mattering only through which of its point pairs differ.

The gap scan is vectorised with numpy but keeps the summation order of a
scalar loop, so every gap, and with it every violation decision, is
bit-identical to that loop's. Each sum is a chain of elementwise IEEE adds
starting from 0.0, never a BLAS product or a reassociating reduction:

- within[X] adds d^p(x_i, x_j) over the pairs i < j in lexicographic order;
- cs[v, X] adds d^p(v, x) over the members x of X in order;
- rhs adds cs[y, X] over the members y of Y in order, and
  lhs = within[X] + within[Y];
- scale is lhs if lhs > rhs else rhs, floored at 1.0, and (X, Y) violates
  when rhs - lhs < -rel_tol * scale.

Two shortcuts leave every float and decision as they are:

- rhs is the sum over Y's first n-1 members, plus cs[last member]. The
  left-to-right sum passes through that partial sum, and families with
  the same first n-1 members share it, so it is built once per prefix.
- Only gaps below -rel_tol are tested, since scale >= 1 puts every
  threshold at or below -rel_tol. A gap below zero has rhs < lhs, because
  a correctly rounded fl(rhs - lhs) keeps the sign of rhs - lhs (a gap of
  -inf, too, needs rhs < lhs), so there the scale is max(lhs, 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter

# both defined in the package, where the modules that raise or report them
# without running a kernel find them too
from . import BACKEND, BudgetExceeded  # noqa: F401

# gaps computed per block of the exhaustive scan; at 0.25 MiB per array
# the two block arrays stay in a core's L2 cache
GAP_BLOCK = 32_768


def pair_census(coords: int, units: int) -> tuple[dict, int]:
    """Census of unordered point pairs by (delta, support) difference class.

    Sweeps all nonzero difference vectors w; the U^C/2 halving accounts for
    the {w, -w} orbit exactly (antipodal vectors are their own negatives and
    pair every point with a single partner). Returns (class counts, count of
    pairs whose nonzero coordinates are not all at one cyclic distance).
    """
    half = units ** coords // 2
    counts: dict[tuple[int, int], int] = {}
    unclassified = 0
    for w in itertools.product(range(units), repeat=coords):
        delta = 0
        support = 0
        uniform = True
        for v in w:
            if v == 0:
                continue
            d = v if 2 * v <= units else units - v
            support += 1
            if delta == 0:
                delta = d
            elif d != delta:
                uniform = False
                break
        if support == 0:
            continue
        if uniform:
            key = (delta, support)
            counts[key] = counts.get(key, 0) + half
        else:
            unclassified += half
    return counts, unclassified


def class_partners(coords: int, units: int, delta: int, support: int, point):
    """All points forming a (delta, support)-pair with `point`, deterministic order."""
    offs = (delta,) if 2 * delta == units else (delta, units - delta)
    out = []
    for combo in itertools.combinations(range(coords), support):
        for signs in itertools.product(offs, repeat=support):
            y = list(point)
            for c, off in zip(combo, signs):
                y[c] = (y[c] + off) % units
            out.append(tuple(y))
    return out


def is_class_pair(coords: int, units: int, delta: int, support: int, x, y) -> bool:
    s = 0
    for a, b in zip(x, y):
        d = a - b
        if d < 0:
            d = -d
        if 2 * d > units:
            d = units - d
        if d == 0:
            continue
        if d != delta:
            return False
        s += 1
    return s == support


def _columns(units: int, checks, partner: int | None, offset: int):
    """Admissible columns as (packed increment, count): point 0 at 0, point
    `partner` (if any) at `offset`, every other value drawn from point 0's
    offsets {0, +-d}, so the cost does not depend on `units`. checks[k]
    lists (earlier point, field increment, allowed distance) for point k."""
    n = len(checks)
    table: dict[int, int] = {}
    vals = [0] * n

    def extend(k: int, inc: int) -> None:
        if k == n:
            table[inc] = table.get(inc, 0) + 1
            return
        d = checks[k][0][2]
        for v in ({offset % units} if k == partner else {0, d, units - d}):
            m = inc
            for i, bit, dist in checks[k]:
                diff = (v - vals[i]) % units
                if diff == 0:
                    continue
                if diff != dist and diff != units - dist:
                    break
                m += bit
            else:
                vals[k] = v
                extend(k + 1, m)

    extend(1, 0)
    return list(table.items())


def _anchored_count(coords: int, units: int, delta: int, support: int,
                    families: int, groups, partner: int | None = None,
                    budget: int | None = None) -> int:
    """Ordered class configurations: points 0..r-1 form one family and
    r..2r-1 the other, point 0 at the origin, and `partner` at `offset` in
    each of the `columns` of every (offset, columns) group. Pairs inside a
    family differ by 2*delta in exactly `support` columns, pairs across by
    delta in support*r. The state packs per-pair counts, one field each,
    started at guard - 1 - target: a count past its target sets its guard
    bit, and adding remaining + 1 to every field sets all guard bits only
    while every target is still reachable.

    The work is len(states) * len(moves) transitions per column; the
    count raises BudgetExceeded before a column that would take the
    total past `budget`."""
    r = families
    pairs = list(itertools.combinations(range(2 * r), 2))
    width = (coords + 1).bit_length() + 1
    top = 1 << (width - 1)
    ones = sum(1 << (f * width) for f in range(len(pairs)))
    guard = top * ones
    start = guard - ones
    checks = [[] for _ in range(2 * r)]
    for f, (i, k) in enumerate(pairs):
        same = (i < r) == (k < r)
        start -= (support if same else support * r) << (f * width)
        checks[k].append((i, 1 << (f * width), 2 * delta if same else delta))
    cur = {start: 1}
    left = coords
    work = 0
    for offset, columns in groups:
        moves = _columns(units, checks, partner, offset)
        for _ in range(columns):
            work += len(cur) * len(moves)
            if budget is not None and work > budget:
                raise BudgetExceeded(
                    f"counting DP needs more than {budget} column "
                    f"transitions (at least {work})")
            left -= 1
            need = (left + 1) * ones
            nxt: dict[int, int] = {}
            for state, cnt in cur.items():
                for inc, n in moves:
                    new = state + inc
                    if not new & guard and (new + need) & guard == guard:
                        nxt[new] = nxt.get(new, 0) + cnt * n
            cur = nxt
    return cur.get(guard - ones, 0)


def _exact_quotient(total: int, divisor: int) -> int:
    q, rem = divmod(total, divisor)
    if rem:
        raise ArithmeticError(f"ordered count {total} not divisible by {divisor}")
    return q


def simplex_count(coords: int, units: int, delta: int, support: int,
                  families: int, budget: int | None = None) -> int:
    """Class double simplices with r = `families` points per family, X/Y
    swap identified: by translation invariance the anchored ordered count
    times units^coords, over the 2 * r!^2 orderings of each simplex."""
    anchored = _anchored_count(coords, units, delta, support, families,
                               [(0, coords)], budget=budget)
    return _exact_quotient(anchored * units ** coords,
                           2 * math.factorial(families) ** 2)


def completion_count(coords: int, units: int, delta: int, support: int,
                     families: int, a, b, role_edge: bool,
                     budget: int | None = None) -> int:
    """Simplices containing the class pair (a, b) as a within-family edge
    (role_edge: b is point 1, (r-2)! * r! orderings) or as a connecting
    line (b is point r, (r-1)!^2 orderings); a is point 0, and columns are
    grouped by b's offset from a."""
    r = families
    groups = Counter((y - x) % units for x, y in zip(a, b))
    ordered = _anchored_count(coords, units, delta, support, r,
                              sorted(groups.items()), 1 if role_edge else r,
                              budget)
    f = math.factorial
    return _exact_quotient(ordered, f(r - 2) * f(r) if role_edge else f(r - 1) ** 2)


# The r=2 names exist only because the benchmark harness traces them by
# name; a benchmark change retires them.
def completion_count_r2(coords, units, delta, support, a, b, role_edge):
    return completion_count(coords, units, delta, support, 2, a, b, role_edge)


def simplex_count_r2(coords, units, delta, support):
    return simplex_count(coords, units, delta, support, 2)


@functools.lru_cache(maxsize=8)
def _family_index(npts: int, n: int):
    """The p-independent index of the size-n families on npts points, read
    by every probe of one space: the members of each family in canonical
    order as an [n, m] array, the (n-1)-prefix families as an [n-1, q]
    array, and for each family the index of its prefix. Canonical order
    lists a prefix's families together, last member ascending from the
    prefix's last member, so prefix k has npts - pre[-1, k] families."""
    import numpy as np

    def members(k):
        count = math.comb(npts + k - 1, k)
        flat = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(npts), k)),
            dtype=np.intp, count=count * k)
        return np.ascontiguousarray(flat.reshape(count, k).T)

    fam, pre = members(n), members(n - 1)
    prefix = np.repeat(np.arange(pre.shape[1]), npts - pre[-1])
    for a in (fam, pre, prefix):
        a.flags.writeable = False
    return fam, pre, prefix


def min_gap_scan(dp, max_size: int, rel_tol: float):
    """Scan all double simplices (multiset families, sizes 2..max_size).

    dp is the matrix of d**p values and rel_tol >= 0. Canonical
    order: family size ascending from 2, then both families in
    combinations_with_replacement order with the second family starting at
    the first (swap-symmetric dedup). Returns (first violating (xs, ys) or
    None, minimum gap seen, configs scanned); stops at the first violation.

    First families X are taken in blocks of at most GAP_BLOCK gaps against
    every second family Y at or after the block's first X, held as a
    [Y, X] array so that every gather copies whole rows. Each gap is built
    in the order given in the module docstring, so it is the same float a
    scalar loop would get. The violation test runs only on blocks whose
    smallest gap is below -rel_tol, on those gaps, and the first hit is
    the first in (X, Y) order, the loop's.
    """
    import numpy as np

    if rel_tol < 0:
        raise ValueError("rel_tol must be nonnegative")
    npts = len(dp)
    d = np.asarray(dp, dtype=np.float64).reshape(npts, npts)
    min_gap = None
    scanned = 0
    for n in range(2, max_size + 1):
        fam, pre, prefix = _family_index(npts, n)
        m = fam.shape[1]
        last = fam[-1]
        within = np.zeros(m)
        for i in range(n):
            for j in range(i + 1, n):
                within += d[fam[i], fam[j]]
        # a block holds at most max(GAP_BLOCK, m) gaps
        size = max(GAP_BLOCK, m)
        gap_buf, lhs_buf = np.empty(size), np.empty(size)
        x0 = 0
        while x0 < m:
            cols = m - x0
            x1 = min(m, x0 + max(1, GAP_BLOCK // cols))
            rows = x1 - x0
            cs = np.zeros((npts, rows))
            for k in range(n):
                cs += d.take(fam[k, x0:x1], axis=1)
            partial = np.zeros((pre.shape[1], rows))
            for k in range(n - 1):
                partial += cs.take(pre[k], axis=0)
            gap = gap_buf[:cols * rows].reshape(cols, rows)
            lhs = lhs_buf[:cols * rows].reshape(cols, rows)
            # rhs = partial[prefix] + cs[last member], the lhs buffer
            # holding the cs rows; mode="clip" (the indices are in range)
            # spares take's buffered copy of `out`
            partial.take(prefix[x0:], axis=0, out=gap, mode="clip")
            cs.take(last[x0:], axis=0, out=lhs, mode="clip")
            gap += lhs
            np.add(within[x0:, None], within[x0:x1], out=lhs)
            gap -= lhs
            # pairs with the second family before the first are not scanned
            gap[:rows][~np.tri(rows, rows, dtype=bool)] = np.nan
            # the running minimum as `gap < min_gap` keeps it: NaN gaps
            # never replace a number, and a NaN first gap is never replaced
            if min_gap is None:
                min_gap = float(gap[0, 0])
            low = np.fmin.reduce(gap, axis=None)
            if low < -rel_tol:
                ys, xs = np.nonzero(gap < -rel_tol)
                # a negative gap has rhs < lhs: the scale is max(lhs, 1)
                hit = gap[ys, xs] < -rel_tol * np.maximum(lhs[ys, xs], 1.0)
                if hit.any():
                    ys, xs = ys[hit], xs[hit]
                    first = np.lexsort((ys, xs))[0]
                    r, c = int(xs[first]), int(ys[first])
                    seen = np.concatenate((gap[:, :r].ravel(), gap[:c + 1, r]))
                    scanned += r * cols - r * (r - 1) // 2 + c - r + 1
                    low = np.fmin.reduce(seen)
                    if low < min_gap:
                        min_gap = float(low)
                    return ((tuple(fam[:, x0 + r].tolist()),
                             tuple(fam[:, x0 + c].tolist())),
                            min_gap, scanned)
            scanned += rows * cols - rows * (rows - 1) // 2
            if low < min_gap:
                min_gap = float(low)
            x0 = x1
    return None, min_gap, scanned

