"""Computational kernels, Python and numpy.

Points are tuples of residues, classes are (delta, support) in quanta. These
are the hot loops: the full-space difference census, the r=2 simplex
completion counts, and the exhaustive roundness gap scan. BACKEND names the
implementation in report provenance.

The gap scan is vectorised with numpy but keeps the summation order of a
scalar loop, so every gap, and with it every violation decision, is
bit-identical to that loop's. Each sum is a chain of elementwise IEEE adds
starting from 0.0, never a BLAS product or a reassociating reduction:

- within[X] adds d^p(x_i, x_j) over the pairs i < j in lexicographic order;
- cs[X, v] adds d^p(v, x) over the members x of X in order;
- rhs adds cs[X, y] over the members y of Y in order, and
  lhs = within[X] + within[Y];
- scale is lhs if lhs > rhs else rhs, floored at 1.0, and (X, Y) violates
  when rhs - lhs < -rel_tol * scale.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BACKEND = "pure"
# gaps computed per block of the exhaustive scan; about 0.5 MiB per array
GAP_BLOCK = 65_536


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


def completion_count_r2(coords: int, units: int, delta: int, support: int,
                        a, b, role_edge: bool) -> int:
    """Completions of an anchored pair into an r=2 class double simplex.

    role_edge: the pair is one whole family (count the partner families);
    otherwise it straddles the families (count the two missing points).
    Edge class is (2*delta, support), connecting class (delta, 2*support).
    """
    e_delta, e_sup = 2 * delta, support
    c_delta, c_sup = delta, 2 * support
    if role_edge:
        cands = [y for y in class_partners(coords, units, c_delta, c_sup, a)
                 if is_class_pair(coords, units, c_delta, c_sup, b, y)]
        n = 0
        for i, y1 in enumerate(cands):
            for y2 in cands[i + 1:]:
                if is_class_pair(coords, units, e_delta, e_sup, y1, y2):
                    n += 1
        return n
    x2s = [x2 for x2 in class_partners(coords, units, e_delta, e_sup, a)
           if is_class_pair(coords, units, c_delta, c_sup, x2, b)]
    y2s = [y2 for y2 in class_partners(coords, units, e_delta, e_sup, b)
           if is_class_pair(coords, units, c_delta, c_sup, y2, a)]
    n = 0
    for x2 in x2s:
        for y2 in y2s:
            if is_class_pair(coords, units, c_delta, c_sup, x2, y2):
                n += 1
    return n


def simplex_count_r2(coords: int, units: int, delta: int, support: int) -> int:
    """Number of r=2 class double simplices, X/Y swap identified.

    Anchors one family at the origin and scales by translation invariance:
    summing #{(X,Y): v in X} over all v counts each ordered family pair twice
    (once per member of X), and the per-v count is translation-constant.
    """
    zero = (0,) * coords
    anchored = 0
    for x2 in class_partners(coords, units, 2 * delta, support, zero):
        anchored += completion_count_r2(coords, units, delta, support, zero, x2, True)
    total = anchored * units ** coords
    if total % 4 != 0:
        raise ArithmeticError("anchored simplex total not divisible by 2r")
    return total // 4


def min_gap_scan(dp, max_size: int, rel_tol: float):
    """Scan all double simplices (multiset families, sizes 2..max_size).

    dp is a symmetric matrix of d**p values. Canonical order: family size
    ascending from 2, then both families in combinations_with_replacement
    order with the second family starting at the first (swap-symmetric
    dedup). Returns (first violating (xs, ys) or None, minimum gap seen,
    configs scanned); stops at the first violation.

    Rows of first families are taken in blocks of at most GAP_BLOCK gaps
    against every second family at or after the block's first row. Each
    gap is built from elementwise adds in the fixed order given in the
    module docstring, so it is the same float a scalar loop would get.
    """
    npts = len(dp)
    d = np.asarray(dp, dtype=np.float64).reshape(npts, npts)
    # cross sums read dp[v][u] for v in the second family and u in the
    # first: row u of the transpose holds that column
    dt = np.ascontiguousarray(d.T)
    min_gap = None
    scanned = 0
    for n in range(2, max_size + 1):
        families = list(itertools.combinations_with_replacement(range(npts), n))
        m = len(families)
        if m == 0:
            continue
        fam = np.array(families, dtype=np.intp).T.copy()
        within = np.zeros(m)
        for i in range(n):
            for j in range(i + 1, n):
                within += d[fam[i], fam[j]]
        x0 = 0
        while x0 < m:
            cols = m - x0
            x1 = min(m, x0 + max(1, GAP_BLOCK // cols))
            rows = x1 - x0
            cs = np.zeros((rows, npts))
            for k in range(n):
                cs += dt[fam[k, x0:x1]]
            rhs = np.zeros((rows, cols))
            for k in range(n):
                rhs += cs.take(fam[k, x0:], axis=1)
            lhs = within[x0:x1, None] + within[x0:]
            gap = rhs - lhs
            # pairs with the second family before the first are not scanned
            gap[:, :rows][np.tri(rows, rows, -1, dtype=bool)] = np.nan
            if min_gap is None:
                min_gap = float(gap[0, 0])
            scale = np.where(lhs > rhs, lhs, rhs)
            scale = np.where(scale < 1.0, 1.0, scale)
            hit = gap < -rel_tol * scale
            if hit.any():
                r, c = divmod(int(np.argmax(hit)), cols)
                seen = np.concatenate((gap[:r].ravel(), gap[r, :c + 1]))
                scanned += r * cols - r * (r - 1) // 2 + c - r + 1
                min_gap = _fold_min(min_gap, seen)
                return (families[x0 + r], families[x0 + c]), min_gap, scanned
            scanned += rows * cols - rows * (rows - 1) // 2
            min_gap = _fold_min(min_gap, gap)
            x0 = x1
    return None, min_gap, scanned


def _fold_min(min_gap: float, gaps) -> float:
    """Running minimum as `gap < min_gap` keeps it: NaN gaps never replace
    a number, and a NaN first gap is never replaced."""
    if math.isnan(min_gap):
        return min_gap
    return float(np.fmin(min_gap, np.fmin.reduce(gaps, axis=None)))
