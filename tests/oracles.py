"""Enumerating oracles for quantities the package computes in closed form.

The recursive simplex enumerator below is the counter `count_incidences`
and `completion_counts` used before the coordinate-column DP replaced it;
`enumerated_level_terms` evaluates a level average's term on every class
pair, which the closed form for maps that declare `class_distance` must
match. Both are slow and only run on small classes. The level hunts walk
the thresholds one level at a time, which is what the closed-form
`gap_level` and `ballchain_level` replace. The power matrix at the end
takes one `dpow` per ordered pair, where the scan's builder takes one per
unordered pair. The cyclic-product pair enumeration compares the two
metrics on every point pair, which `verify_mstar_isometry` decides by a
scan of coordinate values. The dense spectra of small cycle products
decide what the character probe reads from closed forms. The mpmath
re-sum of a witness at 160 bits is the certifier that the decimal one
replaced.
"""

import itertools
import math
from fractions import Fraction

from roundlab import kernels
from roundlab.cyclic import enumerate_pairs, is_pair
from roundlab.numerics import PRECISION_BITS, REL_TOL, dpow, to_mpf
from roundlab.roundness import _exact_gap, _pair_distances


def _partners(space, cls, point):
    return kernels.class_partners(space.coords, space.units, cls.delta,
                                  cls.support, point)


def _extend_family(space, cls, members, cands, need):
    """Ascending completions of `members` by `need` candidates.

    Invariant: every candidate is already class-related to every member, so
    each recursion only refilters against the newly chosen point.
    """
    if need == 0:
        yield tuple(members)
        return
    for i, p in enumerate(cands):
        yield from _extend_family(space, cls, members + [p],
                                  [q for q in cands[i + 1:] if is_pair(space, q, p, cls)],
                                  need - 1)


def _y_families(space, scls, xs):
    edge, conn = scls.edge_class(), scls.conn_class()
    cands = _partners(space, conn, xs[0])
    for x in xs[1:]:
        cands = [p for p in cands if is_pair(space, p, x, conn)]
    cands.sort()
    yield from _extend_family(space, edge, [], cands, scls.families)


def reference_simplex_count(space, scls):
    """Class double simplices, X/Y swap identified, by enumerating every
    family pair whose first family contains the origin."""
    edge = scls.edge_class()
    zero = (0,) * space.coords
    anchored = 0
    ecands = sorted(_partners(space, edge, zero))
    for xs in _extend_family(space, edge, [zero], ecands, scls.families - 1):
        for _ys in _y_families(space, scls, xs):
            anchored += 1
    total = anchored * space.size
    assert total % (2 * scls.families) == 0
    return total // (2 * scls.families)


def reference_completion_count(space, scls, a, b, role_edge):
    """Simplices containing (a, b) as a within-family edge (role_edge) or
    as a connecting line, by enumeration."""
    edge, conn = scls.edge_class(), scls.conn_class()
    count = 0
    if role_edge:
        ecands = sorted(p for p in _partners(space, edge, a)
                        if is_pair(space, p, b, edge))
        for xs in _extend_family(space, edge, sorted([a, b]), ecands,
                                 scls.families - 2):
            for _ys in _y_families(space, scls, xs):
                count += 1
        return count
    ecands_a = sorted(p for p in _partners(space, edge, a)
                      if is_pair(space, p, b, conn))
    for xs in _extend_family(space, edge, [a], ecands_a, scls.families - 1):
        ycands = sorted(p for p in _partners(space, edge, b)
                        if all(is_pair(space, p, x, conn) for x in xs))
        for _ys in _extend_family(space, edge, [b], ycands, scls.families - 1):
            count += 1
    return count


def enumerated_level_terms(emaps, cls, ps):
    """The distinct values of image distance^p over every class pair, one
    {p: set} per map, p = 0 counting nonzero distances. A level mean equals
    its set's one element exactly when every pair's term matches it bit for
    bit. The class is enumerated once, and each map's distances are shared
    by all exponents."""
    pairs = list(enumerate_pairs(emaps[0].space, cls, budget=None))
    out = []
    for emap in emaps:
        dists = [emap.image_distance(x, y) for x, y in pairs]
        out.append({p: {float(d) ** p if p != 0.0 else (1.0 if d > 0 else 0.0)
                        for d in dists}
                    for p in ps})
    return out


def hunted_gap_level(g):
    """min n >= 1 with 2^(1-n) <= g, by halving a threshold from 1."""
    n, threshold = 1, Fraction(1)
    while threshold > g:
        n, threshold = n + 1, threshold / 2
    return n


def hunted_ballchain_level(g):
    """min n >= 1 with 1/n <= g, by walking the ball diameters 1/n."""
    n = 1
    while Fraction(1, n) > g:
        n += 1
    return n


def reference_power_matrix(space, p):
    """float(dpow(d(i, j), p)) with one `dpow` per ordered pair, the
    builder `distance_power_matrix` replaced."""
    n = space.size
    return [[float(dpow(space.distance(i, j), p)) for j in range(n)]
            for i in range(n)]


def mpmath_certify_violation(space, ds, p):
    """`certify_violation` as it re-summed in mpmath at twice
    PRECISION_BITS: exact for rational distances at integer p, else an
    inexact gap that violates below -REL_TOL * max(scale, 1)."""
    import mpmath

    within, cross = _pair_distances(space, ds)
    exact = _exact_gap(within, cross, p)
    if exact is not None:
        return exact.is_violation()

    def power(d):
        if d == 0:
            return mpmath.mpf(0)
        if p == 0:
            return mpmath.mpf(1)
        return to_mpf(d) ** to_mpf(p)

    with mpmath.workprec(2 * PRECISION_BITS):
        lhs = mpmath.fsum(power(d) for d in within)
        rhs = mpmath.fsum(power(d) for d in cross)
        return rhs - lhs < -REL_TOL * max(lhs, rhs, 1)


def enumerated_mstar_pairs(n, variant):
    """Every unordered point pair (u, v) of MStarSpace(n) with its word and
    cyclic distance, as arrays u, v, word, cyclic: the pair comparison
    `verify_mstar_isometry` made before the coordinate scan. Only n = 2
    (256 points, 32,640 pairs) is small enough."""
    import numpy as np

    from roundlab.cayley import MStarSpace, family_word_distances

    space = MStarSpace(n)
    if space.period ** space.coords > 4096:
        raise ValueError(f"MStarSpace({n}) is too large to enumerate")
    pts = np.array(list(itertools.product(range(1, space.period + 1),
                                          repeat=space.coords)),
                   dtype=np.int64)
    iu, iv = np.triu_indices(len(pts), k=1)
    u, v = pts[iu], pts[iv]
    word = family_word_distances(v - u, space.jump, variant)
    ad = np.abs(v - u)
    cyc = np.minimum(ad, space.period - ad).max(axis=1)
    return u, v, word, cyc


def _product_power_matrix(space, p):
    """The points of a cycle product (itertools.product order) and the
    float matrix [d(x, y)^p] in quanta, 0^p = 0 as in dpow; at most 512
    points."""
    import numpy as np

    units = space.units
    if space.size > 512:
        raise ValueError(f"{space.size} points are too many for a dense matrix")
    pts = np.array(list(itertools.product(range(units), repeat=space.coords)))
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    d = np.minimum(diff, units - diff).max(axis=2).astype(float)
    return pts, np.where(d > 0, d ** p, 0.0)


def dense_product_bracket(space, p_tolerance, p_cap=16.0):
    """The roundness bracket of a cycle product by the bisection of
    `estimate_roundness`, with each probe decided by `eigvalsh`: p
    violates when the matrix [d(x, y)^p], projected on the sum-zero
    vectors, has an eigenvalue above 1e-9 times its largest entry. This is
    the dense check that the character probe replaces by closed forms."""
    import numpy as np

    def violates(p):
        _, dp = _product_power_matrix(space, p)
        n = len(dp)
        proj = np.eye(n) - 1.0 / n
        return np.linalg.eigvalsh(proj @ dp @ proj)[-1] > 1e-9 * dp.max()

    if violates(0.0):
        return 0.0, 0.0
    if not violates(p_cap):
        return p_cap, math.inf
    lower, upper = 0.0, p_cap
    while upper - lower > p_tolerance:
        mid = (lower + upper) / 2
        if violates(mid):
            upper = mid
        else:
            lower = mid
    return lower, upper


def character_quotient(space, xi, p):
    """v^T D v / v^T v for D = [d(x, y)^p] and v = cos(2 pi <xi, x> / units),
    the real part of the character with frequencies xi: the eigenvalue the
    character probe assigns to xi, in quanta."""
    import numpy as np

    pts, dp = _product_power_matrix(space, p)
    v = np.cos(2 * np.pi * (pts @ np.array(xi)) / space.units)
    return float(v @ dp @ v / (v @ v))
