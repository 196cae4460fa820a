"""Enumerating oracles for quantities the package computes in closed form.

The single-pass column DP is the one `kernels._anchored_count` ran before
its count met in the middle. The recursive simplex enumerator below is the
counter `count_incidences` and `completion_counts` used before the
coordinate-column DP replaced it; `enumerated_level_terms` evaluates a
level average's term on every class pair, which the closed form for maps
that declare `class_distance` must match. Both are slow and only run on
small classes. The level hunts walk the thresholds one level at a time,
which is what the closed-form `gap_level` and `ballchain_level` replace.
The reference power matrix takes one `power` per ordered pair, where
`DistanceIndex.power_matrix` takes one power per distinct distance. The
cyclic-product pair enumeration compares the two metrics on every point
pair, which `verify_mstar_isometry` decides by a scan of coordinate
values. The dense spectra of small cycle products, and their
eigenvalues summed over every point, decide what the character probe
reads from closed forms. The mpmath re-sum of a gap at 320 bits, four
times PRECISION_BITS, is the oracle of `certify_violation`, and the
smallest numpy eigenvalue of A(p) = -B^T D^p B, bisected in p, the
oracle of the spectral value that `SpectralProbe` brackets. The triangle
audit on the distances themselves is the one `validate_metric` ran before
it compared integers over the common denominator. The block
representatives at the end give `validate_metric` the zero and antipodal
points of each block union, an audit of `certify_corrected` that shares
none of its case analysis.
"""

import itertools
import math
from fractions import Fraction

from roundlab import BudgetExceeded, kernels
from roundlab.cyclic import enumerate_pairs, is_pair
from roundlab.exact import power
from roundlab.numerics import PRECISION_BITS


def _partners(space, cls, point):
    return kernels.class_partners(space.coords, space.units, cls.delta,
                                  cls.support, point)


def reference_anchored_count(coords, units, delta, support, families, groups,
                             partner=None, budget=None):
    """`kernels._anchored_count` as one pass over every column, before the
    count met in the middle: the same packed per-pair counts and pruning,
    and the same budget rule on its own (larger) work."""
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
        moves = kernels._columns(units, checks, partner, offset)
        for _ in range(columns):
            work += len(cur) * len(moves)
            if budget is not None and work > budget:
                raise BudgetExceeded(
                    f"counting DP needs more than {budget} column "
                    f"transitions (at least {work})")
            left -= 1
            need = (left + 1) * ones
            nxt = {}
            for state, cnt in cur.items():
                for inc, n in moves:
                    new = state + inc
                    if not new & guard and (new + need) & guard == guard:
                        nxt[new] = nxt.get(new, 0) + cnt * n
            cur = nxt
    return cur.get(guard - ones, 0)


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


def reference_validate_metric(space, budget=None):
    """`validate_metric` as it compared every triangle on the distances
    themselves (Fractions, for a rational space), as a report dict."""
    n = space.size
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
    return {"ok": (symmetry_ok and identity_ok and positivity_ok
                   and not violations),
            "symmetry_ok": symmetry_ok, "identity_ok": identity_ok,
            "positivity_ok": positivity_ok, "violations": violations,
            "checked_triples": checked, "exhaustive": checked == total}


def reference_power_matrix(space, p):
    """float(power(r, p)) for r the float nearest d(i, j) over the largest
    distance, with one `power` per ordered pair: the builder
    `DistanceIndex.power_matrix` replaced."""
    n = space.size
    top = Fraction(max(abs(space.distance(i, j)) for i in range(n)
                       for j in range(n)) or 1)
    return [[float(power(float(Fraction(space.distance(i, j)) / top), p))
             for j in range(n)] for i in range(n)]


def mpmath_certify_violation(space, ds, p):
    """Whether ds violates at p, by a re-sum that shares no arithmetic
    with `certify_violation`: exact for rational distances at integer p,
    else the sign of the gap summed in mpmath at four times
    PRECISION_BITS, where a gap within 2^-300 of the sums is taken as
    the 0 it is in exact arithmetic. Each distinct distance is powered
    once, so families of hundreds of points stay quick."""
    import functools

    import mpmath

    r = ds.r
    within = [space.distance(fam[i], fam[j]) for fam in (ds.xs, ds.ys)
              for i in range(r) for j in range(i + 1, r)]
    cross = [space.distance(x, y) for x in ds.xs for y in ds.ys]
    if p == int(p) and p >= 0 and all(isinstance(d, (int, Fraction))
                                      for d in within + cross):
        # 0**0 = 0, as in `power`
        lhs, rhs = (sum(Fraction(d) ** int(p) for d in side if d)
                    for side in (within, cross))
        return rhs < lhs

    @functools.lru_cache(maxsize=None)
    def power(d):
        if d == 0:
            return mpmath.mpf(0)
        if p == 0:
            return mpmath.mpf(1)
        d = Fraction(d)
        return (mpmath.mpf(d.numerator) / d.denominator) ** mpmath.mpf(p)

    with mpmath.workprec(4 * PRECISION_BITS):
        lhs = mpmath.fsum(power(d) for d in within)
        rhs = mpmath.fsum(power(d) for d in cross)
        return rhs - lhs < -mpmath.mpf(2) ** -300 * (lhs + rhs)


def spectral_value(space, lo=0.0, hi=16.0, steps=60):
    """The spectral value of a listed space: the largest p in [lo, hi] at
    which A(p) = -B^T D^p B, B = (e_i - e_n), is positive semidefinite,
    bisected `steps` times on numpy's smallest eigenvalue of A(p), with D
    the distances over the largest as floats. A float oracle, good to
    about 1e-12 where A(p) loses its last nonnegative eigenvalue at unit
    slope."""
    import numpy as np

    n = space.size
    d = np.array([[float(Fraction(space.distance(i, j)))
                   for j in range(n)] for i in range(n)])
    d /= d.max()

    def least(p):
        dp = d ** p
        np.fill_diagonal(dp, 0.0)
        a = dp[:-1, -1:] + dp[-1:, :-1] - dp[:-1, :-1]
        return np.linalg.eigvalsh(a)[0]

    for _ in range(steps):
        mid = (lo + hi) / 2
        if least(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def enumerated_mstar_pairs(n, variant):
    """Every unordered point pair (u, v) of (Z_P)^P, P = n^n, residues
    1..P, with its word distance under the family of jump P - 1 and its
    cyclic sup distance, as arrays u, v, word, cyclic: the pair comparison
    `verify_mstar_isometry` made before the coordinate scan. Only n = 2
    (256 points, 32,640 pairs) is small enough. Word distances are BFS
    depths: every difference lies in {-3..3}^4, which the radius-2 ball
    of either family holds."""
    import numpy as np

    from roundlab.cayley import FamilyGenerators, bfs_ball

    period = n ** n
    if period ** period > 4096:
        raise ValueError(f"(Z_{period})^{period} is too large to enumerate")
    pts = np.array(list(itertools.product(range(1, period + 1),
                                          repeat=period)),
                   dtype=np.int64)
    iu, iv = np.triu_indices(len(pts), k=1)
    u, v = pts[iu], pts[iv]
    ball = bfs_ball(FamilyGenerators(period, period - 1, variant).enumerate(),
                    2)
    word = np.array([ball[tuple(d)] for d in (v - u).tolist()],
                    dtype=np.int64)
    ad = np.abs(v - u)
    cyc = np.minimum(ad, period - ad).max(axis=1)
    return u, v, word, cyc


def _product_power_matrix(space, p):
    """The points of a cycle product (itertools.product order) and the
    float matrix [d(x, y)^p] in quanta, 0^p = 0 as in `power`; at most 512
    points."""
    import numpy as np

    units = space.units
    if space.size > 512:
        raise ValueError(f"{space.size} points are too many for a dense matrix")
    pts = np.array(list(itertools.product(range(units), repeat=space.coords)))
    diff = np.abs(pts[:, None, :] - pts[None, :, :])
    d = np.minimum(diff, units - diff).max(axis=2).astype(float)
    return pts, np.where(d > 0, d ** p, 0.0)


def dense_top_eigenvalue(space, p):
    """The largest eigenvalue of the matrix [d(x, y)^p] of a cycle product
    projected on the sum-zero vectors, by `eigvalsh`, and the matrix's
    largest entry: the dense check that the character probe replaces by
    closed forms."""
    import numpy as np

    _, dp = _product_power_matrix(space, p)
    n = len(dp)
    proj = np.eye(n) - 1.0 / n
    return float(np.linalg.eigvalsh(proj @ dp @ proj)[-1]), float(dp.max())


def interval_character_eigenvalue(space, xi, p):
    """The eigenvalue of [d(x, y)^p] at the character with frequencies xi,
    sum_x d(0, x)^p cos(2 pi <xi, x> / units) over every point x, in
    quanta, as an mpmath interval at PRECISION_BITS: summed over the
    points, not through the per-cycle factors the character probe
    multiplies."""
    from mpmath.ctx_iv import MPIntervalContext

    iv = MPIntervalContext()
    iv.prec = PRECISION_BITS
    units = space.units
    total = iv.mpf(0)
    for x in itertools.product(range(units), repeat=space.coords):
        d = max(min(v, units - v) for v in x)
        if d:
            phase = sum(f * v for f, v in zip(xi, x)) % units
            total += (iv.mpf(d) ** iv.mpf(p)
                      * iv.cos(2 * iv.pi * phase / units))
    return total


def character_quotient(space, xi, p):
    """v^T D v / v^T v for D = [d(x, y)^p] and v = cos(2 pi <xi, x> / units),
    the real part of the character with frequencies xi: the eigenvalue the
    character probe assigns to xi, in quanta."""
    import numpy as np

    pts, dp = _product_power_matrix(space, p)
    v = np.cos(2 * np.pi * (pts @ np.array(xi)) / space.units)
    return float(v @ dp @ v / (v @ v))


def representatives_space(blocks, variant):
    """Zero and antipodal representatives of each block as an explicit
    (possibly non-metric) distance matrix, and the points in its order."""
    from roundlab.metric import FiniteMetricSpace
    from roundlab.zspace import ZPoint, zeta

    pts = []
    for blk in blocks:
        pts.append(ZPoint.zero(blk))
        pts.append(ZPoint.antipode(blk))
    rows = [[zeta(p, q, variant) for q in pts] for p in pts]
    labels = tuple(
        f"M{p.block}:{'zero' if not p.residues else 'antipode'}" for p in pts)
    return FiniteMetricSpace.unchecked(rows, labels), pts
