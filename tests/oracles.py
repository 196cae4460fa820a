"""Enumerating oracles for quantities the package computes in closed form.

The recursive simplex enumerator below is the counter `count_incidences`
and `completion_counts` used before the coordinate-column DP replaced it;
`enumerated_level_terms` evaluates a level average's term on every class
pair, which the closed form for maps that declare `class_distance` must
match. Both are slow and only run on small classes.
"""

from roundlab import kernels
from roundlab.cyclic import enumerate_pairs, is_pair


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
