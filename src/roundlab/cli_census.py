"""The commands of the class census: `simplex build` and `counts`. Only
what a command runs of the census loads it, and with it `kernels`:
`simplex build`, `counts incidences` and an enumerated `counts pairs`."""

from __future__ import annotations

from . import cli
from .cycle_args import (add_class_args, add_space_args, class_params,
                         resolve_simplex_class, resolve_space,
                         resolve_stage_class)
from .cycles import PairClass, count_pairs_closed, stage_pair_class


def _resolve_pair_class(args) -> PairClass:
    cls = resolve_stage_class(args, stage_pair_class)
    if cls is not None:
        return cls
    if args.delta is None or args.support is None:
        raise ValueError("give --delta and --support, or stage form --t/--m")
    return PairClass(args.delta, args.support)


def _cmd_simplex_build(args) -> tuple:
    from .cyclic import build_simplex, is_simplex

    space = resolve_space(args)
    scls = resolve_simplex_class(args)
    ds = build_simplex(space, scls)
    verified = is_simplex(space, ds, scls)
    if not verified:
        raise ArithmeticError("built simplex failed its own class check")
    results = {
        "coords": space.coords,
        "units": space.units,
        "quantum": space.quantum,
        "delta": scls.delta,
        "support": scls.support,
        "families": scls.families,
        "xs": [list(x) for x in ds.xs],
        "ys": [list(y) for y in ds.ys],
        "verified": verified,
    }
    return class_params(args, space, scls), results, True


def _cmd_counts_pairs(args) -> tuple:
    space = resolve_space(args)
    cls = _resolve_pair_class(args)
    closed = count_pairs_closed(space, cls)
    results = {"delta": cls.delta, "support": cls.support,
               "count": closed, "enumerated": None}
    if args.enumerate_budget is not None:
        seen = sum(1 for _ in cli.enumerate_pairs(space, cls,
                                                  args.enumerate_budget))
        results["enumerated"] = seen
        if seen != closed:
            raise ArithmeticError(
                f"enumeration found {seen} pairs, closed form {closed}")
    return class_params(args, space, cls), results, True


def _cmd_counts_incidences(args) -> tuple:
    space = resolve_space(args)
    scls = resolve_simplex_class(args)
    inc = cli.count_incidences(space, scls, budget=args.budget)
    results = {
        "delta": inc.delta, "support": inc.support, "families": inc.families,
        "simplices": inc.s_count,
        "edge_pairs": inc.n_edge_class,
        "conn_pairs": inc.n_conn_class,
        "simplices_per_edge_pair": inc.k_count,
        "simplices_per_conn_pair": inc.l_count,
        "edge_identity": "S*r*(r-1) == N_edge*K",
        "conn_identity": "S*r^2 == N_conn*L",
        "ratio_identity_holds": inc.ratio_identity_holds(),
    }
    return class_params(args, space, scls), results, True


def _simplex_build_args(p) -> None:
    add_space_args(p)
    add_class_args(p, simplex=True)


def _counts_pairs_args(p) -> None:
    add_space_args(p)
    add_class_args(p, simplex=False)
    p.add_argument("--enumerate-budget", type=int, default=None,
                   help="cross-check by enumeration up to this budget")


def _counts_incidences_args(p) -> None:
    add_space_args(p)
    add_class_args(p, simplex=True)
    p.add_argument("--budget", type=int, default=10 ** 8,
                   help="max column transitions per counting DP")


# command words -> (handler, adds its options)
LEAVES = {
    ("simplex", "build"): (_cmd_simplex_build, _simplex_build_args),
    ("counts", "pairs"): (_cmd_counts_pairs, _counts_pairs_args),
    ("counts", "incidences"): (_cmd_counts_incidences,
                               _counts_incidences_args),
}
