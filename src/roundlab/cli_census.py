"""The commands of the class census: `simplex build` and `counts`. Only
what a command runs of the census loads it, and with it `kernels`:
`simplex build`, `counts incidences` and an enumerated `counts pairs`."""

from __future__ import annotations

from . import cli
from .cli import (_add_class_args, _add_space_args, _class_params,
                  _print_report, _resolve_simplex_class, _resolve_space,
                  _resolve_stage_class)
from .cycles import PairClass, count_pairs_closed, stage_pair_class


def _resolve_pair_class(args) -> PairClass:
    cls = _resolve_stage_class(args, stage_pair_class)
    if cls is not None:
        return cls
    if args.delta is None or args.support is None:
        raise ValueError("give --delta and --support, or stage form --t/--m")
    return PairClass(args.delta, args.support)


def _cmd_simplex_build(args) -> int:
    from .cyclic import build_simplex, is_simplex

    space = _resolve_space(args)
    scls = _resolve_simplex_class(args)
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
    _print_report(args, "simplex build", _class_params(args, space, scls),
                  results)
    return 0


def _cmd_counts_pairs(args) -> int:
    space = _resolve_space(args)
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
    _print_report(args, "counts pairs", _class_params(args, space, cls),
                  results)
    return 0


def _cmd_counts_incidences(args) -> int:
    space = _resolve_space(args)
    scls = _resolve_simplex_class(args)
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
    _print_report(args, "counts incidences",
                  _class_params(args, space, scls), results)
    return 0


def _simplex_build_args(p) -> None:
    _add_space_args(p)
    _add_class_args(p, simplex=True)


def _counts_pairs_args(p) -> None:
    _add_space_args(p)
    _add_class_args(p, simplex=False)
    p.add_argument("--enumerate-budget", type=int, default=None,
                   help="cross-check by enumeration up to this budget")


def _counts_incidences_args(p) -> None:
    _add_space_args(p)
    _add_class_args(p, simplex=True)
    p.add_argument("--budget", type=int, default=10 ** 8,
                   help="max column transitions per counting DP")


# command words -> (handler, adds its options)
LEAVES = {
    ("simplex", "build"): (_cmd_simplex_build, _simplex_build_args),
    ("counts", "pairs"): (_cmd_counts_pairs, _counts_pairs_args),
    ("counts", "incidences"): (_cmd_counts_incidences,
                               _counts_incidences_args),
}
