"""The `obstruct` commands. Every one runs `obstruction`, which reads a
map's closed-form class distance and so loads neither the census nor
`kernels`; `obstruct coarse` also loads `moduli`."""

from __future__ import annotations

import json
import math

from .cli import _parse_int_list, vars_params
from .cycle_args import (add_class_args, add_space_args, class_params,
                         resolve_simplex_class, resolve_space)
from .exact import parse_fraction


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(parse_fraction(text))
    except OverflowError:
        raise ValueError(f"{text!r} is beyond the float range") from None


def _load_moduli(path):
    from .moduli import empirical_moduli

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        if "samples" not in data:
            raise ValueError("moduli file lacks 'samples'")
        data = data["samples"]
    if not isinstance(data, list):
        raise ValueError("moduli samples must be a list")
    samples = []
    for k, sample in enumerate(data):
        if not (isinstance(sample, list) and len(sample) == 2
                and all(isinstance(v, (str, int, float))
                        and not isinstance(v, bool) for v in sample)):
            raise ValueError(f"moduli sample {k} is not a "
                             f"[distance, image] pair: {sample!r}")
        samples.append(tuple(v if isinstance(v, float) else parse_fraction(v)
                             for v in sample))
    return empirical_moduli(samples)


def _cmd_obstruct_coarse(args) -> tuple:
    from .obstruction import coarse_obstruction_report

    moduli = _load_moduli(args.moduli)
    rep = coarse_obstruction_report(moduli, args.p)
    return vars_params(args), rep, not rep.found


def _cmd_obstruct_uniform(args) -> tuple:
    from .obstruction import uniform_obstruction_report

    ladder = _parse_int_list(args.n_ladder)
    rep = uniform_obstruction_report(args.map, ladder, args.p,
                                     samples=args.samples)
    params = {"map": args.map, "n_ladder": ladder, "p": args.p,
              "samples": args.samples, "seed": args.seed}
    return params, rep, not rep.obstruction_found


def _cmd_obstruct_step(args) -> tuple:
    from .obstruction import resolve_builtin_map, verify_step_inequality

    space = resolve_space(args)
    scls = resolve_simplex_class(args)
    emap = resolve_builtin_map(args.map, space)
    rep = verify_step_inequality(emap, scls, args.p, mode=args.mode,
                                 samples=args.samples)
    return class_params(args, space, scls), rep, rep.holds


def _cmd_obstruct_chain(args) -> tuple:
    from .obstruction import resolve_builtin_map, verify_chain_inequality

    space = resolve_space(args)
    scls = resolve_simplex_class(args)
    emap = resolve_builtin_map(args.map, space)
    rep = verify_chain_inequality(emap, scls, args.levels, args.p,
                                  mode=args.mode, samples=args.samples)
    ok = rep.cumulative_holds and all(s["holds"] for s in rep.steps)
    return class_params(args, space, scls), rep, ok


def _obstruct_coarse_args(p) -> None:
    p.add_argument("--moduli", required=True,
                   help="JSON file of [distance, image] samples")
    p.add_argument("--p", type=_parse_p, required=True)


def _add_sampling_args(p) -> None:
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=1)


def _obstruct_uniform_args(p) -> None:
    p.add_argument("--map", required=True,
                   help="builtin:identity|circle|snowflake:a|constant")
    p.add_argument("--n-ladder", required=True, help="even depths, e.g. 2,4,6")
    p.add_argument("--p", type=_parse_p, required=True)
    _add_sampling_args(p)


def _obstruct_step_args(p) -> None:
    add_space_args(p)
    add_class_args(p, simplex=True)
    p.add_argument("--map", required=True)
    p.add_argument("--p", type=_parse_p, required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    _add_sampling_args(p)


def _obstruct_chain_args(p) -> None:
    add_space_args(p)
    add_class_args(p, simplex=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--p", type=_parse_p, required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="mc")
    _add_sampling_args(p)


# command words -> (handler, adds its options)
LEAVES = {
    ("obstruct", "coarse"): (_cmd_obstruct_coarse, _obstruct_coarse_args),
    ("obstruct", "uniform"): (_cmd_obstruct_uniform, _obstruct_uniform_args),
    ("obstruct", "step"): (_cmd_obstruct_step, _obstruct_step_args),
    ("obstruct", "chain"): (_cmd_obstruct_chain, _obstruct_chain_args),
}
