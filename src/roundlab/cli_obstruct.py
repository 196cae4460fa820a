"""The `obstruct` commands. Every one runs `obstruction`, which reads a
map's closed-form class distance and so loads neither the census nor
`kernels`; `obstruct coarse` also loads `metric`."""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

from .cli import (_add_class_args, _add_space_args, _class_params,
                  _parse_int_list, _print_report, _resolve_simplex_class,
                  _resolve_space)


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return float(Fraction(text))


def _load_moduli(path):
    from .metric import empirical_moduli

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
                and all(isinstance(v, (str, int, float)) for v in sample)):
            raise ValueError(f"moduli sample {k} is not a "
                             f"[distance, image] pair: {sample!r}")
        samples.append(tuple(v if isinstance(v, float) else Fraction(v)
                             for v in sample))
    return empirical_moduli(samples)


def _cmd_obstruct_coarse(args) -> int:
    from .obstruction import coarse_obstruction_report

    moduli = _load_moduli(args.moduli)
    rep = coarse_obstruction_report(moduli, args.p)
    _print_report(args, "obstruct coarse",
                  {"moduli": args.moduli, "p": args.p}, rep.to_dict())
    return 2 if rep.found else 0


def _cmd_obstruct_uniform(args) -> int:
    from .obstruction import uniform_obstruction_report

    ladder = _parse_int_list(args.n_ladder)
    start = time.perf_counter()
    rep = uniform_obstruction_report(args.map, ladder, args.p,
                                     samples=args.samples)
    wall = time.perf_counter() - start
    params = {"map": args.map, "n_ladder": ladder, "p": args.p,
              "samples": args.samples, "seed": args.seed}
    _print_report(args, "obstruct uniform", params, rep.to_dict(),
                  {"seed": args.seed}, wall)
    return 2 if rep.obstruction_found else 0


def _cmd_obstruct_step(args) -> int:
    from .obstruction import resolve_builtin_map, verify_step_inequality

    space = _resolve_space(args)
    scls = _resolve_simplex_class(args)
    emap = resolve_builtin_map(args.map, space)
    start = time.perf_counter()
    rep = verify_step_inequality(emap, scls, args.p, mode=args.mode,
                                 samples=args.samples)
    wall = time.perf_counter() - start
    _print_report(args, "obstruct step", _class_params(args, space, scls),
                  rep.to_dict(), {"seed": args.seed}, wall)
    return 0 if rep.holds else 2


def _cmd_obstruct_chain(args) -> int:
    from .obstruction import resolve_builtin_map, verify_chain_inequality

    space = _resolve_space(args)
    scls = _resolve_simplex_class(args)
    emap = resolve_builtin_map(args.map, space)
    start = time.perf_counter()
    rep = verify_chain_inequality(emap, scls, args.levels, args.p,
                                  mode=args.mode, samples=args.samples)
    wall = time.perf_counter() - start
    ok = rep.cumulative_holds and all(s["holds"] for s in rep.steps)
    _print_report(args, "obstruct chain", _class_params(args, space, scls),
                  rep.to_dict(), {"seed": args.seed}, wall)
    return 0 if ok else 2


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
    _add_space_args(p)
    _add_class_args(p, simplex=True)
    p.add_argument("--map", required=True)
    p.add_argument("--p", type=_parse_p, required=True)
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    _add_sampling_args(p)


def _obstruct_chain_args(p) -> None:
    _add_space_args(p)
    _add_class_args(p, simplex=True)
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
