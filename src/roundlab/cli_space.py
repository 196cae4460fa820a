"""The commands that read a space file: `validate`, `gr estimate` and
`inject`. `spaces`, and through it `metric`, load when the file is read;
`roundness` only in `gr estimate`."""

from __future__ import annotations

import json
import time

from . import cli
from .cli import _print_report, vars_params


def _cmd_validate(args) -> int:
    from .metric import validate_metric

    space = cli.read_space_csv(args.input, checked=False)
    rep = validate_metric(space, budget=args.budget)
    _print_report(args, "validate",
                  {"input": args.input, "budget": args.budget},
                  rep.to_dict())
    return 0 if rep.ok else 2


def _cmd_gr_estimate(args) -> int:
    space = cli.read_space_csv(args.input, checked=not args.unchecked)
    start = time.perf_counter()
    est = cli.estimate_roundness(
        space, max_size=args.max_size, p_tolerance=args.tol,
        budget=args.budget, p_cap=args.p_cap)
    wall = time.perf_counter() - start
    params = {"input": args.input, "max_size": args.max_size,
              "tol": args.tol, "budget": args.budget, "p_cap": args.p_cap}
    _print_report(args, "gr estimate", params, est.to_dict(), wall_time=wall)
    return 0


def _cmd_inject_build(args) -> int:
    from .inject import build_injection, verify_injection

    space = cli.read_space_csv(args.input)
    table = build_injection(space, args.target)
    rep = verify_injection(space, table, modulus=args.modulus)
    payload = table.to_json_dict(space)
    if args.map_out:
        with open(args.map_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    results = {"table": None if args.map_out else payload,
               "map_out": args.map_out,
               "verification": rep.to_dict()}
    _print_report(args, "inject build", vars_params(args), results)
    return 0 if rep.ok else 2


def _cmd_inject_verify(args) -> int:
    from .inject import InjectionTable, verify_injection

    with open(args.map, "r", encoding="utf-8") as fh:
        table, space = InjectionTable.from_json_dict(json.load(fh))
    if args.input:
        space = cli.read_space_csv(args.input)
    if space is None:
        raise ValueError("map file has no embedded domain; pass --input")
    rep = verify_injection(space, table, modulus=args.modulus)
    _print_report(args, "inject verify", vars_params(args), rep.to_dict())
    return 0 if rep.ok else 2


def _validate_args(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="max triangle triples to check")


def _gr_estimate_args(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-3,
                   help="bracket width in the exponent")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--p-cap", type=float, default=16.0)
    p.add_argument("--unchecked", action="store_true",
                   help="skip axiom validation of the input")


def _inject_build_args(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--target", required=True,
                   help="ell0 | ellp:p | ballchain:intervals|cauchy")
    p.add_argument("--map-out", dest="map_out", default=None,
                   help="write the injection table JSON here")
    p.add_argument("--modulus", default=None,
                   help="identity | root:p (default inferred from target)")


def _inject_verify_args(p) -> None:
    p.add_argument("--map", required=True)
    p.add_argument("--input", default=None,
                   help="space file overriding the embedded domain")
    p.add_argument("--modulus", default=None)


# command words -> (handler, adds its options)
LEAVES = {
    ("validate",): (_cmd_validate, _validate_args),
    ("gr", "estimate"): (_cmd_gr_estimate, _gr_estimate_args),
    ("inject", "build"): (_cmd_inject_build, _inject_build_args),
    ("inject", "verify"): (_cmd_inject_verify, _inject_verify_args),
}
