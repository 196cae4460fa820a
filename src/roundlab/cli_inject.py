"""The `inject` commands: build an injection table from a space file, or
re-check one. Both load `inject`, and through it `metric`."""

from __future__ import annotations

import json

from . import cli
from .cli import vars_params


def _cmd_inject_build(args) -> tuple:
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
               "verification": rep}
    return vars_params(args), results, rep.ok


def _cmd_inject_verify(args) -> tuple:
    from .inject import InjectionTable, verify_injection

    with open(args.map, "r", encoding="utf-8") as fh:
        table, space = InjectionTable.from_json_dict(json.load(fh))
    if args.input:
        space = cli.read_space_csv(args.input)
    if space is None:
        raise ValueError("map file has no embedded domain; pass --input")
    rep = verify_injection(space, table, modulus=args.modulus)
    return vars_params(args), rep, rep.ok


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
    ("inject", "build"): (_cmd_inject_build, _inject_build_args),
    ("inject", "verify"): (_cmd_inject_verify, _inject_verify_args),
}
