"""The commands on block unions and Cayley graphs: `zspace` and
`cayley`."""

from __future__ import annotations

import json
import time
from fractions import Fraction

from .cli import _parse_int_list, _print_report, vars_params


def _cmd_zspace_validate(args) -> int:
    from .zspace import certify_corrected, scan_triangle_violations

    violations = scan_triangle_violations(args.variant, args.block_bound)
    results = {
        "variant": args.variant,
        "block_bound": args.block_bound,
        "violation_count": len(violations),
        "violations": [v.to_dict() for v in
                       (violations if args.all else violations[:1])],
    }
    if args.variant == "corrected":
        results["certificate"] = certify_corrected(args.block_bound).to_dict()
    _print_report(args, "zspace validate", vars_params(args), results)
    return 2 if violations else 0


def _cmd_zspace_ball(args) -> int:
    from .zspace import ZPoint, ball_census

    if args.center:
        with open(args.center, "r", encoding="utf-8") as fh:
            center = ZPoint.from_json_dict(json.load(fh))
    else:
        center = ZPoint.zero(args.block)
    census = ball_census(center, Fraction(args.radius), args.variant,
                         args.block_bound)
    _print_report(args, "zspace ball", vars_params(args), census.to_dict())
    return 0


def _cmd_cayley_verify(args) -> int:
    from .cayley import verify_mstar_isometry

    start = time.perf_counter()
    rep = verify_mstar_isometry(args.n, variant=args.variant)
    wall = time.perf_counter() - start
    _print_report(args, "cayley verify", vars_params(args), rep.to_dict(),
                  wall_time=wall)
    return 0 if rep.ok else 2


def _cmd_cayley_roundness(args) -> int:
    from .cayley import (FamilyGenerators, cayley_roundness_upper,
                         standard_basis_generators)

    if args.standard_basis:
        gens = standard_basis_generators(args.dim)
    else:
        if args.jump is None:
            raise ValueError("give --jump, or --standard-basis")
        gens = FamilyGenerators(args.dim, args.jump, args.variant)
    g = tuple(_parse_int_list(args.g))
    h = tuple(_parse_int_list(args.h))
    rep = cayley_roundness_upper(gens, g, h, cutoff=args.cutoff)
    _print_report(args, "cayley roundness", vars_params(args), rep.to_dict())
    return 0


def _cmd_cayley_projection(args) -> int:
    from .cayley import block_projection_check

    rep = block_projection_check(
        _parse_int_list(args.dims), _parse_int_list(args.jumps),
        args.radius, args.variant)
    _print_report(args, "cayley projection", vars_params(args), rep.to_dict())
    return 0 if rep.ok else 2


def _zspace_validate_args(p) -> None:
    p.add_argument("--variant", choices=("literal", "corrected"),
                   required=True)
    p.add_argument("--block-bound", type=int, default=8)
    p.add_argument("--all", action="store_true",
                   help="report every violation, not just the first")


def _zspace_ball_args(p) -> None:
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--center", help="ZPoint JSON file (default: zero point)")
    p.add_argument("--radius", required=True, help="rational radius")
    p.add_argument("--variant", choices=("literal", "corrected"),
                   default="corrected")
    p.add_argument("--block-bound", type=int, default=8)


def _cayley_verify_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("merged", "literal"),
                   default="merged")


def _cayley_roundness_args(p) -> None:
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--jump", type=int, default=None)
    p.add_argument("--variant", choices=("merged", "literal"),
                   default="merged")
    p.add_argument("--standard-basis", action="store_true",
                   help="use the +-e_i generators instead of a jump family")
    p.add_argument("--g", required=True, help="comma-separated generator")
    p.add_argument("--h", required=True, help="comma-separated generator")
    p.add_argument("--cutoff", type=int, default=8)


def _cayley_projection_args(p) -> None:
    p.add_argument("--dims", default="2,2")
    p.add_argument("--jumps", default="3,8")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--variant", choices=("literal", "merged"),
                   default="literal")


# command words -> (handler, adds its options)
LEAVES = {
    ("zspace", "validate"): (_cmd_zspace_validate, _zspace_validate_args),
    ("zspace", "ball"): (_cmd_zspace_ball, _zspace_ball_args),
    ("cayley", "verify"): (_cmd_cayley_verify, _cayley_verify_args),
    ("cayley", "roundness"): (_cmd_cayley_roundness, _cayley_roundness_args),
    ("cayley", "projection"): (_cmd_cayley_projection,
                               _cayley_projection_args),
}
