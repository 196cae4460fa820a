"""The commands on block unions and Cayley graphs: `zspace` and
`cayley`."""

from __future__ import annotations

import json

from .cli import _parse_int_list, vars_params
from .exact import parse_fraction


def _cmd_zspace_validate(args) -> tuple:
    from .zspace import certify_corrected, scan_triangle_violations

    violations = scan_triangle_violations(args.variant, args.block_bound)
    results = {
        "variant": args.variant,
        "block_bound": args.block_bound,
        "violation_count": len(violations),
        "violations": violations if args.all else violations[:1],
    }
    if args.variant == "corrected":
        results["certificate"] = certify_corrected(args.block_bound)
    return vars_params(args), results, not violations


def _cmd_zspace_ball(args) -> tuple:
    from .zspace import ZPoint, ball_census

    if args.center:
        with open(args.center, "r", encoding="utf-8") as fh:
            center = ZPoint.from_json_dict(json.load(fh))
        if center.block != args.block:
            raise ValueError(f"--center is a point of block {center.block}, "
                             f"not of --block {args.block}")
    else:
        center = ZPoint.zero(args.block)
    census = ball_census(center, parse_fraction(args.radius), args.variant,
                         args.block_bound)
    return vars_params(args), census, True


def _cmd_cayley_verify(args) -> tuple:
    from .cayley import verify_mstar_isometry

    rep = verify_mstar_isometry(args.n, variant=args.variant)
    return vars_params(args), rep, rep.ok


def _cmd_cayley_roundness(args) -> tuple:
    from .cayley import (FamilyGenerators, cayley_roundness_upper,
                         standard_basis_generators)

    if args.standard_basis:
        if args.jump is not None:
            raise ValueError("give --jump or --standard-basis, not both")
        if args.variant is not None:
            raise ValueError("give --variant or --standard-basis, not both")
    elif args.jump is None:
        raise ValueError("give --jump, or --standard-basis")
    # a family defaults to merged, and the params name it for the standard
    # basis too
    args.variant = args.variant or "merged"
    gens = (standard_basis_generators(args.dim) if args.standard_basis
            else FamilyGenerators(args.dim, args.jump, args.variant))
    g = tuple(_parse_int_list(args.g))
    h = tuple(_parse_int_list(args.h))
    rep = cayley_roundness_upper(gens, g, h)
    return vars_params(args), rep, True


def _cmd_cayley_projection(args) -> tuple:
    from .cayley import block_projection_check

    rep = block_projection_check(
        _parse_int_list(args.dims), _parse_int_list(args.jumps),
        args.radius, args.variant)
    return vars_params(args), rep, rep.ok


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
    # no default, so --standard-basis can refuse it; a family reads merged
    p.add_argument("--variant", choices=("merged", "literal"))
    p.add_argument("--standard-basis", action="store_true",
                   help="use the +-e_i generators instead of a jump family")
    p.add_argument("--g", required=True, help="comma-separated generator")
    p.add_argument("--h", required=True, help="comma-separated generator")


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
