"""The commands that read a space file and audit or bracket it: `validate`
and `gr estimate`. `metric`, which holds the reader, loads when the file
is read; `roundness` only in `gr estimate`."""

from __future__ import annotations

from . import cli
from .cli import vars_params


def _cmd_validate(args) -> tuple:
    from .metric import validate_metric

    space = cli.read_space_csv(args.input, checked=False)
    rep = validate_metric(space, budget=args.budget)
    return vars_params(args), rep, rep.ok


def _cmd_gr_estimate(args) -> tuple:
    space = cli.read_space_csv(args.input, checked=not args.unchecked)
    est = cli.estimate_roundness(space, p_tolerance=args.tol,
                                 budget=args.budget, p_cap=args.p_cap)
    params = {"input": args.input, "max_size": args.max_size,
              "tol": args.tol, "budget": args.budget, "p_cap": args.p_cap}
    return params, est, True


def _validate_args(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=int, default=None,
                   help="max triangle triples to check")


def _gr_estimate_args(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--max-size", type=int, default=3,
                   help="accepted and recorded in the params, never read: "
                   "every table is probed for every double simplex")
    p.add_argument("--tol", type=float, default=1e-3,
                   help="bracket width in the exponent")
    p.add_argument("--budget", type=int, default=None,
                   help="max multiply-adds of one factorisation")
    p.add_argument("--p-cap", type=float, default=16.0)
    p.add_argument("--unchecked", action="store_true",
                   help="skip axiom validation of the input")


# command words -> (handler, adds its options)
LEAVES = {
    ("validate",): (_cmd_validate, _validate_args),
    ("gr", "estimate"): (_cmd_gr_estimate, _gr_estimate_args),
}
