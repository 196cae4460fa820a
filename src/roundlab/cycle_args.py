"""The space and class options that the census (`cli_census`) and the
`obstruct` commands (`cli_obstruct`) share, and their resolution into a
product of cycles and a class. No other command loads this module, and
the resolvers import the cycle vocabulary, which only they need."""

from __future__ import annotations

import sys
from fractions import Fraction

from .cli import vars_params


def add_space_args(p) -> None:
    from .exact import parse_fraction

    p.add_argument("--coords", type=int, help="number of cycle coordinates")
    p.add_argument("--units", type=int, help="units per cycle (even)")
    p.add_argument("--quantum", type=parse_fraction, default=Fraction(1),
                   help="real length of one unit (rational, default 1)")
    p.add_argument("--n", type=int,
                   help="stage-form block size (sets coords/units/quantum)")


def add_class_args(p, simplex: bool) -> None:
    p.add_argument("--delta", type=int, help="quanta separating a class pair")
    p.add_argument("--support", type=int, help="coordinates that differ")
    if simplex:
        p.add_argument("--size", type=int, help="family count (even, >= 2)")
    p.add_argument("--t", type=int, help="stage-form scale exponent")
    p.add_argument("--m", type=int, help="stage-form support exponent")


def resolve_space(args):
    from .cycles import CycleSpace, ProductCycleSpace, stage_space

    if args.n is not None:
        space = stage_space(args.n)
        print(f"stage form: n={args.n} -> coords={space.coords} "
              f"units={space.units} quantum={space.quantum}", file=sys.stderr)
        return space
    if args.coords is None or args.units is None:
        raise ValueError("give --coords and --units, or stage form --n")
    return ProductCycleSpace(args.coords, CycleSpace(args.units, args.quantum))


def resolve_stage_class(args, stage_class):
    """The class given in stage form by --n, --t and --m, announced on
    stderr with its range warnings; None when neither --t nor --m is set."""
    from .cycles import SimplexClass, stage_range_warnings

    if args.t is None and args.m is None:
        return None
    if args.n is None or args.t is None or args.m is None:
        raise ValueError("stage form needs --n, --t and --m together")
    cls = stage_class(args.n, args.t, args.m)
    shape = f"delta={cls.delta} support={cls.support}"
    if isinstance(cls, SimplexClass):
        shape += f" families={cls.families}"
    print(f"stage form: (t={args.t}, m={args.m}) -> {shape}", file=sys.stderr)
    for w in stage_range_warnings(args.n, args.t, args.m):
        print(f"warning: {w}", file=sys.stderr)
    return cls


def resolve_simplex_class(args):
    from .cycles import SimplexClass, stage_simplex_class

    scls = resolve_stage_class(args, stage_simplex_class)
    if scls is not None:
        return scls
    if args.delta is None or args.support is None or args.size is None:
        raise ValueError(
            "give --size, --delta and --support, or stage form --t/--m")
    return SimplexClass(args.delta, args.support, args.size)


def class_params(args, space, cls) -> dict:
    """vars_params with the space and class the run resolved, so a
    stage-form run records what it computed on; --n, --t and --m stay as
    given."""
    from .cycles import SimplexClass

    params = vars_params(args)
    params.update(coords=space.coords, units=space.units,
                  quantum=space.quantum, delta=cls.delta,
                  support=cls.support)
    if isinstance(cls, SimplexClass):
        params["size"] = cls.families
    return params
