"""Command line surface; every subcommand prints one JSON report.

Exit codes: 0 when the check passed or the job completed, 2 when the run
surfaced a violation, mismatch, or obstruction, 1 on errors and bad usage.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from fractions import Fraction

# Module level binds only the dispatcher's needs and the report writer.
# Each command family's handlers and option builders live in a module of
# their own (`cli_space`, `cli_census`, `cli_obstruct`, `cli_blocks`),
# which `build_parser` imports only for the command it builds, and each
# handler imports what it runs, so a request compiles and loads only its
# own command's code: numpy or mpmath only if its computation needs them,
# the census and `kernels` only if it counts or enumerates.
from . import BACKEND, BudgetExceeded, __version__
from .report import Report

# perfbench/spans.py patches count_incidences, enumerate_pairs,
# estimate_roundness and read_space_csv on this module by name; each
# resolves on lookup (`__getattr__` below) and handlers call them through
# this module, so a patched wrapper is what runs
_LAZY = {"count_incidences": "cyclic", "enumerate_pairs": "cyclic",
         "estimate_roundness": "roundness", "read_space_csv": "spaces"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means `violation found`,
    so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _print_report(args, command: str, params: dict, results: dict,
                  provenance_extra: dict | None = None,
                  wall_time: float | None = None) -> None:
    prov = {"version": __version__, "backend": BACKEND}
    if provenance_extra:
        prov.update(provenance_extra)
    rep = Report(command, params, results, prov, wall_time)
    text = rep.to_json()
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early, its choice: the exit code keeps the
        # verdict, and with stdout on devnull the final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _add_out(p) -> None:
    p.add_argument("--out", help="write the JSON report here instead of stdout")


# the space and class options of the census and obstruct commands; the
# resolvers import the cycle vocabulary, which no other command loads

def _add_space_args(p) -> None:
    p.add_argument("--coords", type=int, help="number of cycle coordinates")
    p.add_argument("--units", type=int, help="units per cycle (even)")
    p.add_argument("--quantum", type=_parse_fraction, default=Fraction(1),
                   help="real length of one unit (rational, default 1)")
    p.add_argument("--n", type=int,
                   help="stage-form block size (sets coords/units/quantum)")


def _add_class_args(p, simplex: bool) -> None:
    p.add_argument("--delta", type=int, help="quanta separating a class pair")
    p.add_argument("--support", type=int, help="coordinates that differ")
    if simplex:
        p.add_argument("--size", type=int, help="family count (even, >= 2)")
    p.add_argument("--t", type=int, help="stage-form scale exponent")
    p.add_argument("--m", type=int, help="stage-form support exponent")


def _resolve_space(args):
    from .cycles import CycleSpace, ProductCycleSpace, stage_space

    if args.n is not None:
        space = stage_space(args.n)
        print(f"stage form: n={args.n} -> coords={space.coords} "
              f"units={space.units} quantum={space.quantum}", file=sys.stderr)
        return space
    if args.coords is None or args.units is None:
        raise ValueError("give --coords and --units, or stage form --n")
    return ProductCycleSpace(args.coords, CycleSpace(args.units, args.quantum))


def _resolve_stage_class(args, stage_class):
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


def _resolve_simplex_class(args):
    from .cycles import SimplexClass, stage_simplex_class

    scls = _resolve_stage_class(args, stage_simplex_class)
    if scls is not None:
        return scls
    if args.delta is None or args.support is None or args.size is None:
        raise ValueError(
            "give --size, --delta and --support, or stage form --t/--m")
    return SimplexClass(args.delta, args.support, args.size)


def vars_params(args) -> dict:
    # the obstruct commands accept --workers and no computation reads it,
    # so it stays out of the report body
    skip = {"func", "out", "command", "sub", "workers"}
    return {k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in vars(args).items()
            if k not in skip and not callable(v)}


def _class_params(args, space, cls) -> dict:
    """vars_params with the space and class the run resolved, so a
    stage-form run records what it computed on; --n, --t and --m stay as
    given."""
    from .cycles import SimplexClass

    params = vars_params(args)
    params.update(coords=space.coords, units=space.units,
                  quantum=str(space.quantum), delta=cls.delta,
                  support=cls.support)
    if isinstance(cls, SimplexClass):
        params["size"] = cls.families
    return params


# The command tree. A leaf is (help, family): the family's module
# `cli_<family>` maps the leaf's words to its handler and the builder of
# its options (every leaf also takes --out). A top-level word maps to a
# leaf or to (help, {word: leaf}) for a command family.
COMMANDS = {
    "validate": ("audit metric axioms of a space file", "space"),
    "gr": ("generalized roundness", {
        "estimate": ("bracket the roundness by bisection", "space"),
    }),
    "simplex": ("class simplices", {
        "build": ("construct and verify a class simplex", "census"),
    }),
    "counts": ("exact census", {
        "pairs": ("closed-form class pair count", "census"),
        "incidences": ("simplex/pair incidence identities", "census"),
    }),
    "obstruct": ("embedding obstruction reports", {
        "coarse": ("growth obstruction from a modulus table", "obstruct"),
        "uniform": ("fine/coarse class comparison ladder", "obstruct"),
        "step": ("one averaged-comparison step", "obstruct"),
        "chain": ("averaged comparisons down a class chain", "obstruct"),
    }),
    "zspace": ("disjoint block unions", {
        "validate": ("triangle audit of a zeta variant", "blocks"),
        "ball": ("ball census around a point", "blocks"),
    }),
    "inject": ("Lipschitz injections", {
        "build": ("build an injection table", "space"),
        "verify": ("re-check an injection table", "space"),
    }),
    "cayley": ("Cayley graph checks", {
        "verify": ("cyclic sup metric vs word metric", "blocks"),
        "roundness": ("diagonal-configuration upper bound", "blocks"),
        "projection": ("block-projection consistency", "blocks"),
    }),
}


def _add_leaf(sub, words: tuple, leaf) -> None:
    help_text, family = leaf
    module = importlib.import_module(f".cli_{family}", __package__)
    handler, add_args = module.LEAVES[words]
    p = sub.add_parser(words[-1], help=help_text)
    add_args(p)
    _add_out(p)
    p.set_defaults(func=handler)


def build_parser(path=()) -> _Parser:
    """The parser of every command; given `path`, the words of one command
    (such as ("gr", "estimate")), the same tree holding that command alone.
    Both print the same usage and errors for that command, so only help
    and unknown words need the full tree."""
    parser = _Parser(prog="roundlab",
                     description="generalized roundness verification lab")
    parser.add_argument("--version", action="version", version=__version__)
    # the top level reports unrecognized arguments under its usage line;
    # a tree holding one command spells out the full command list there
    # (argparse's own rendering of it), so that line matches the full tree's
    metavar = "{" + ",".join(COMMANDS) + "}" if path else None
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for word, entry in COMMANDS.items():
        if path and word != path[0]:
            continue
        if not isinstance(entry[1], dict):
            _add_leaf(sub, (word,), entry)
            continue
        help_text, leaves = entry
        group = sub.add_parser(word, help=help_text).add_subparsers(
            dest="sub", required=True)
        for name, leaf in leaves.items():
            if len(path) < 2 or name == path[1]:
                _add_leaf(group, (word, name), leaf)
    return parser


def command_path(argv) -> tuple:
    """The words at the head of `argv` that name one command, or () when
    they name none or `argv` asks for help: those requests go to the full
    tree, whose help text and choice errors list every command."""
    if not argv or "-h" in argv or "--help" in argv:
        return ()
    entry = COMMANDS.get(argv[0])
    if entry is None:
        return ()
    if not isinstance(entry[1], dict):
        return (argv[0],)
    if len(argv) > 1 and argv[1] in entry[1]:
        return (argv[0], argv[1])
    return ()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(command_path(argv)).parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
