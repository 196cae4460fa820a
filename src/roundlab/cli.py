"""Command line surface; every subcommand prints one JSON report.

A handler takes the parsed arguments and returns `(params, results, ok)`:
the params its report records, its record (or a plain dict of records)
and its verdict. `main` alone times the handler, builds the `Report`,
writes it to `--out` or stdout, and maps the verdict to the exit code:
0 when the check passed or the job completed, 2 when the run surfaced a
violation, mismatch, or obstruction, 1 on errors and bad usage.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import importlib
import json
import os
import sys
import time

# Module level binds only the dispatcher's needs and the report writer.
# Each command family's handlers and option builders live in a module of
# their own (`cli_space`, `cli_inject`, `cli_census`, `cli_obstruct`,
# `cli_blocks`), which `build_parser` imports only for the command it
# builds, and each handler imports what it runs, so a request compiles
# and loads only its own command's code: numpy or mpmath only if its
# computation needs them, the census and `kernels` only if it counts or
# enumerates, the space and class options (`cycle_args`) only for a
# census or obstruct command.
from . import BACKEND, BudgetExceeded, __version__
from .report import Report

# perfbench/spans.py patches count_incidences, enumerate_pairs,
# estimate_roundness and read_space_csv on this module by name; each
# resolves on lookup (`__getattr__` below) and handlers call them through
# this module, so a patched wrapper is what runs
_LAZY = {"count_incidences": "cyclic", "enumerate_pairs": "cyclic",
         "estimate_roundness": "roundness", "read_space_csv": "metric"}


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


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _add_out(p) -> None:
    p.add_argument("--out", help="write the JSON report here instead of stdout")


def vars_params(args) -> dict:
    # the obstruct commands accept --workers and no computation reads it,
    # so it stays out of the report body
    skip = {"func", "out", "command", "sub", "workers"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and not callable(v)}


# The command tree. A leaf is (help, family): the family's module
# `cli_<family>` maps the leaf's words to its handler and the builder of
# its options (every leaf also takes --out). A top-level word maps to a
# leaf or to (help, {word: leaf}) for a command family.
COMMANDS = {
    "validate": ("audit metric axioms of a space file", "space"),
    "gr": ("generalized roundness", {
        "estimate": ("bracket the roundness between a clean probe and a "
                     "witness", "space"),
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
        "build": ("build an injection table", "inject"),
        "verify": ("re-check an injection table", "inject"),
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


def _claim_out(path: str) -> bool:
    """Open `--out` before the handler runs, so that a path that cannot
    be written is refused before any work. An existing file is opened for
    appending, which keeps its bytes; True when the file is new, which
    `main` removes again unless a report is written to it."""
    try:
        open(path, "x", encoding="utf-8").close()
        return True
    except FileExistsError:
        open(path, "a", encoding="utf-8").close()
        return False


def main(argv=None) -> int:
    # At exit, move every object still tracked into the collector's
    # permanent generation, so the interpreter's shutdown collections skip
    # what the request loaded instead of walking all of it several times.
    # Reference counting still tears down everything reachable at exit;
    # only cyclic garbage alive then goes unfinalized, and no request
    # leaves a resource to a finalizer (every file and pool is closed
    # before main returns). The hook runs only at interpreter exit, after
    # main's caller is done, so in-process callers keep their collector
    # state. Unregistering first keeps one hook however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(command_path(argv)).parse_args(argv)
    new_out = False
    try:
        if args.out:
            new_out = _claim_out(args.out)
        start = time.perf_counter()
        params, results, ok = args.func(args)
        wall = time.perf_counter() - start
        command = args.command
        if "sub" in args:
            command += f" {args.sub}"
        prov = {"version": __version__, "backend": BACKEND}
        if "seed" in args:
            prov["seed"] = args.seed
        text = Report(command, params, results, prov, wall).to_json()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            new_out = False
        else:
            try:
                print(text, flush=True)
            except BrokenPipeError:
                # the reader stopped early, its choice: the exit code keeps
                # the verdict, and with stdout on devnull the final flush
                # stays silent
                os.dup2(os.open(os.devnull, os.O_WRONLY),
                        sys.stdout.fileno())
    except BudgetExceeded as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if new_out:
            os.remove(args.out)
    return 0 if ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
