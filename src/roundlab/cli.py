"""Command line surface; every subcommand prints one JSON report.

Exit codes: 0 when the check passed or the job completed, 2 when the run
surfaced a violation, mismatch, or obstruction, 1 on errors and bad usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

# Module level binds what every command shares: the counting code
# (cyclic, kernels) and the report writer. `read_space_csv` and
# `estimate_roundness` resolve on lookup (`__getattr__` below), so
# `spaces`, and through it `metric`, load only in the handlers that read a
# space file (`validate`, `gr estimate`, `inject`), and `roundness` only in
# `gr estimate`. The other handlers import what they run (obstruction,
# metric, zspace, inject, cayley), so a command loads numpy or mpmath only
# if its computation does.
from . import __version__, kernels
from .cyclic import (BudgetExceeded, CycleSpace, PairClass,
                     ProductCycleSpace, SimplexClass, build_simplex,
                     count_incidences, count_pairs_closed, enumerate_pairs,
                     is_simplex, stage_pair_class, stage_range_warnings,
                     stage_simplex_class, stage_space)
from .report import Report

# perfbench/spans.py patches count_incidences, enumerate_pairs,
# estimate_roundness and read_space_csv on this module by name; handlers
# call the two lazy ones through the module object, so a patched wrapper
# is what runs
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name == "estimate_roundness":
        from .roundness import estimate_roundness
        return estimate_roundness
    if name == "read_space_csv":
        from .spaces import read_space_csv
        return read_space_csv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means `violation found`,
    so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "infinity"):
        return math.inf
    return float(Fraction(text))


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _print_report(args, command: str, params: dict, results: dict,
                  provenance_extra: dict | None = None,
                  wall_time: float | None = None) -> None:
    prov = {"version": __version__, "backend": kernels.BACKEND}
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


def _resolve_space(args) -> ProductCycleSpace:
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


def _resolve_pair_class(args) -> PairClass:
    cls = _resolve_stage_class(args, stage_pair_class)
    if cls is not None:
        return cls
    if args.delta is None or args.support is None:
        raise ValueError("give --delta and --support, or stage form --t/--m")
    return PairClass(args.delta, args.support)


def _resolve_simplex_class(args) -> SimplexClass:
    scls = _resolve_stage_class(args, stage_simplex_class)
    if scls is not None:
        return scls
    if args.delta is None or args.support is None or args.size is None:
        raise ValueError(
            "give --size, --delta and --support, or stage form --t/--m")
    return SimplexClass(args.delta, args.support, args.size)


def _cmd_validate(args) -> int:
    from .metric import validate_metric

    space = _module.read_space_csv(args.input, checked=False)
    rep = validate_metric(space, budget=args.budget)
    _print_report(args, "validate",
                  {"input": args.input, "budget": args.budget},
                  rep.to_dict())
    return 0 if rep.ok else 2


def _cmd_gr_estimate(args) -> int:
    space = _module.read_space_csv(args.input, checked=not args.unchecked)
    start = time.perf_counter()
    est = _module.estimate_roundness(
        space, max_size=args.max_size, p_tolerance=args.tol,
        budget=args.budget, p_cap=args.p_cap)
    wall = time.perf_counter() - start
    params = {"input": args.input, "max_size": args.max_size,
              "tol": args.tol, "budget": args.budget, "p_cap": args.p_cap}
    _print_report(args, "gr estimate", params, est.to_dict(), wall_time=wall)
    return 0


def _cmd_simplex_build(args) -> int:
    space = _resolve_space(args)
    scls = _resolve_simplex_class(args)
    ds = build_simplex(space, scls)
    verified = is_simplex(space, ds, scls)
    if not verified:
        raise ArithmeticError("built simplex failed its own class check")
    results = {
        "coords": space.coords,
        "units": space.units,
        "quantum": space.quantum,
        "delta": scls.delta,
        "support": scls.support,
        "families": scls.families,
        "xs": [list(x) for x in ds.xs],
        "ys": [list(y) for y in ds.ys],
        "verified": verified,
    }
    _print_report(args, "simplex build", _class_params(args, space, scls),
                  results)
    return 0


def vars_params(args) -> dict:
    # the obstruct commands accept --workers and no computation reads it,
    # so it stays out of the report body
    skip = {"func", "out", "command", "sub", "workers"}
    return {k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in vars(args).items()
            if k not in skip and not callable(v)}


def _class_params(args, space: ProductCycleSpace, cls) -> dict:
    """vars_params with the space and class the run resolved, so a
    stage-form run records what it computed on; --n, --t and --m stay as
    given."""
    params = vars_params(args)
    params.update(coords=space.coords, units=space.units,
                  quantum=str(space.quantum), delta=cls.delta,
                  support=cls.support)
    if isinstance(cls, SimplexClass):
        params["size"] = cls.families
    return params


def _cmd_counts_pairs(args) -> int:
    space = _resolve_space(args)
    cls = _resolve_pair_class(args)
    closed = count_pairs_closed(space, cls)
    results = {"delta": cls.delta, "support": cls.support,
               "count": closed, "enumerated": None}
    if args.enumerate_budget is not None:
        seen = sum(1 for _ in enumerate_pairs(space, cls,
                                              args.enumerate_budget))
        results["enumerated"] = seen
        if seen != closed:
            raise ArithmeticError(
                f"enumeration found {seen} pairs, closed form {closed}")
    _print_report(args, "counts pairs", _class_params(args, space, cls),
                  results)
    return 0


def _cmd_counts_incidences(args) -> int:
    space = _resolve_space(args)
    scls = _resolve_simplex_class(args)
    inc = count_incidences(space, scls, budget=args.budget)
    results = {
        "delta": inc.delta, "support": inc.support, "families": inc.families,
        "simplices": inc.s_count,
        "edge_pairs": inc.n_edge_class,
        "conn_pairs": inc.n_conn_class,
        "simplices_per_edge_pair": inc.k_count,
        "simplices_per_conn_pair": inc.l_count,
        "edge_identity": "S*r*(r-1) == N_edge*K",
        "conn_identity": "S*r^2 == N_conn*L",
        "ratio_identity_holds": inc.ratio_identity_holds(),
    }
    _print_report(args, "counts incidences",
                  _class_params(args, space, scls), results)
    return 0


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


def _cmd_inject_build(args) -> int:
    from .inject import build_injection, verify_injection

    space = _module.read_space_csv(args.input)
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
        space = _module.read_space_csv(args.input)
    if space is None:
        raise ValueError("map file has no embedded domain; pass --input")
    rep = verify_injection(space, table, modulus=args.modulus)
    _print_report(args, "inject verify", vars_params(args), rep.to_dict())
    return 0 if rep.ok else 2


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


def _simplex_build_args(p) -> None:
    _add_space_args(p)
    _add_class_args(p, simplex=True)


def _counts_pairs_args(p) -> None:
    _add_space_args(p)
    _add_class_args(p, simplex=False)
    p.add_argument("--enumerate-budget", type=int, default=None,
                   help="cross-check by enumeration up to this budget")


def _counts_incidences_args(p) -> None:
    _add_space_args(p)
    _add_class_args(p, simplex=True)
    p.add_argument("--budget", type=int, default=10 ** 8,
                   help="max column transitions per counting DP")


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


# The command tree. A leaf is (help, handler, adds its options; every leaf
# also takes --out); a top-level word maps to a leaf or to (help, {word:
# leaf}) for a command family.
COMMANDS = {
    "validate": ("audit metric axioms of a space file", _cmd_validate,
                 _validate_args),
    "gr": ("generalized roundness", {
        "estimate": ("bracket the roundness by bisection", _cmd_gr_estimate,
                     _gr_estimate_args),
    }),
    "simplex": ("class simplices", {
        "build": ("construct and verify a class simplex", _cmd_simplex_build,
                  _simplex_build_args),
    }),
    "counts": ("exact census", {
        "pairs": ("closed-form class pair count", _cmd_counts_pairs,
                  _counts_pairs_args),
        "incidences": ("simplex/pair incidence identities",
                       _cmd_counts_incidences, _counts_incidences_args),
    }),
    "obstruct": ("embedding obstruction reports", {
        "coarse": ("growth obstruction from a modulus table",
                   _cmd_obstruct_coarse, _obstruct_coarse_args),
        "uniform": ("fine/coarse class comparison ladder",
                    _cmd_obstruct_uniform, _obstruct_uniform_args),
        "step": ("one averaged-comparison step", _cmd_obstruct_step,
                 _obstruct_step_args),
        "chain": ("averaged comparisons down a class chain",
                  _cmd_obstruct_chain, _obstruct_chain_args),
    }),
    "zspace": ("disjoint block unions", {
        "validate": ("triangle audit of a zeta variant", _cmd_zspace_validate,
                     _zspace_validate_args),
        "ball": ("ball census around a point", _cmd_zspace_ball,
                 _zspace_ball_args),
    }),
    "inject": ("Lipschitz injections", {
        "build": ("build an injection table", _cmd_inject_build,
                  _inject_build_args),
        "verify": ("re-check an injection table", _cmd_inject_verify,
                   _inject_verify_args),
    }),
    "cayley": ("Cayley graph checks", {
        "verify": ("cyclic sup metric vs word metric", _cmd_cayley_verify,
                   _cayley_verify_args),
        "roundness": ("diagonal-configuration upper bound",
                      _cmd_cayley_roundness, _cayley_roundness_args),
        "projection": ("block-projection consistency",
                       _cmd_cayley_projection, _cayley_projection_args),
    }),
}


def _add_leaf(sub, word: str, leaf) -> None:
    help_text, handler, add_args = leaf
    p = sub.add_parser(word, help=help_text)
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
            _add_leaf(sub, word, entry)
            continue
        help_text, leaves = entry
        group = sub.add_parser(word, help=help_text).add_subparsers(
            dest="sub", required=True)
        for name, leaf in leaves.items():
            if len(path) < 2 or name == path[1]:
                _add_leaf(group, name, leaf)
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
