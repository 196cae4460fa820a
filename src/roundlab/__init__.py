"""Verification laboratory for generalized roundness of cyclic-product
spaces: counting identities, obstruction reports, injection builders, and
Cayley-graph checks, all backed by exact arithmetic where it matters.

Public names are imported from their submodule on first access, so
`import roundlab` loads no submodule and a command pays only for the code
it runs. The few names every layer shares (`Record`, `BudgetExceeded`,
`BACKEND`, `DoubleSimplex`) are defined here, which every submodule loads
anyway."""

import importlib

__version__ = "0.1.0"
# the kernels' implementation, named in every report's provenance
BACKEND = "pure"

_EXPORTS = {
    "cyclic": ("BudgetExceeded", "CycleSpace", "DoubleSimplex", "Isometry",
               "PairClass", "ProductCycleSpace", "SimplexClass",
               "build_simplex", "count_incidences", "count_pairs_closed",
               "enumerate_pairs", "is_pair", "is_simplex", "stage_pair_class",
               "stage_simplex_class", "stage_space", "transport_pair"),
    "metric": ("FiniteMetricSpace", "validate_metric"),
    "moduli": ("ModulusEnvelope", "empirical_moduli", "snowflake"),
    "roundness": ("GapResult", "RoundnessEstimate", "estimate_roundness",
                  "find_violation_exhaustive", "simplex_gap"),
    "obstruction": ("CircleEmbeddingMap", "IdentityMap", "euler_factor",
                    "coarse_obstruction_report", "level_average",
                    "uniform_obstruction_report", "verify_chain_inequality",
                    "verify_step_inequality"),
    "zspace": ("ZPoint", "ball_census", "certify_corrected", "zeta"),
    "inject": ("build_ballchain_injection", "build_ell0_injection",
               "build_ellp_injection", "verify_injection"),
    "cayley": ("FamilyGenerators", "cayley_roundness_upper",
               "verify_mstar_isometry"),
    # helper submodules, public because the modules above import them
    "exact": (), "kernels": (), "numerics": (), "parallel": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class BudgetExceeded(Exception):
    """Raised when an enumeration or count would exceed the caller's
    budget."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class Record:
    """Value semantics for a record class: a constructor, equality, hash,
    repr and a report form over the fields its `__slots__` names, in that
    order. A class whose constructor checks, derives or defaults a value
    writes its own; one whose report renames, adds or flattens keys
    overrides `fields`.

    Records are plain classes, not generated ones, because generating them
    at import (the standard library's record decorator `exec`s every method
    and imports `inspect`) would add about 1 ms per class, plus 12 ms, to
    the start-up of every request."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields but {len(args)} were given")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}")
            if names.index(name) < len(args):
                raise TypeError(
                    f"{type(self).__name__} got field {name!r} twice")
            setattr(self, name, value)
        missing = [name for name in names[len(args):] if name not in kwargs]
        if missing:
            raise TypeError(f"{type(self).__name__} is missing field(s) "
                            f"{', '.join(map(repr, missing))}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def fields(self) -> dict:
        """The report's keys and values, before encoding: each field by its
        slot name."""
        return dict(zip(self.__slots__, self._values()))

    def to_dict(self) -> dict:
        """`fields()` made JSON-safe by `report.sanitize`."""
        from .report import sanitize

        return sanitize(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class DoubleSimplex(Record):
    """Two equal-size families of points; repetition permitted. Defined
    here, not with the cycle vocabulary, because listed spaces take
    witnesses too: `gr estimate` then loads no cycle code."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: tuple, ys: tuple):
        if len(xs) != len(ys):
            raise ValueError("families must have equal size")
        if len(xs) < 2:
            raise ValueError("families must have >= 2 members")
        self.xs = xs
        self.ys = ys

    @property
    def r(self) -> int:
        return len(self.xs)
