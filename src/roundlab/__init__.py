"""Verification laboratory for generalized roundness of cyclic-product
spaces: counting identities, obstruction reports, injection builders, and
Cayley-graph checks, all backed by exact arithmetic where it matters.

Public names are imported from their submodule on first access, so
`import roundlab` loads no submodule and a command pays only for the code
it runs. The few names every layer shares (`Record`, `BudgetExceeded`,
`BACKEND`) are defined here, which every submodule loads anyway."""

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
    "metric": ("FiniteMetricSpace", "ModulusEnvelope", "empirical_moduli",
               "snowflake", "validate_metric"),
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
               "verify_mstar_isometry", "word_distance"),
    # helper submodules, public because the modules above import them
    "kernels": (), "numerics": (), "parallel": (),
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
    """Value semantics for a record class: equality, hash and repr over the
    fields its `__slots__` names. Records are plain classes with explicit
    constructors because generating them at import (the standard library's
    record decorator `exec`s every method and imports `inspect`) would add
    about 1 ms per class, plus 12 ms, to the start-up of every request."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

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
