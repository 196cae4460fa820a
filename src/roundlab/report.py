"""Verification reports with deterministic JSON bodies.

The body (schema, command, params, results, provenance) serializes with
sorted keys and no incidental whitespace so that reruns with identical
inputs produce byte-identical bodies; wall time rides outside the body.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

SCHEMA_VERSION = 13


def sanitize(obj):
    """Make a structure JSON-safe and deterministic: Fractions become `a/b`
    strings, non-finite floats become tagged strings, numpy scalars and
    tuples collapse to built-ins, and a record becomes its `fields()`,
    each value encoded once."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [sanitize(v) for v in seq]
    if hasattr(obj, "item"):
        return sanitize(obj.item())
    if hasattr(obj, "fields"):
        return sanitize(obj.fields())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


class Report:
    __slots__ = ("command", "params", "results", "provenance", "wall_time_s")

    def __init__(self, command: str, params: dict, results,
                 provenance: dict | None = None,
                 wall_time_s: float | None = None):
        self.command = command
        self.params = params
        self.results = results
        self.provenance = {} if provenance is None else provenance
        self.wall_time_s = wall_time_s

    def body(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "params": sanitize(self.params),
            "results": sanitize(self.results),
            "provenance": sanitize(self.provenance),
        }

    def body_json(self) -> str:
        return json.dumps(self.body(), sort_keys=True, separators=(",", ":"))

    def to_json(self, indent: int | None = 2) -> str:
        full = self.body()
        if self.wall_time_s is not None:
            full["wall_time_s"] = round(self.wall_time_s, 6)
        return json.dumps(full, sort_keys=True, indent=indent)
