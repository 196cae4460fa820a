"""JSON report bodies: sanitization, determinism, wall-time separation."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from roundlab.report import Report, sanitize


def test_sanitize_fractions_and_floats():
    assert sanitize(Fraction(3, 8)) == "3/8"
    assert sanitize(Fraction(-7)) == "-7"
    assert sanitize(math.inf) == "inf"
    assert sanitize(-math.inf) == "-inf"
    assert sanitize(math.nan) == "nan"
    assert sanitize(0.5) == 0.5
    assert sanitize(True) is True  # bools survive the int check
    assert sanitize(None) is None


def test_sanitize_containers():
    assert sanitize((1, Fraction(1, 2))) == [1, "1/2"]
    assert sanitize({3, 1, 2}) == [1, 2, 3]
    assert sanitize({Fraction(1, 2): math.inf}) == {"1/2": "inf"}
    assert sanitize(np.int64(7)) == 7
    assert sanitize(np.float64(0.25)) == 0.25

    class Thing:
        def to_dict(self):
            return {"x": Fraction(1, 3)}

    assert sanitize(Thing()) == {"x": "1/3"}
    with pytest.raises(TypeError):
        sanitize(object())


def test_body_excludes_wall_time():
    rep = Report("demo", {"a": 1}, {"ok": True}, {"version": "x"}, 1.25)
    body = rep.body()
    assert "wall_time_s" not in body
    assert body["schema"] == 6
    full = json.loads(rep.to_json())
    assert full["wall_time_s"] == 1.25
    assert {k: v for k, v in full.items() if k != "wall_time_s"} == body


def test_body_json_byte_identical():
    mk = lambda wall: Report("demo", {"p": Fraction(1, 2)},
                             {"gap": -4.0}, {"seed": 3}, wall)
    assert mk(0.1).body_json() == mk(9.9).body_json()
    assert json.loads(mk(0.1).body_json()) == mk(None).body()


def test_to_json_round_trips():
    rep = Report("demo", {"q": Fraction(5, 4)}, {"vals": (1, 2)}, {})
    parsed = json.loads(rep.to_json())
    assert parsed == rep.body()
    assert parsed["params"]["q"] == "5/4"
    assert parsed["results"]["vals"] == [1, 2]
