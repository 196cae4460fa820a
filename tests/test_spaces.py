"""Space constructors and the CSV interchange format."""

import subprocess
import sys
from fractions import Fraction

import pytest

from roundlab.metric import validate_metric
from roundlab.spaces import (cycle_graph_space, equilateral_space, line_space,
                             parse_space_text, path_graph_space,
                             planar_points_space, random_rational_metric_space,
                             read_space_csv, space_to_text, two_point_space,
                             write_space_csv)
from test_cli import suite_env


def test_cycle_graph_distances():
    space = cycle_graph_space(5)
    assert space.distance(0, 1) == 1
    assert space.distance(0, 2) == 2
    assert space.distance(0, 3) == 2
    assert space.distance(0, 4) == 1


def test_equilateral_and_two_point():
    space = equilateral_space(3, Fraction(5, 2))
    assert space.distance(0, 2) == Fraction(5, 2)
    assert two_point_space().distance(0, 1) == 1
    with pytest.raises(ValueError):
        equilateral_space(1)
    with pytest.raises(ValueError):
        equilateral_space(3, 0)


def test_path_graph():
    space = path_graph_space(4)
    assert space.distance(0, 3) == 3
    assert validate_metric(space).ok


def test_line_space():
    space = line_space([0, Fraction(1, 2), 3])
    assert space.distance(0, 1) == Fraction(1, 2)
    assert space.distance(0, 2) == 3
    with pytest.raises(ValueError):
        line_space([1, 1])


def test_planar_points_deterministic_and_distinct():
    a = planar_points_space(12, seed=4)
    b = planar_points_space(12, seed=4)
    assert a.coords == b.coords
    assert len(set(a.coords)) == 12
    assert a.distance(0, 1) == b.distance(0, 1)
    assert planar_points_space(12, seed=5).coords != a.coords


def test_random_rational_metric_deterministic():
    a = random_rational_metric_space(8, seed=9)
    b = random_rational_metric_space(8, seed=9)
    assert a.dist == b.dist
    assert validate_metric(a).ok


def test_csv_round_trip(tmp_path):
    space = random_rational_metric_space(6, seed=1)
    path = tmp_path / "space.csv"
    write_space_csv(space, path)
    back = read_space_csv(path)
    assert back.dist == space.dist
    assert space_to_text(back) == space_to_text(space)


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_space_text("")
    with pytest.raises(ValueError):
        parse_space_text("2\n0 1\n1")  # wrong entry count
    with pytest.raises(ValueError):
        parse_space_text("0")
    # checked parse applies the metric axioms
    with pytest.raises(ValueError):
        parse_space_text("2\n0 1\n2 0")


def test_parse_unchecked_accepts_non_metric():
    space = parse_space_text("3\n0 1 5\n1 0 1\n5 1 0", checked=False)
    assert space.size == 3
    assert not validate_metric(space).ok


def test_parse_fractions():
    space = parse_space_text("2\n0 1/3\n1/3 0")
    assert space.distance(0, 1) == Fraction(1, 3)


@pytest.mark.parametrize("text", [
    space_to_text(random_rational_metric_space(12, 5)),
    # one value in three spellings, each its own entry
    "3\n0 1/2 2/4\n1/2 0 0.5\n2/4 0.5 0\n",
], ids=["r12", "spellings"])
def test_parse_reads_each_entry_as_its_own_fraction(text):
    # the reader parses each distinct entry once; every entry is still
    # the Fraction its own text reads, in its own place
    body = text.split()[1:]
    assert len(set(body)) < len(body)
    for checked in (True, False):
        space = parse_space_text(text, checked=checked)
        values = [v for row in space.dist for v in row]
        assert values == [Fraction(token) for token in body]
        assert {type(v) for v in values} == {Fraction}


# parses the space text given as its argument and prints the error
_PARSE_ERROR = """
import sys
from roundlab.metric import parse_space_text
try:
    parse_space_text(sys.argv[1], checked=False)
except ValueError as exc:
    print(exc)
"""


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_parse_names_the_first_invalid_entry_in_row_major_order(hash_seed):
    # under these two hash seeds a set of the two invalid entries iterates
    # in opposite orders, so only the order of first occurrence names
    # 'worse' under both
    text = "3\n0 1 worse\n1 0 bad\nworse bad 0\n"
    proc = subprocess.run([sys.executable, "-c", _PARSE_ERROR, text],
                          capture_output=True, text=True,
                          env={**suite_env(), "PYTHONHASHSEED": hash_seed})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Invalid literal for Fraction: 'worse'\n"


@pytest.mark.parametrize("text, error", [
    ("2\n0 1/0\n1/0 0\n", "zero denominator in '1/0'"),
    # the first bad entry is named, whichever way it is bad
    ("2\n0 2/0\nbad 0\n", "zero denominator in '2/0'"),
    ("2\n0 bad\n2/0 0\n", "Invalid literal for Fraction: 'bad'"),
], ids=["repeated", "zero-first", "literal-first"])
def test_parse_names_a_zero_denominator(text, error):
    with pytest.raises(ValueError) as info:
        parse_space_text(text, checked=False)
    assert str(info.value) == error
