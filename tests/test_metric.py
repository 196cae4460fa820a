"""Metric axioms, validation reports, the snowflake transform, moduli."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roundlab.metric import (FiniteMetricSpace, ModulusEnvelope,
                             empirical_moduli, snowflake, validate_metric)
from roundlab.spaces import cycle_graph_space, random_rational_metric_space


def test_constructor_validates_eagerly():
    with pytest.raises(ValueError):
        FiniteMetricSpace.from_rows([[0, 1], [2, 0]])  # asymmetric
    with pytest.raises(ValueError):
        FiniteMetricSpace.from_rows([[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        FiniteMetricSpace.from_rows([[0, 0], [0, 0]])  # zero off-diagonal
    with pytest.raises(ValueError):
        # 5 > 1 + 1: triangle failure
        FiniteMetricSpace.from_rows([[0, 1, 5], [1, 0, 1], [5, 1, 0]])


@pytest.mark.parametrize("rows, message", [
    ([[0, 1], [1]], "must be square"),
    ([[1, 2], [2, 0]], "fails identity"),
    ([[0, 1], [2, 0]], "fails symmetry"),
    ([[0, -1], [-1, 0]], "fails positivity"),
    ([[0, 1, 5], [1, 0, 1], [5, 1, 0]],
     r"triangle inequality fails at \(0,2,1\)"),
])
def test_constructor_names_first_failed_axiom(rows, message):
    with pytest.raises(ValueError, match=message):
        FiniteMetricSpace.from_rows(rows)


def test_unchecked_holds_non_metric_data():
    rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    space = FiniteMetricSpace.unchecked(rows)
    assert space.size == 3
    with pytest.raises(ValueError, match="triangle"):
        FiniteMetricSpace.from_rows(rows)
    rep = validate_metric(space)
    assert not rep.ok
    assert rep.symmetry_ok and rep.identity_ok and rep.positivity_ok
    assert rep.exhaustive
    v = rep.violations[0]
    assert (v["x"], v["z"]) in (((0), (2)), ((2), (0)))
    assert v["slack"] == Fraction(3)


def test_validate_clean_space():
    rep = validate_metric(cycle_graph_space(5))
    assert rep.ok
    assert rep.exhaustive
    assert rep.checked_triples == 5 * 4 * 3 // 2


def test_validate_budget_stops_early():
    space = cycle_graph_space(6)
    rep = validate_metric(space, budget=7)
    assert rep.checked_triples == 7
    assert not rep.exhaustive


@settings(max_examples=40, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       n=st.integers(min_value=2, max_value=9))
def test_random_rational_spaces_are_metric(seed, n):
    space = random_rational_metric_space(n, seed)
    assert validate_metric(space).ok


def test_snowflake_distances():
    space = cycle_graph_space(4)
    half = snowflake(space, Fraction(1, 2))
    assert half.distance(0, 1) == 1
    assert half.distance(0, 2) == pytest.approx(2 ** 0.5)
    # exact when the root is exact
    assert snowflake(FiniteMetricSpace.from_rows(
        [[0, 4], [4, 0]]), Fraction(1, 2)).distance(0, 1) == 2


def test_snowflake_alpha_range():
    space = cycle_graph_space(4)
    with pytest.raises(ValueError):
        snowflake(space, Fraction(3, 2))
    with pytest.raises(ValueError):
        snowflake(space, 0)
    assert snowflake(space, 1).distance(0, 2) == 2


def test_snowflake_preserves_metric():
    space = random_rational_metric_space(7, seed=2)
    assert validate_metric(snowflake(space, Fraction(1, 2))).ok


def test_empirical_moduli_envelopes():
    env = empirical_moduli([(1, 1), (2, 2), (4, 3), (8, 3), (3, 1)])
    # rho1: largest nondecreasing minorant; rho2: smallest majorant
    assert env.rho1(1) == 1
    assert env.rho1(Fraction(5, 2)) == 1  # the (3, 1) sample pulls it down
    assert env.rho1(4) == 3
    assert env.rho2(1) == 1
    assert env.rho2(3) == 2
    assert env.rho2(100) == 3
    assert env.rho1(100) is None
    assert env.rho2(Fraction(1, 2)) is None
    assert env.sandwich_ok()


def test_empirical_moduli_requires_samples():
    with pytest.raises(ValueError):
        empirical_moduli([])


@settings(max_examples=60, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                min_size=1, max_size=25))
def test_moduli_sandwich_property(samples):
    env = empirical_moduli(samples)
    assert env.sandwich_ok()
    # both envelopes are nondecreasing along the sample grid
    for t1, t2 in zip(env.domains, env.domains[1:]):
        assert env.rho1(t1) <= env.rho1(t2)
        assert env.rho2(t1) <= env.rho2(t2)
