"""Exact rational feasibility: the phase-1 simplex behind the linear rules."""

import random
from fractions import Fraction as F

import pytest

from modalsat.linarith import feasible


def _holds(constraints, point):
    for coeffs, const, strict in constraints:
        total = const + sum(c * point[v] for v, c in coeffs.items())
        if total < 0 or (strict and total == 0):
            return False
    return True


def _beale(strict):
    # Beale's LP, on which the textbook simplex cycles when the entering
    # column is the one of most negative cost: maximize
    # 3/4 x4 - 20 x5 + 1/2 x6 - 6 x7 subject to
    #   1/4 x4 - 8 x5 - x6 + 9 x7 <= 0,  1/2 x4 - 12 x5 - 1/2 x6 + 3 x7 <= 0,
    #   x6 <= 1,  x >= 0;  the optimum is 5/4.  The bound 1 is homogenized
    # to a scale s >= 1, and the objective asked to reach 5/4 s.
    cons = [({v: F(1)}, F(0), False) for v in ("x4", "x5", "x6", "x7")]
    cons += [
        ({"x4": F(-1, 4), "x5": F(8), "x6": F(1), "x7": F(-9)}, F(0), False),
        ({"x4": F(-1, 2), "x5": F(12), "x6": F(1, 2), "x7": F(-3)}, F(0), False),
        ({"s": F(1), "x6": F(-1)}, F(0), False),
        ({"s": F(1)}, F(-1), False),
        ({"x4": F(3, 4), "x5": F(-20), "x6": F(1, 2), "x7": F(-6), "s": F(-5, 4)}, F(0), strict),
    ]
    return cons, ["x4", "x5", "x6", "x7", "s"]


def test_beale_cycling_lp_terminates_under_bland():
    cons, variables = _beale(strict=False)
    point = feasible(cons, variables)
    assert point is not None and _holds(cons, point)
    # Past the optimum there is no point.
    cons, variables = _beale(strict=True)
    assert feasible(cons, variables) is None


def test_strict_rows_come_back_strictly_satisfied():
    cons = [
        ({"x": F(1), "y": F(-1)}, F(0), True),
        ({"y": F(1)}, F(0), False),
        ({"z": F(-1)}, F(0), True),
        ({"x": F(1, 3)}, F(-2), True),
    ]
    point = feasible(cons, ["x", "y", "z"])
    assert point is not None and _holds(cons, point)
    assert point["x"] > point["y"] and point["z"] < 0 and point["x"] > 6


def test_positive_constant_is_rejected():
    with pytest.raises(ValueError):
        feasible([({"x": F(1)}, F(1), False)], ["x"])


def test_infeasible_systems_return_none():
    assert feasible([({"x": F(1)}, F(-1), False), ({"x": F(-1)}, F(0), False)], ["x"]) is None
    # Only the strictness makes this one infeasible.
    cons = [({"x": F(1)}, F(0), False), ({"x": F(-1)}, F(0), False), ({"x": F(1)}, F(0), True)]
    assert feasible(cons, ["x"]) is None


def test_nonneg_columns_agree_with_explicit_rows():
    rng = random.Random(2718)
    variables = ["a", "b", "c", "d"]
    outcomes = set()
    for _ in range(300):
        cons = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {v: F(rng.randint(-3, 3), rng.randint(1, 3)) for v in rng.sample(variables, rng.randint(1, 4))}
            cons.append((coeffs, F(-rng.randint(0, 2)), rng.random() < 0.3))
        nonneg = set(rng.sample(variables, rng.randint(0, 4)))
        explicit = feasible(cons + [({v: F(1)}, F(0), False) for v in sorted(nonneg)], variables)
        point = feasible(cons, variables, nonneg)
        assert (point is None) == (explicit is None), (cons, nonneg)
        if point is not None:
            assert _holds(cons, point) and all(point[v] >= 0 for v in nonneg)
        outcomes.add((point is None, bool(nonneg)))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
