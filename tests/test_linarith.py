"""Exact rational feasibility: the phase-1 simplex behind the linear rules."""

import math
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


def _reference_feasible(constraints, variables, nonneg=()):
    """The simplex on Fraction rows with a Fraction ratio test, kept as the
    reference: the integer-native ``feasible`` must return the very same
    vertex."""
    n = len(variables)
    col = {v: j for j, v in enumerate(variables)}
    free = [j for j, v in enumerate(variables) if v not in nonneg]
    rows = []  # a.x >= b with b >= 0
    for coeffs, const, strict in constraints:
        if const > 0:
            raise ValueError("constraint constant %s is positive" % const)
        a = [F(0)] * n
        for v, c in coeffs.items():
            a[col[v]] += c
        rows.append(a + [F(1 if strict else 0) - const])
    # One scale for all rows keeps the phase-1 objective a plain sum.
    scale = math.lcm(*(c.denominator for row in rows for c in row))
    rows = [([int(c * scale) for c in row[:-1]], int(row[-1] * scale)) for row in rows]
    # A dictionary: each basic variable equals its row's last entry plus the
    # row times the nonbasic columns, all over ``d``.  Variable labels, which
    # Bland's rule orders: x_j = u_j - v_j with u_j = j and v_j = n + j, and
    # x_j = u_j when x_j is non-negative; the surplus of row i is 2n + i; its
    # artificial is 2n + m + i.  A row with b = 0 has its surplus basic; a row
    # with b > 0 has its artificial basic and its surplus as a column.
    m = len(rows)
    need = [i for i, (_, b) in enumerate(rows) if b]
    labels = list(range(n)) + [n + j for j in free] + [2 * n + i for i in need]
    tableau = []
    basis = []
    for i, (a, b) in enumerate(rows):
        surplus = [1 if k == i else 0 for k in need]
        if b:
            tableau.append([-c for c in a] + [a[j] for j in free] + surplus + [b])
            basis.append(2 * n + m + i)
        else:
            tableau.append(a + [-a[j] for j in free] + surplus + [0])
            basis.append(2 * n + i)
    d = 1
    # Phase-1 objective: the sum of the basic artificials, to be driven to 0.
    obj = [0] * (len(labels) + 1)
    for row, label in zip(tableau, basis):
        if label >= 2 * n + m:
            obj = [o + c for o, c in zip(obj, row)]
    while obj[-1]:
        entering = [(labels[j], j) for j in range(len(labels)) if obj[j] < 0]
        if not entering:
            return None
        enter = min(entering)[1]
        # The objective is bounded below by 0, so some artificial row limits
        # the step and ``leave`` is found.
        leave = min(
            (F(row[-1], -row[enter]), basis[i], i)
            for i, row in enumerate(tableau)
            if row[enter] < 0
        )[2]
        pivot = tableau[leave]
        p = pivot[enter]
        for row in tableau + [obj]:
            if row is not pivot:
                f = row[enter]
                row[:] = [(c * p - f * q) // d for c, q in zip(row, pivot)]
                row[enter] = f
        pivot[:] = [-q for q in pivot]
        pivot[enter] = d
        d = p
        if d < 0:
            d = -d
            for row in tableau + [obj]:
                row[:] = [-c for c in row]
        basis[leave], labels[enter] = labels[enter], basis[leave]
        if labels[enter] >= 2 * n + m:
            # An artificial that left the basis never needs to return.
            del labels[enter]
            for row in tableau + [obj]:
                del row[enter]
    value = [F(0)] * (2 * n)
    for row, label in zip(tableau, basis):
        if label < 2 * n:
            value[label] = F(row[-1], d)
    return {v: value[j] - value[n + j] for j, v in enumerate(variables)}


def _random_value(rng, kind):
    if kind == "int" or kind == "mixed" and rng.random() < 0.5:
        return rng.randint(-4, 4)
    return F(rng.randint(-4, 4), rng.randint(1, 4))


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_integer_native_search_returns_the_reference_vertex(kind):
    rng = random.Random({"int": 31, "fraction": 32, "mixed": 33}[kind])
    variables = ["a", "b", "c", "d", "e"]
    outcomes = set()
    for _ in range(400):
        cons = []
        for _ in range(rng.randint(1, 7)):
            chosen = rng.sample(variables, rng.randint(1, len(variables)))
            coeffs = {v: _random_value(rng, kind) for v in chosen}
            const = -abs(_random_value(rng, kind)) if rng.random() < 0.6 else 0
            cons.append((coeffs, const, rng.random() < 0.3))
        nonneg = set(rng.sample(variables, rng.randint(0, len(variables))))
        point = feasible(cons, variables, nonneg)
        assert point == _reference_feasible(cons, variables, nonneg), (cons, nonneg)
        if point is not None:
            assert all(type(x) is F for x in point.values())
            assert _holds(cons, point)
        outcomes.add((point is None, any(strict for _, _, strict in cons)))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
