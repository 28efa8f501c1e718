"""Exact feasibility of linear inequality systems closed under scaling up.

A constraint is ``(coeffs, const, strict)`` standing for
``sum(coeffs[v] * x_v) + const >= 0`` (``> 0`` when strict), with rational
coefficients over free (unsigned) variables, except those the caller
declares non-negative.  Every ``const`` must be ``<= 0``: then the solution
set is closed under scaling up, so a strict row is feasible exactly when
``a.x + const >= 1`` is, and no epsilon is needed.

Feasibility is decided exactly by a phase-1 simplex with Bland's
smallest-index rule, which cannot cycle (Bland, *New finite pivoting rules
for the simplex method*, Math. Oper. Res. 1977).  It pivots on integers:
every entry is kept as a numerator over the common denominator ``d``, the
magnitude of the current basis determinant, so each update divides exactly
(Edmonds' integer pivoting, as in Avis' lrs).

Coefficients and constants may be ``int`` or ``Fraction``.  Every row is
scaled by the lcm of all denominators (1 when every value is an int), and
from there on the search runs on Python ints alone: the ratio test compares
by cross-multiplication, and only the returned point is made of Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional


def feasible(constraints, variables, nonneg=()) -> Optional[dict]:
    """Return a satisfying assignment (dict var -> Fraction) or None.

    ``variables`` lists every variable a constraint mentions and fixes the
    variable order, hence which vertex is returned.  Variables in ``nonneg``
    are constrained to be ``>= 0``; they get one column instead of two, and
    the other columns keep their labels, so an empty ``nonneg`` changes
    nothing.  Raises ValueError for a constraint with a positive constant.
    """
    n = len(variables)
    col = {v: j for j, v in enumerate(variables)}
    free = [j for j, v in enumerate(variables) if v not in nonneg]
    rows = []  # a.x >= b with b >= 0
    for coeffs, const, strict in constraints:
        if const > 0:
            raise ValueError("constraint constant %s is positive" % const)
        rows.append((coeffs, (1 if strict else 0) - const))
    # One scale for all rows keeps the phase-1 objective a plain sum.  An
    # int's denominator is 1, so integer rows are never scaled.
    scale = math.lcm(
        *(c.denominator for coeffs, b in rows for c in coeffs.values()),
        *(b.denominator for _, b in rows),
    )
    scaled = []
    for coeffs, b in rows:
        a = [0] * n
        for v, c in coeffs.items():
            a[col[v]] = c.numerator * (scale // c.denominator)
        scaled.append((a, b.numerator * (scale // b.denominator)))
    rows = scaled
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
        # The ratio test: the least row[-1] / -row[enter], ties to the
        # smallest basis label, compared by cross-multiplication.  The
        # objective is bounded below by 0, so some artificial row limits the
        # step and ``leave`` is found.
        leave = None
        for i, row in enumerate(tableau):
            c = row[enter]
            if c < 0 and (
                leave is None
                or row[-1] * best_c < best_b * -c
                or row[-1] * best_c == best_b * -c and basis[i] < basis[leave]
            ):
                leave, best_b, best_c = i, row[-1], -c
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
    value = [Fraction(0)] * (2 * n)
    for row, label in zip(tableau, basis):
        if label < 2 * n:
            value[label] = Fraction(row[-1], d)
    return {v: value[j] - value[n + j] for j, v in enumerate(variables)}
