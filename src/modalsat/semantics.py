"""Operator semantics: one predicate lifting per modal operator.

Each logic's models have one kind of one-step structure per state, and each
modal operator is decided at a state from that structure and the truth set
of its argument.  The structure of a state, per model kind, is the value
``ModelWitness.structs`` maps it to:

* ``kripke``: the successors, a collection of points;
* ``multigraph``: ``{point: weight}`` with natural-number weights;
* ``distribution``: ``{point: probability}``;
* ``neighbourhood``: a collection of neighbourhoods, each a set of points;
* ``game``: ``(sizes, table)``, the strategy count of every agent and the
  outcome point of every strategy profile.

``lifting`` is the only place the truth conditions are written: it prepares
an operator at one structure, once, as a predicate on argument sets.  The
model checker, model synthesis and the oracle all call it, directly or
through ``lift``, which reads one argument set.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .formula import Box, Coal, GDiamond, LProb, MajW

MODEL_KINDS = {
    "K": "kripke",
    "KD": "kripke",
    "E": "neighbourhood",
    "M": "neighbourhood",
    "GML": "multigraph",
    "MAJ": "multigraph",
    "PML": "distribution",
    "COAL": "game",
}


def lift(kind: str, op, struct, inside, monotone: bool = False) -> bool:
    """Does ``op`` hold at a state of one-step structure ``struct``, given
    the set ``inside`` of points where its argument holds?  See
    ``lifting``."""
    return lifting(kind, op, struct, monotone)(inside)


def lifting(kind: str, op, struct, monotone: bool = False):
    """The predicate on ``inside`` that decides ``op`` at a state of one-step
    structure ``struct``: it tells whether ``op`` holds given the set
    ``inside`` of points where its argument holds.  What does not depend on
    ``inside`` is worked out here, once per structure.

    For neighbourhoods ``inside`` is the whole truth set; for the other kinds
    it is the part of the truth set within ``points_of(kind, struct)``.  With
    ``monotone`` the neighbourhoods generate an up-closed family.  Raises
    ValueError for an operator the kind cannot evaluate."""
    if kind == "kripke" and isinstance(op, Box):
        # [] f: every successor satisfies f.
        return frozenset(struct).issubset
    if kind == "neighbourhood" and isinstance(op, Box):
        # [] f: the truth set of f is a neighbourhood.
        if monotone:
            return lambda inside: any(member <= inside for member in struct)
        return struct.__contains__
    if kind == "multigraph" and isinstance(op, GDiamond):
        # <k> f: more than k successors, with multiplicity, satisfy f.
        return lambda inside: sum(map(struct.__getitem__, inside)) > op.grade
    if kind == "multigraph" and isinstance(op, MajW):
        # W f: the weight inside is at least the weight outside.
        total = sum(struct.values())
        return lambda inside: 2 * sum(map(struct.__getitem__, inside)) >= total
    if kind == "distribution" and isinstance(op, LProb):
        # L{p} f: f has probability at least p.  Probabilities and p become
        # integer numerators over one common denominator.
        den = math.lcm(op.prob.denominator, *(p.denominator for p in struct.values()))
        mass = {t: p.numerator * (den // p.denominator) for t, p in struct.items()}
        bound = op.prob.numerator * (den // op.prob.denominator)
        return lambda inside: sum(map(mass.__getitem__, inside)) >= bound
    if kind == "game" and isinstance(op, Coal):
        # [C] f: the coalition has a joint choice whose outcome satisfies f
        # whatever the other agents choose, that is, one whose outcome set
        # lies inside.
        sizes, table = struct
        own = [i for i in range(len(sizes)) if i + 1 in op.agents]
        choice = itemgetter(*own) if own else lambda profile: ()
        outcomes = {}
        for profile, t in table.items():
            c = choice(profile)
            if c in outcomes:
                outcomes[c].add(t)
            else:
                outcomes[c] = {t}
        sets = list(outcomes.values())
        return lambda inside: any(s <= inside for s in sets)
    raise ValueError("operator %s not checkable in %s model" % (op.render(), kind))


def points_of(kind: str, struct):
    """The points ``struct`` refers to."""
    if kind == "kripke":
        return struct
    if kind in ("multigraph", "distribution"):
        return struct.keys()
    if kind == "neighbourhood":
        return frozenset().union(*struct)
    return struct[1].values()


def relabel(kind: str, struct, f):
    """``struct`` with every point ``t`` replaced by ``f(t)``, visiting the
    points in order; ``f`` must be injective on them."""
    if kind == "kripke":
        return tuple(f(t) for t in struct)
    if kind in ("multigraph", "distribution"):
        return {f(t): c for t, c in struct.items()}
    if kind == "neighbourhood":
        return tuple(frozenset(f(t) for t in member) for member in struct)
    sizes, table = struct
    return (sizes, {profile: f(t) for profile, t in table.items()})
