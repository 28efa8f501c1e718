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

``lift`` is the only place the truth conditions are written: the model
checker, model synthesis and the oracle all call it.
"""

from __future__ import annotations

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
    the set ``inside`` of points where its argument holds?

    For neighbourhoods ``inside`` is the whole truth set; for the other kinds
    it is the part of the truth set within ``points_of(kind, struct)``.  With
    ``monotone`` the neighbourhoods generate an up-closed family.  Raises
    ValueError for an operator the kind cannot evaluate."""
    if kind == "kripke" and isinstance(op, Box):
        # [] f: every successor satisfies f.
        return inside.issuperset(struct)
    if kind == "neighbourhood" and isinstance(op, Box):
        # [] f: the truth set of f is a neighbourhood.
        if monotone:
            return any(member <= inside for member in struct)
        return inside in struct
    if kind == "multigraph" and isinstance(op, (GDiamond, MajW)):
        mass = sum(struct[t] for t in inside)
        if isinstance(op, GDiamond):
            # <k> f: more than k successors, with multiplicity, satisfy f.
            return mass > op.grade
        # W f: the weight inside is at least the weight outside.
        return mass >= sum(struct.values()) - mass
    if kind == "distribution" and isinstance(op, LProb):
        # L{p} f: f has probability at least p.
        return sum(struct[t] for t in inside) >= op.prob
    if kind == "game" and isinstance(op, Coal):
        # [C] f: the coalition has a joint choice whose outcome satisfies f
        # whatever the other agents choose.
        sizes, table = struct
        own = [i for i in range(len(sizes)) if i + 1 in op.agents]
        forces = {}
        for profile, t in table.items():
            choice = tuple(profile[i] for i in own)
            forces[choice] = forces.get(choice, True) and t in inside
        return any(forces.values())
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
