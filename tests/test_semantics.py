"""Operator semantics: each prepared lifting against a plain restatement of
its truth condition."""

import itertools
import random
from fractions import Fraction

import pytest

from modalsat.formula import Box, Coal, GDiamond, LProb, MajW
from modalsat.semantics import lift, lifting


def _subsets(points):
    points = sorted(points)
    for r in range(len(points) + 1):
        for combo in itertools.combinations(points, r):
            yield frozenset(combo)


def _kripke(rng):
    n = rng.randint(0, 4)
    struct = frozenset(t for t in range(n) if rng.random() < 0.6)
    return Box(), struct, range(n), lambda inside: all(t in inside for t in struct)


def _neighbourhood(monotone):
    def make(rng):
        n = rng.randint(0, 3)
        every = list(_subsets(range(n)))
        struct = tuple(s for s in every if rng.random() < 0.3)
        if monotone:
            return Box(), struct, range(n), lambda inside: any(
                all(t in inside for t in s) for s in struct
            )
        return Box(), struct, range(n), lambda inside: any(s == inside for s in struct)

    return make


def _multigraph(rng):
    struct = {t: rng.randint(0, 4) for t in range(rng.randint(0, 4))}

    def weight(points):
        return sum(c for t, c in struct.items() if t in points)

    if rng.random() < 0.5:
        k = rng.randint(0, 6)
        return GDiamond(k), struct, struct, lambda inside: weight(inside) > k

    def majority(inside):
        return weight(inside) >= weight({t for t in struct if t not in inside})

    return MajW(), struct, struct, majority


def _distribution(rng):
    n = rng.randint(1, 4)
    den = rng.randint(1, 12)
    cuts = sorted(rng.randint(0, den) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    struct = {t: Fraction(p, den) for t, p in enumerate(parts)}
    p = Fraction(rng.randint(0, 12), 12)
    return LProb(p), struct, struct, lambda inside: sum(
        q for t, q in struct.items() if t in inside
    ) >= p


def _game(rng):
    agents = rng.randint(1, 3)
    sizes = tuple(rng.randint(1, 3) for _ in range(agents))
    n = rng.randint(1, 3)
    profiles = list(itertools.product(*(range(k) for k in sizes)))
    table = {profile: rng.randrange(n) for profile in profiles}
    coalition = frozenset(a for a in range(1, agents + 1) if rng.random() < 0.5)

    def holds(inside):
        # Some joint choice of the coalition, whatever the others choose.
        own = [i for i in range(agents) if i + 1 in coalition]
        for choice in itertools.product(*(range(sizes[i]) for i in own)):
            if all(
                table[p] in inside
                for p in profiles
                if all(p[i] == c for i, c in zip(own, choice))
            ):
                return True
        return False

    return Coal(coalition, agents), (sizes, table), range(n), holds


@pytest.mark.parametrize(
    "kind, make, monotone",
    [
        ("kripke", _kripke, False),
        ("neighbourhood", _neighbourhood(False), False),
        ("neighbourhood", _neighbourhood(True), True),
        ("multigraph", _multigraph, False),
        ("distribution", _distribution, False),
        ("game", _game, False),
    ],
)
def test_lifting_matches_the_truth_condition(kind, make, monotone):
    rng = random.Random("lifting-" + kind + str(monotone))
    checked = set()
    for _ in range(300):
        op, struct, points, want = make(rng)
        holds = lifting(kind, op, struct, monotone)
        for inside in _subsets(points):
            got = holds(inside)
            assert got == want(inside), (op, struct, inside)
            assert lift(kind, op, struct, inside, monotone) == got
            checked.add(got)
    assert checked == {True, False}


def test_lifting_equality_edges():
    # Probability exactly p: 1/3 + 1/6 is 1/2.
    dist = {0: Fraction(1, 3), 1: Fraction(1, 6), 2: Fraction(1, 2)}
    half = lifting("distribution", LProb(Fraction(1, 2)), dist)
    assert half(frozenset({0, 1}))
    assert half(frozenset({2}))
    assert not half(frozenset({0}))
    assert not lifting("distribution", LProb(Fraction(7, 12)), dist)(frozenset({0, 1}))
    # A W tie between equal weights inside and outside holds either way.
    tie = lifting("multigraph", MajW(), {0: 2, 1: 2})
    assert tie(frozenset({0})) and tie(frozenset({1}))
    assert not lifting("multigraph", MajW(), {0: 2, 1: 3})(frozenset({0}))
    # <k> needs more than k: exactly k is not enough.
    assert not lifting("multigraph", GDiamond(2), {0: 2, 1: 2})(frozenset({0}))


def test_lifting_rejects_a_foreign_operator():
    with pytest.raises(ValueError):
        lifting("kripke", MajW(), ())
