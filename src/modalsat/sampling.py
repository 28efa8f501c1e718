"""Deterministic random generation of formulas, clauses, and rule matchings.

Used by the command-line self-test and by the test suite; everything is
driven by a caller-supplied ``random.Random`` so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .formula import (
    Formula,
    atom,
    bot,
    conj,
    disj,
    implies,
    modal,
    neg,
)
from .formula import Box, Coal, GDiamond, LProb, MajW
from .logics import LogicConfig, matchings, refuting_matching_exists
from .onestep import congruence_matchings

DEFAULT_ATOMS = ("p", "q", "r")


def random_operator(rng: random.Random, cfg: LogicConfig):
    if cfg.logic in ("E", "M", "K", "KD"):
        return Box()
    if cfg.logic == "GML":
        return GDiamond(rng.randrange(0, 4))
    if cfg.logic == "MAJ":
        return MajW()
    if cfg.logic == "PML":
        den = rng.randrange(1, 7)
        num = rng.randrange(0, den + 1)
        return LProb(Fraction(num, den))
    if cfg.logic == "COAL":
        agents = [a for a in range(1, cfg.n_agents + 1) if rng.random() < 0.6]
        if not agents:
            agents = [rng.randrange(1, cfg.n_agents + 1)]
        return Coal(frozenset(agents), cfg.n_agents)
    raise ValueError(cfg.logic)


def random_formula(
    rng: random.Random,
    cfg: LogicConfig,
    max_depth: int = 2,
    atoms=DEFAULT_ATOMS,
    size_budget: int = 7,
) -> Formula:
    """A random formula of modal depth at most ``max_depth``."""

    def build(depth, budget):
        if budget <= 1:
            return atom(rng.choice(atoms)) if rng.random() < 0.9 else bot()
        roll = rng.random()
        if roll < 0.25:
            return atom(rng.choice(atoms))
        if roll < 0.30:
            return bot()
        if roll < 0.45:
            return neg(build(depth, budget - 1))
        if roll < 0.75 and depth > 0:
            op = random_operator(rng, cfg)
            return modal(op, build(depth - 1, budget - 1))
        half = max(1, (budget - 1) // 2)
        kind = rng.choice((conj, disj, implies))
        return kind(build(depth, half), build(depth, half))

    return build(max_depth, size_budget)


def random_clause(rng: random.Random, cfg: LogicConfig, max_width: int = 3, arg_depth: int = 1):
    """A random clause of signed proper modal literals, distinct atoms."""
    width = rng.randrange(1, max_width + 1)
    literals = []
    seen = set()
    for _ in range(width):
        op = random_operator(rng, cfg)
        a = modal(op, random_formula(rng, cfg, arg_depth, size_budget=4))
        if a in seen:
            continue
        seen.add(a)
        literals.append((rng.random() < 0.5, a))
    return tuple(literals)


def sample_matchings(rng: random.Random, cfg: LogicConfig, count: int):
    """Up to ``count`` rule matchings of the kinds the solver can select:
    schema matchings of random clauses, congruence matchings, and (for the
    linear logics) coefficient instances found against random pattern
    tables, each over the sub-clause of its random clause that it refutes."""
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 40:
        attempts += 1
        clause = random_clause(rng, cfg)
        if not clause:
            continue
        if cfg.is_arithmetic():
            out.extend(congruence_matchings(clause, cfg.logic))
            q = len(clause)
            full = 1 << q
            sat_patterns = {bits for bits in range(full) if rng.random() < 0.5}
            m, _ = refuting_matching_exists(clause, sat_patterns, cfg)
            if m is not None:
                out.append(m)
        else:
            out.extend(matchings(clause, cfg))
    return out[:count]
