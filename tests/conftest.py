"""Shared helpers for the test suite: corpus generation and common checks."""

from __future__ import annotations

import hashlib
import json
import random

from modalsat.certificates import model_to_json, proof_to_json, tableau_to_json
from modalsat.formula import FModal, Atom, modal_atoms, subformulas
from modalsat.logics import LogicConfig
from modalsat.sampling import random_formula

ALL_LOGICS = ("E", "M", "K", "KD", "COAL", "GML", "MAJ", "PML")
ARITH = ("GML", "MAJ", "PML")


def reference_premise(code, values) -> bool:
    """The premise of a rule code, stated semantically, where variable i has
    the truth value ``values[i]``: the reference the tests hold
    ``onestep.premise_clauses`` to.  A linear premise holds when the
    coefficients of the true variables sum to at least the bound,
    congruence when its two variables have the same value, and a shape
    premise when some variable agrees with its conclusion literal's sign."""
    if code.scheme in ARITH:
        coeffs, bound = code.ints[:-1], code.ints[-1]
        return sum(c for c, v in zip(coeffs, values) if v) >= bound
    if code.scheme == "CONG":
        return values[0] == values[1]
    return any(v == s for v, s in zip(values, code.signs()))


def reference_premise_on(code, tau, n: int) -> bool:
    """Does the reference premise hold at every point of the carrier
    ``0 .. n - 1`` when variable i denotes the set ``tau[i]``?"""
    return all(reference_premise(code, [x in t for t in tau]) for x in range(n))


def config_for(logic: str) -> LogicConfig:
    return LogicConfig(logic=logic)


def corpus(logic: str, count: int, seed: int, max_depth: int = 3, size_budget: int = 9):
    """Deterministic random formula corpus for one logic."""
    cfg = config_for(logic)
    rng = random.Random(seed)
    return cfg, [
        random_formula(rng, cfg, max_depth=max_depth, size_budget=size_budget)
        for _ in range(count)
    ]


def proper_atoms(f):
    return [
        a
        for a in modal_atoms(f)
        if isinstance(a, FModal) and not isinstance(a.op, Atom)
    ]


def max_atoms_per_level(f) -> int:
    """Largest number of distinct proper modal atoms at any one level."""
    here = proper_atoms(f)
    best = len(here)
    for a in here:
        best = max(best, max_atoms_per_level(a.arg))
    return best


def proof_within_subformulas(doc, goal) -> bool:
    """Weak subformula property: every modal atom of every formula a proof
    table proves is a subformula of the goal."""
    allowed = set(subformulas(goal))
    return all(set(modal_atoms(f)) <= allowed for f in doc)


def _json_sha256(doc) -> str:
    """Digest of a certificate's JSON, serialized the way the CLI writes it."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def proof_sha256(doc) -> str:
    return _json_sha256(proof_to_json(doc))


def tableau_sha256(tb) -> str:
    return _json_sha256(tableau_to_json(tb))


def model_sha256(*ws) -> str:
    """Digest of one or more models' JSON, in order."""
    return _json_sha256([model_to_json(w) for w in ws])
