"""Satisfiability solver: alternating search over pseudovaluations.

A formula is satisfiable iff some pseudovaluation H (a propositionally
consistent total sign assignment to its modal atoms) survives every
universal challenge: for every rule matching of a clause built from
negations of H's literals, some clause of the premise CNF must have a
satisfiable negation (a strictly shallower formula, solved recursively).
Pseudovaluations are the true rows of the formula's truth table, which
``assignments`` computes bit-parallel; challenges come from
``challenges``, which builds only the inclusion-maximal clauses some schema
can match, whose demands imply those of the clauses inside them: one per
diamond in K and KD, and in COAL one per diamond (or none) and maximal
family of disjoint coalitions.  Both keep binary-counter order.  Congruence
is asked only in E.  In K, KD, M and COAL every congruence pair is also
matched by a shape rule, whose one demand is congruence's first, so a K or
KD node has one challenge per diamond with one candidate, and each demand
is solved once.  A linear node asks only its one system, which refutes
the node whenever a congruence pair would.

When a pseudovaluation fails, the conclusion of the rule instance that
refuted it is valid, and every pseudovaluation falsifying it is
unsatisfiable, so ``assignments`` clears them all from the table before
it yields the next row.  A satisfiable pseudovaluation falsifies no valid
clause, so the first one to survive is the same as without the pruning,
and so are verdicts and SAT traces; only refutations shrink.

Each challenge is a clause with its candidate matchings, and one loop
answers them all.  For the finite schemas the candidates are the clause's
matchings.  For the linear schemas the universal quantifier over matchings
is decided by ``refuting_matching_exists``: H fails iff coefficients exist
under which every premise CNF clause has an unsatisfiable negation, which
only depends on which sign patterns of the argument formulas are
satisfiable.  The pattern table is computed once per pseudovaluation by
recursive solver calls and handed to ``challenges``, which solves one
relaxed system over all of the node's atoms; its support is the refuted
clause, and the refuting matching, when there is one, is the node's one
challenge.  Its demands are then solved like any other; each must be
unsatisfiable.  Patterns and challenges read only a pseudovaluation's
proper modal literals, so a Solver answers each modal part once, and a
later pseudovaluation with the same one takes its obligations or failure.

Traces record, per satisfiable node, one satisfiable demand per candidate
matching plus (for linear logics) one child per satisfiable argument
pattern; these are exactly the edges of a shallow tableau.

UNSAT traces are the shallow proofs.  Every pseudovaluation of a refuted
formula falsifies the conclusion of one of the rule instances that refuted
the tried ones, so those conclusions together entail the formula's
negation; each instance's children refute its demands.
For linear logics those children are the projected demands of the found
matching, each solved in its own right.  The memo gives one node per
formula, so the refutation is a dag, and a proof is one table entry per
node: the formula's negation and its distinct rule instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import Formula, assignments
from .logics import (
    LogicConfig,
    challenges,
    pattern_formula,
    proper_literals,
    validate_formula,
)
from .onestep import LINEAR_SCHEMES, demands


@dataclass
class SolveStats:
    recursion_peak: int = 0
    solve_calls: int = 0
    memo_hits: int = 0
    matchings_checked: int = 0
    patterns_solved: int = 0


@dataclass
class SatNode:
    """Witness for a satisfiable formula: a surviving pseudovaluation plus a
    satisfiable demand per challenge.  Each obligation is ``(matching,
    child)``: the child answers the rule matching, or, for ``None``, is a
    satisfiable argument sign pattern (linear logics)."""

    formula: Formula
    valuation: tuple
    obligations: list = field(default_factory=list)


@dataclass
class UnsatNode:
    """Refutation: every pseudovaluation has a failing challenge.

    Only the pseudovaluations that no earlier failure's clause covers are
    tried, so each failure has its own rule matching, whose conclusion is
    the failure's clause.  This is also the entry of the negated formula in
    a shallow proof: the conclusions together entail it, and each matching
    has one refuted child per demand (``onestep.demands``), in order.  A
    child refuted for several parents is one shared node."""

    formula: Formula
    # (clause, matching, [child_unsat_node per demand])
    failures: list = field(default_factory=list)


@dataclass
class Verdict:
    satisfiable: bool
    trace: object
    stats: SolveStats


class Solver:
    def __init__(self, cfg: LogicConfig):
        self.cfg = cfg
        self.memo = {}
        self.nodes = {}  # proper modal literals -> obligations or failure
        self.stats = SolveStats()
        self.root_depth = 0

    def run(self, f: Formula) -> Verdict:
        validate_formula(f, self.cfg)
        self.root_depth = max(self.root_depth, f.depth)
        sat, node = self.solve(f, 0)
        return Verdict(sat, node, self.stats)

    def solve(self, f: Formula, level: int):
        cached = self.memo.get(f)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        self.stats.solve_calls += 1
        if level > self.stats.recursion_peak:
            self.stats.recursion_peak = level
        # Recursion is bounded by modal depth: each level strips one layer.
        if f.depth + level > self.root_depth:
            raise RuntimeError("recursion exceeded modal depth")
        failures = []
        covered = []  # the conclusions of the refuting rule instances
        result = None
        for valuation in assignments(f, covered):
            verdict = self._check_valuation(f, valuation, level)
            if isinstance(verdict, SatNode):
                result = (True, verdict)
                break
            failures.append(verdict)
            covered.append(verdict[0])
        if result is None:
            result = (False, UnsatNode(f, failures))
        self.memo[f] = result
        return result

    # -- universal challenges against one pseudovaluation ------------------

    def _check_valuation(self, f: Formula, valuation: tuple, level: int):
        modal = proper_literals(valuation)
        answer = self.nodes.get(modal)
        if answer is None:
            answer = self.nodes[modal] = self._answer(modal, level)
        return SatNode(f, valuation, answer) if isinstance(answer, list) else answer

    def _answer(self, modal: tuple, level: int):
        """A modal part's obligations, or the (clause, matching, children) refuting it."""
        obligations = []
        sat_bits = set()
        arith_atoms = [a for _, a in modal] if self.cfg.is_arithmetic() else ()
        if arith_atoms:
            for bits in range(1 << len(arith_atoms)):
                pf = pattern_formula(arith_atoms, bits)
                self.stats.patterns_solved += 1
                sat, child = self.solve(pf, level + 1)
                if sat:
                    sat_bits.add(bits)
                    obligations.append((None, child))
        for clause, cands in challenges(modal, self.cfg, sat_bits):
            for m in cands:
                self.stats.matchings_checked += 1
                children = []
                for demand in demands(m):
                    sat, child = self.solve(demand, level + 1)
                    if sat:
                        break
                    children.append(child)
                else:
                    return (clause, m, children)
                if m.code.scheme in LINEAR_SCHEMES:
                    raise RuntimeError("refuting matching leaves a satisfiable demand")
                obligations.append((m, child))
        return obligations


def satisfiable(f: Formula, cfg: LogicConfig) -> Verdict:
    """Decide satisfiability of ``f`` in the configured logic."""
    return Solver(cfg).run(f)

