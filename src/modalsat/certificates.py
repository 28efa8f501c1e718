"""Certificates: shallow tableaux, concrete models, and shallow proofs.

All three certificate kinds serialize to versioned JSON and are validated
by checkers that do not consult the solver's internals:

* a tableau is checked structurally (every node is a pseudovaluation, every
  edge's clause and demand are recomputed from its rule instance, or its
  sign pattern from its target, and every challenge of every node has an
  answering edge; in the linear logics a node's
  challenges are computed from the argument patterns its pattern edges
  claim satisfiable, and no edge may answer a linear matching, so a
  refuting linear matching is always an unanswered challenge);
* a model is checked to be a legal structure of the logic
  (``validate_structure``) and then by direct semantic evaluation
  (``model_check``), which decides every modal operator with
  ``semantics.lift``;
* a proof is a table of rule instances per proved formula; the checker
  confirms, with an evaluator of its own, that the instances' conclusions
  propositionally entail the formula, recomputes every formula a premise
  demands, and checks each entry once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import linarith
from .formula import (
    Atom,
    FAnd,
    FModal,
    FNot,
    Formula,
    GDiamond,
    eval_with,
    modal_atoms,
    neg_fold,
    parse,
    pretty,
    pretty_literal,
)
from .logics import (
    LogicConfig,
    challenges,
    operator_legal,
    pattern_formula,
    proper_atoms,
    proper_literals,
    side_condition,
)
from .onestep import (
    LINEAR_SCHEMES,
    RuleCode,
    RuleMatching,
    code_operators,
    conclusion_clause,
    demands,
    json_bool,
    json_int,
    parse_fraction,
)
from .semantics import MODEL_KINDS, lift, points_of
from .solver import SatNode, Verdict

# The JSON format version of each certificate kind.  Proofs are at 3, a
# table of each formula's distinct rule instances, and tableaux at 2, whose
# edges carry only their rule instance; no reader of older versions is kept.
CERT_VERSIONS = {"model": 1, "tableau": 2, "proof": 3}

# Largest child weight ``_ModelBuilder`` tries in a GML/MAJ multigraph, or
# the node's largest grade + 1 if that is more.
MAX_WEIGHT = 16


# ---------------------------------------------------------------------------
# Model witnesses
# ---------------------------------------------------------------------------


@dataclass
class ModelWitness:
    """A concrete finite model.  States are integers; ``labels`` maps states
    to true atoms, and ``structs`` maps states to their one-step structures
    in the format that ``semantics.lift`` reads for ``kind``.  A state that
    ``structs`` does not list has the empty structure of its kind, or no
    game at all in a game model."""

    kind: str  # kripke | multigraph | neighbourhood | distribution | game
    root: int
    states: list
    labels: dict
    serial: bool = False
    monotone: bool = False
    structs: dict = field(default_factory=dict)


class _Checker:
    """Truth of formulas at the states of a finite model: the one evaluator
    behind ``check-cert``, model synthesis and the oracle's tree search.  It
    reads the witness's structures as they are when a truth is first asked
    for and remembers each truth, so a caller may add states (or, during
    synthesis, neighbourhoods) between queries."""

    def __init__(self, witness: ModelWitness):
        self.w = witness
        self.kind = witness.kind
        self.monotone = witness.monotone
        self.structs = witness.structs
        self.empty = _MODEL_JSON[witness.kind][1]
        self.memo = {}
        self.truth_sets = {}

    def check(self, state: int, f: Formula) -> bool:
        """Is ``f`` true at ``state``?  Only right operands recurse, so a
        long conjunction or disjunction takes no deep stack."""
        memo = self.memo
        value = memo.get((state, f))
        if value is not None:
            return value
        cls = f.__class__
        if cls is not FAnd and cls is not FNot:
            # A modal formula or bottom, the most frequent call, is a leaf.
            value = memo[state, f] = self._eval(state, f)
            return value
        spine = []  # the conjunctions and negations above f, innermost last
        while cls is FAnd or cls is FNot:
            spine.append(f)
            f = f.lhs if cls is FAnd else f.arg
            value = memo.get((state, f))
            if value is not None:
                break
            cls = f.__class__
        else:
            value = memo[state, f] = self._eval(state, f)
        while spine:
            g = spine.pop()
            if g.__class__ is FAnd:
                value = value and self.check(state, g.rhs)
            else:
                value = not value
            memo[state, g] = value
        return value

    def truth_set(self, f: Formula) -> frozenset:
        """The states where ``f`` holds (neighbourhood models, whose box
        reads a whole truth set)."""
        got = self.truth_sets.get(f)
        if got is None:
            got = frozenset(t for t in self.w.states if self.check(t, f))
            self.truth_sets[f] = got
        return got

    def _eval(self, state, f) -> bool:
        if not isinstance(f, FModal):
            return False  # bottom
        if isinstance(f.op, Atom):
            return f.op.name in self.w.labels.get(state, ())
        kind = self.kind
        struct = self.structs.get(state, self.empty)
        if kind == "neighbourhood":
            inside = self.truth_set(f.arg)
        else:
            inside = {t for t in points_of(kind, struct) if self.check(t, f.arg)}
        return lift(kind, f.op, struct, inside, self.monotone)


def model_check(witness: ModelWitness, state: int, f: Formula) -> bool:
    return _Checker(witness).check(state, f)


def validate_structure(w: ModelWitness, cfg: LogicConfig):
    """Is the witness a legal finite structure of the logic?  Returns
    (ok, message).  The frame conditions (seriality for KD, up-closure for M)
    come from the logic, never from the witness's ``serial`` and
    ``monotone`` flags; ``monotone`` only says that the listed
    neighbourhoods generate an up-closed family, which ``model_check``
    evaluates as such."""
    if w.kind != MODEL_KINDS[cfg.logic]:
        return False, "a %s model is not a structure of %s" % (w.kind, cfg.logic)
    states = set(w.states)
    if len(states) != len(w.states):
        return False, "a state is listed twice"
    if w.root not in states:
        return False, "root %r is not a state" % (w.root,)
    for s in list(w.labels) + list(w.structs):
        if s not in states:
            return False, "state %r is not in the model's states" % (s,)
    empty = _MODEL_JSON[w.kind][1]
    for s in w.states:
        struct = w.structs.get(s, empty)
        if w.kind == "kripke":
            if not set(struct) <= states:
                return False, "a successor of state %r is not a state" % (s,)
            if cfg.logic == "KD" and not struct:
                return False, "state %r has no successor in a serial model" % (s,)
        elif w.kind == "multigraph":
            for t, c in struct.items():
                if t not in states:
                    return False, "a successor of state %r is not a state" % (s,)
                if type(c) is not int or c < 0:
                    return False, "weight %r at state %r is not a natural number" % (c, s)
        elif w.kind == "neighbourhood":
            if not all(member <= states for member in struct):
                return False, "a neighbourhood of state %r holds a non-state" % (s,)
            if cfg.logic == "M" and not w.monotone and not _up_closed(struct, states):
                return False, "the neighbourhoods of state %r are not up-closed" % (s,)
        elif w.kind == "distribution":
            if not set(struct) <= states:
                return False, "a successor of state %r is not a state" % (s,)
            if any(p < 0 for p in struct.values()) or sum(struct.values()) != 1:
                return False, "the distribution of state %r is not a probability" % (s,)
        else:
            ok, msg = _check_game(struct, states, cfg.n_agents)
            if not ok:
                return False, "state %r: %s" % (s, msg)
    return True, "ok"


def _up_closed(hoods, states) -> bool:
    """A family of subsets is up-closed within ``states`` iff adding any one
    state to a member gives a member."""
    family = set(hoods)
    return all(member | {t} in family for member in family for t in states - member)


def _check_game(game, states, n_agents: int):
    if game is None:
        return False, "no game"
    sizes, table = game
    if len(sizes) != n_agents or any(type(k) is not int or k < 1 for k in sizes):
        return False, "strategy counts do not fit %d agents" % n_agents
    # Distinct in-range profiles, as many as there are: the table is total.
    in_range = all(
        len(p) == n_agents and all(type(c) is int and 0 <= c < k for c, k in zip(p, sizes))
        for p in table
    )
    if not in_range or len(table) != math.prod(sizes):
        return False, "the outcome table is not total over the strategy profiles"
    if not set(table.values()) <= states:
        return False, "an outcome is not a state"
    return True, "ok"


# ---------------------------------------------------------------------------
# Tableaux
# ---------------------------------------------------------------------------


@dataclass
class Tableau:
    root: int
    nodes: list  # pseudovaluations: tuples of (positive, modal_atom)
    # (src, matching, dst): dst answers the rule instance ``matching`` at
    # src, or, for ``None``, is an argument sign pattern child (linear
    # logics).
    edges: list


def extract_tableau(verdict: Verdict, cfg: LogicConfig) -> Tableau:
    """Collapse a satisfiable trace into a dag of pseudovaluations."""
    if not verdict.satisfiable:
        raise ValueError("cannot extract a tableau from an unsatisfiable trace")
    index = {}
    nodes = []
    edges = []
    seen_edges = set()

    def visit(tn: SatNode) -> int:
        # Equal valuations share one modal part, so one obligations list
        # (``Solver.nodes``): a valuation's edges are written once.
        vid = index.get(tn.valuation)
        if vid is not None:
            return vid
        vid = index[tn.valuation] = len(nodes)
        nodes.append(tn.valuation)
        for m, child in tn.obligations:
            edge = (vid, m, visit(child))
            if edge not in seen_edges:
                seen_edges.add(edge)
                edges.append(edge)
        return vid

    root = visit(verdict.trace)
    return Tableau(root, nodes, edges)


def _is_pseudovaluation_for(valuation, f: Formula) -> bool:
    atoms = modal_atoms(f)
    if tuple(a for (_, a) in valuation) != atoms:
        # Allow any ordering as long as the atom sets agree and signs are
        # total and consistent.
        if {a for (_, a) in valuation} != set(atoms):
            return False
        if len({a for (_, a) in valuation}) != len(valuation):
            return False
    assign = {a: s for (s, a) in valuation}
    return eval_with(f, assign)


def _rule_conclusion(m: RuleMatching, cfg: LogicConfig):
    """The conclusion of the rule instance ``m`` once it is checked to be a
    rule of the logic: (conclusion, None), or (None, why it is not)."""
    if m.code.logic != cfg.logic:
        return None, "rule code is for logic %r, not %s" % (m.code.logic, cfg.logic)
    if not side_condition(m.code, cfg):
        return None, "rule code fails its side condition"
    if not all(operator_legal(op, cfg) for op in code_operators(m.code, cfg.n_agents)):
        return None, "rule uses an operator outside the logic"
    if len(m.subst) != m.code.arity():
        msg = "substitution has %d formulas for a rule of arity %d"
        return None, msg % (len(m.subst), m.code.arity())
    return conclusion_clause(m, cfg.n_agents), None


def _pattern_of(child, arith):
    """The argument sign pattern a pattern child fixes, as a bitmask over
    ``arith``, or None when the child leaves some argument undecided."""
    assign = {a: s for (s, a) in child}
    if not all(set(modal_atoms(a.arg)) <= assign.keys() for a in arith):
        return None
    return sum(1 << i for i, a in enumerate(arith) if eval_with(a.arg, assign))


def check_tableau(tb: Tableau, f: Formula, cfg: LogicConfig):
    """Structural validity: returns (ok, message).

    Edges state no clause, premise clause or pattern: a rule edge's clause
    is its rule's conclusion, and its target must be a pseudovaluation for
    one of the rule's demands (``onestep.demands``); a pattern edge's target
    decides every argument of the source's proper modal atoms, which fixes
    the pattern it is a pseudovaluation for."""
    n = len(tb.nodes)
    if not 0 <= tb.root < n:
        return False, "root out of range"
    if not _is_pseudovaluation_for(tb.nodes[tb.root], f):
        return False, "root is not a pseudovaluation for the formula"
    answered = set()  # (node, rule instance)
    # Linear logics: argument sign patterns per node that pattern edges claim
    # satisfiable, as bitmasks over the node's proper modal atoms.
    claimed = {i: set() for i in range(n)}
    for k, (src, m, dst) in enumerate(tb.edges):
        if not (0 <= src < n and 0 <= dst < n):
            return False, "edge %d: endpoint out of range" % k
        valuation, child = tb.nodes[src], tb.nodes[dst]
        if m is None:
            if not cfg.is_arithmetic():
                return False, "edge %d: pattern edges only occur in linear logics" % k
            arith = proper_atoms(valuation)
            bits = _pattern_of(child, arith)
            if bits is None:
                return False, "edge %d: target does not decide the node's arguments" % k
            if not _is_pseudovaluation_for(child, pattern_formula(arith, bits)):
                return False, "edge %d: target is not a pseudovaluation for its sign pattern" % k
            claimed[src].add(bits)
            continue
        if m.code.scheme in LINEAR_SCHEMES:
            # A linear rule is only ever a refuter: answering one refuter
            # would let a different refuter of the node go unseen.
            msg = "edge %d: the rule edge at node %d answers a linear %s rule"
            return False, msg % (k, src, m.code.scheme)
        concl, msg = _rule_conclusion(m, cfg)
        if msg is not None:
            return False, "edge %d: %s" % (k, msg)
        negations = {(not s, a) for (s, a) in valuation}
        if not concl or not set(concl) <= negations:
            return False, "edge %d: rule conclusion is not built from negated node literals" % k
        if not any(_is_pseudovaluation_for(child, d) for d in demands(m)):
            return False, "edge %d: target answers no premise clause" % k
        answered.add((src, m))
    # Challenge coverage: every candidate of every challenge has an answering
    # edge.  In the linear logics the challenges are asked against the
    # claimed patterns, which have checked children, so they are satisfiable;
    # fewer satisfiable patterns only make refuting easier.  Nodes with the
    # same proper modal literals and claimed patterns have the same ones.
    asked = {}
    for i, valuation in enumerate(tb.nodes):
        key = (proper_literals(valuation), frozenset(claimed[i]))
        if key not in asked:
            asked[key] = list(challenges(key[0], cfg, claimed[i]))
        for _, cands in asked[key]:
            for m in cands:
                if (i, m) not in answered:
                    msg = "unanswered challenge at node %d: the %s rule refutes it"
                    return False, msg % (i, m.code.scheme)
    return True, "ok"


# ---------------------------------------------------------------------------
# Model synthesis from a tableau
# ---------------------------------------------------------------------------


def tableau_to_model(tb: Tableau, cfg: LogicConfig) -> Optional[ModelWitness]:
    """Turn a tableau into a concrete model by choosing structure at every
    node bottom-up.  Returns None for coalition logic (no synthesis) or when
    the bounded coherence search fails."""
    if cfg.logic == "COAL":
        return None
    builder = _ModelBuilder(tb, cfg)
    return builder.build()


def _weight_search(literals, insides, n, cap):
    """The lexicographically first weights in ``0 .. cap`` of the children
    ``0 .. n-1`` that give every literal ``(sign, atom)`` its sign, or None;
    ``insides`` holds, per literal, the children inside its argument.
    ``<k>`` and ``W`` are monotone in the weight inside their argument and
    antitone in the weight outside, so a prefix is dropped as soon as some
    literal fails at its most favourable completion: ``cap`` on each free
    child whose membership equals the literal's sign, 0 on the others.

    The depth-first walk keeps its place in ``idx`` (children before it are
    set), not in one call per child: a wide node has about 2^n children."""
    weights = dict.fromkeys(range(n), 0)
    idx = 0

    def completable():
        for (s, a), inside in zip(literals, insides):
            best = dict(weights)
            for b in range(idx, n):
                best[b] = cap if (b in inside) == s else 0
            if lift("multigraph", a.op, best, inside) != s:
                return False
        return True

    while True:
        if completable():
            if idx == n:
                return weights
            weights[idx] = 0
            idx += 1
            continue
        # Next prefix: raise the last child below ``cap``, clearing the
        # children after it.
        while idx and weights[idx - 1] == cap:
            idx -= 1
            weights[idx] = 0
        if not idx:
            return None
        weights[idx - 1] += 1


class _ModelBuilder:
    def __init__(self, tb: Tableau, cfg: LogicConfig):
        self.tb = tb
        self.cfg = cfg
        self.w = ModelWitness(
            kind=MODEL_KINDS[cfg.logic],
            root=tb.root,
            states=list(range(len(tb.nodes))),
            labels={},
            serial=cfg.logic == "KD",
            monotone=cfg.logic == "M",
        )
        self.checker = _Checker(self.w)
        self.sink = None

    def _make_sink(self) -> int:
        if self.sink is None:
            sink = len(self.w.states)
            self.w.states.append(sink)
            self.w.labels[sink] = frozenset()
            # Only KD models and distributions need a sink.
            self.w.structs[sink] = (sink,) if self.w.kind == "kripke" else {sink: Fraction(1)}
            self.sink = sink
        return self.sink

    def build(self) -> Optional[ModelWitness]:
        tb = self.tb
        heights = []
        for valuation in tb.nodes:
            heights.append(max((a.depth for (_, a) in valuation), default=0))
        order = sorted(range(len(tb.nodes)), key=lambda i: (heights[i], i))
        children = {i: [] for i in range(len(tb.nodes))}
        for src, _, dst in tb.edges:
            if dst not in children[src]:
                children[src].append(dst)
        for i in range(len(tb.nodes)):
            self.w.labels[i] = frozenset(
                a.op.name
                for (s, a) in tb.nodes[i]
                if s and isinstance(a, FModal) and isinstance(a.op, Atom)
            )
        if self.w.kind == "neighbourhood":
            return self._build_neighbourhood()
        for i in order:
            if not self._build_node(i, sorted(children[i])):
                return None
            if not self._verify_node(i):
                return None
        return self.w

    def _build_node(self, i, kids) -> bool:
        kind = self.w.kind
        if kind == "kripke":
            pos = [a.arg for (s, a) in proper_literals(self.tb.nodes[i]) if s]
            succ = [t for t in kids if all(self.checker.check(t, g) for g in pos)]
            if self.cfg.logic == "KD" and not succ:
                if pos:
                    return False
                succ = [self._make_sink()]
            self.w.structs[i] = tuple(succ)
            return True
        if kind == "multigraph":
            return self._build_multigraph(i, kids)
        if kind == "distribution":
            return self._build_distribution(i, kids)
        raise AssertionError(kind)

    def _verify_node(self, i) -> bool:
        for s, a in self.tb.nodes[i]:
            if self.checker.check(i, a) != s:
                return False
        return True

    # -- multigraph weights ------------------------------------------------

    def _build_multigraph(self, i, kids) -> bool:
        literals = proper_literals(self.tb.nodes[i])
        # Per literal, the children that satisfy its argument, by position
        # in ``kids``.  A solver tableau gives a node one child per
        # satisfiable pattern, so each child is weighed on its own.
        insides = [
            {c for c, t in enumerate(kids) if self.checker.check(t, a.arg)}
            for _, a in literals
        ]
        # A weight past the largest grade + 1 changes no graded literal
        # (docs/certificates.md, "Multigraph weights").
        grades = [a.op.grade for _, a in literals if isinstance(a.op, GDiamond)]
        cap = max(MAX_WEIGHT, max(grades, default=0) + 1)
        found = _weight_search(literals, insides, len(kids), cap)
        if found is None:
            return False
        self.w.structs[i] = {kids[c]: wgt for c, wgt in found.items() if wgt > 0}
        return True

    # -- distributions -----------------------------------------------------

    def _build_distribution(self, i, kids) -> bool:
        sink = self._make_sink()
        support = sorted(kids) + [sink]
        literals = proper_literals(self.tb.nodes[i])
        # Weights w_t >= 0 (non-negative columns) of total mass at least 1,
        # normalized afterwards; the homogeneous form is what
        # ``linarith.feasible`` accepts.
        var = {t: "w%d" % t for t in support}
        weights = [var[t] for t in support]
        cons = [(dict.fromkeys(weights, 1), -1, False)]
        for s, a in literals:
            # inside - p * total, as a coefficient per weight
            excess = {
                var[t]: (1 if self.checker.check(t, a.arg) else 0) - a.op.prob
                for t in support
            }
            if s:
                cons.append((excess, 0, False))
            else:
                cons.append(({v: -c for v, c in excess.items()}, 0, True))
        point = linarith.feasible(cons, weights, nonneg=set(weights))
        if point is None:
            return False
        mass = sum(point.values())
        self.w.structs[i] = {
            t: point[var[t]] / mass for t in support if point[var[t]] > 0
        }
        return True

    # -- neighbourhoods ----------------------------------------------------

    def _build_neighbourhood(self) -> Optional[ModelWitness]:
        # Neighbourhoods are generated by the positive box arguments of each
        # node.  Generator truth sets are read, in formula-depth order, by
        # the builder's checker off the neighbourhood lists as they grow;
        # the finished model is then re-validated literal by literal with a
        # fresh checker, so a staging discrepancy can only make synthesis
        # fail, never lie.
        nodes = range(len(self.tb.nodes))
        gens = {i: {a.arg for s, a in proper_literals(self.tb.nodes[i]) if s} for i in nodes}
        hoods = {i: [] for i in nodes}
        self.w.structs.update(hoods)
        ordered_gens = sorted(
            set().union(*gens.values()), key=lambda g: (g.depth, pretty(g))
        )
        for g in ordered_gens:
            vector = self.checker.truth_set(g)
            for i in nodes:
                if g in gens[i] and vector not in hoods[i]:
                    hoods[i].append(vector)
        self.w.structs.update((i, tuple(h)) for i, h in hoods.items())
        checker = _Checker(self.w)
        for i in nodes:
            for s, a in self.tb.nodes[i]:
                if checker.check(i, a) != s:
                    return None
        return self.w


# ---------------------------------------------------------------------------
# Shallow proofs
# ---------------------------------------------------------------------------


class ProofDoc(dict):
    """A shallow proof as one table: each formula it proves, mapped to its
    distinct rule instances (``RuleMatching``), in refutation order.  Their
    conclusions together propositionally entail the formula, and each
    instance's premise fixes the formulas proved one modal level down, so
    the table needs nothing else; a formula demanded twice has one entry.
    ``extract_proof`` writes the goal's entry first."""


def extract_proof(verdict: Verdict, goal: Formula, cfg: LogicConfig) -> ProofDoc:
    """Read a shallow proof of ``goal`` off the refutation of its negation.

    A refuted formula's entry lists the rule instances that refuted its
    pseudovaluations, in order.  The solver skips every pseudovaluation that
    falsifies an earlier instance's conclusion, and an instance only
    refutes pseudovaluations that falsify its conclusion, so no instance
    repeats.  The refuted children are the formulas each premise demands,
    read the same way.  Shared children, one per formula through the
    solver's memo, give one entry each."""
    if verdict.satisfiable:
        raise ValueError("cannot extract a proof from a satisfiable trace")
    if verdict.trace.formula is not neg_fold(goal):
        raise ValueError("trace does not refute the negation of the goal")
    doc = ProofDoc()
    # The goal's entry is keyed by ``goal`` itself: for a double negation it
    # differs from ``neg_fold`` of the refuted formula.
    stack = [(goal, verdict.trace)]
    while stack:
        f, node = stack.pop()
        if f in doc:
            continue
        doc[f] = tuple(m for _, m, _ in node.failures)
        for _, _, children in reversed(node.failures):
            stack.extend((neg_fold(child.formula), child) for child in reversed(children))
    return doc


def _postorder(f: Formula) -> list:
    """The distinct subformulas of ``f`` that are not modal atoms, children
    before parents."""
    order = []
    done = set(modal_atoms(f))
    stack = [f]
    while stack:
        g = stack[-1]
        if g in done:
            stack.pop()
            continue
        if isinstance(g, FAnd):
            kids = [c for c in (g.lhs, g.rhs) if c not in done]
        elif isinstance(g, FNot):
            kids = [g.arg] if g.arg not in done else []
        else:
            kids = []
        if kids:
            stack += kids
            continue
        stack.pop()
        done.add(g)
        order.append(g)
    return order


def _partial_value(f: Formula, order: list, assign: dict):
    """Kleene's three-valued truth of ``f`` when only the modal atoms in
    ``assign`` have values: True, False, or None when it depends on the
    others.  ``order`` is ``_postorder(f)``."""
    value = dict(assign)
    for g in order:
        if isinstance(g, FAnd):
            lhs, rhs = value.get(g.lhs), value.get(g.rhs)
            value[g] = False if lhs is False or rhs is False else lhs and rhs
        elif isinstance(g, FNot):
            v = value.get(g.arg)
            value[g] = None if v is None else not v
        else:
            value[g] = False  # bottom
    return value.get(f)


def _propagate(clauses, assign: dict):
    """Unit propagation: while some clause has no true literal and one open
    one, make that literal true.  Returns the open literals of each clause
    not yet true, or None when some clause is false."""
    while True:
        pending = []
        forced = False
        for clause in clauses:
            if any(assign.get(a) == s for s, a in clause):
                continue
            left = [(s, a) for s, a in clause if a not in assign]
            if not left:
                return None
            if len(left) == 1:
                s, a = left[0]
                assign[a] = s
                forced = True
            else:
                pending.append(left)
        if not forced:
            return pending


def _entailed(clauses, f: Formula) -> bool:
    """Do the clauses, over modal atoms of ``f``, propositionally entail
    ``f``?  A search for a counterexample, an assignment that makes every
    clause true and ``f`` false, with unit propagation over the clauses.  A
    branch ends when a clause is false or ``f`` is true whatever the open
    atoms are.  While ``f`` is undecided the search branches on its atoms in
    order, and once ``f`` is false, on an open atom of a clause not yet
    true."""
    atoms = modal_atoms(f)
    order = _postorder(f)
    stack = [{}]
    while stack:
        assign = stack.pop()
        pending = _propagate(clauses, assign)
        if pending is None:
            continue
        value = _partial_value(f, order, assign)
        if value is True:
            continue
        if value is False and not pending:
            return False
        if value is None:
            pick = next(a for a in atoms if a not in assign)
        else:
            pick = pending[0][0][1]
        stack += ({**assign, pick: True}, {**assign, pick: False})
    return True


def check_proof(doc: ProofDoc, goal: Formula, cfg: LogicConfig):
    """Independent proof checking; returns (ok, message).

    A worklist starts from the stated goal.  Each demanded formula must have
    an entry, which is checked once: its rule instances are distinct, each
    is a rule of the logic whose conclusion literals lie on modal atoms of
    the formula, the conclusions together entail the formula, and the
    negation of each of its demands (``onestep.demands``) is demanded in
    turn.  An entry that is never demanded is rejected too.  A rejection
    names the formula and, for a rule, its index, such as
    ``entry '~([] a & ~[] b)' rule 0: rule code fails its side condition``."""
    demanded = {goal: None}  # formula -> (demanding formula, rule index)
    work = [goal]
    while work:
        f = work.pop()
        rules = doc.get(f)
        if rules is None:
            if demanded[f] is None:
                return False, "no entry for the goal %r" % pretty(f)
            by, r = demanded[f]
            return False, "no entry for %r, which %r rule %d demands" % (pretty(f), pretty(by), r)
        atoms = set(modal_atoms(f))
        first = {}
        conclusions = []
        for r, m in enumerate(rules):
            concl, msg = _rule_conclusion(m, cfg)
            if msg is None and first.setdefault(m, r) != r:
                msg = "repeats rule %d" % first[m]
            if msg is None:
                off = next((lit for lit in concl if lit[1] not in atoms), None)
                if off is not None:
                    msg = "conclusion literal %r is not on a modal atom of the formula"
                    msg %= pretty_literal(off)
            if msg is not None:
                return False, "entry %r rule %d: %s" % (pretty(f), r, msg)
            conclusions.append(concl)
            for g in map(neg_fold, demands(m)):
                if g not in demanded:
                    demanded[g] = (f, r)
                    work.append(g)
        if not _entailed(conclusions, f):
            return False, "entry %r: the rule conclusions do not entail the formula" % pretty(f)
    for f in doc:
        if f not in demanded:
            return False, "entry %r is never demanded" % pretty(f)
    return True, "ok"


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _literal(f: Formula):
    if isinstance(f, FNot):
        return (False, f.arg)
    return (True, f)


def _formula_reader(n_agents: int):
    """A parser for the formula texts of one certificate that parses each
    distinct text once.  Certificates repeat texts (tableau edges repeat
    node literals, proof rules repeat substitutions), and formulas are
    interned, so a repeated text yields the very object a parse would."""
    parsed = {}

    def formula(text):
        f = parsed.get(text)
        if f is None:
            f = parsed[text] = parse(text, n_agents)
        return f

    return formula


def _formula_writer():
    """A printer for the formulas of one certificate that prints each
    distinct formula once: the writer's inverse of ``_formula_reader``.
    Certificates repeat formulas (tableau nodes share literals, edges and
    proof rules share substitutions), and each is one interned object."""
    texts = {}

    def text(f):
        s = texts.get(f)
        if s is None:
            s = texts[f] = pretty(f)
        return s

    return text


def _frac_str(q: Fraction) -> str:
    return "%d/%d" % (q.numerator, q.denominator)


def _json_label(names) -> frozenset:
    if type(names) is not list or any(type(nm) is not str for nm in names):
        raise ValueError("label %r is not a list of atom names" % (names,))
    return frozenset(names)


def _int_key(text: str) -> int:
    """A mapping key is the decimal text of its integer and nothing else, so
    that no two keys of one mapping name the same state or profile."""
    n = int(text)
    if str(n) != text:
        raise ValueError("key %r is not the decimal text of an integer" % (text,))
    return n


def _game_json(game) -> dict:
    sizes, table = game
    return {
        "sizes": list(sizes),
        "table": {",".join(str(i) for i in profile): t for profile, t in sorted(table.items())},
    }


def _game_from_json(v) -> tuple:
    return (
        tuple(json_int(k) for k in v["sizes"]),
        {
            tuple(_int_key(i) for i in k.split(",")) if k else (): json_int(t)
            for k, t in v["table"].items()
        },
    )


# Per model kind: the payload key of its structures, the structure of a
# state that ``ModelWitness.structs`` does not list, and the writer and
# reader of one structure.  A game model has no empty structure, so only
# the states with a game are written.
_MODEL_JSON = {
    "kripke": ("succ", (), list, lambda v: tuple(json_int(t) for t in v)),
    "multigraph": (
        "weights",
        {},
        lambda st: {str(t): c for t, c in sorted(st.items())},
        lambda v: {_int_key(t): json_int(c) for t, c in v.items()},
    ),
    "neighbourhood": (
        "neigh",
        (),
        lambda st: [sorted(member) for member in st],
        lambda v: tuple(frozenset(json_int(t) for t in member) for member in v),
    ),
    "distribution": (
        "dist",
        {},
        lambda st: {str(t): _frac_str(p) for t, p in sorted(st.items())},
        lambda v: {_int_key(t): parse_fraction(p) for t, p in v.items()},
    ),
    "game": ("games", None, _game_json, _game_from_json),
}


def model_to_json(w: ModelWitness) -> dict:
    key, empty, write, _ = _MODEL_JSON[w.kind]
    written = w.states if empty is not None else sorted(w.structs)
    payload = {
        "model_kind": w.kind,
        "root": w.root,
        "states": list(w.states),
        "labels": {str(s): sorted(w.labels.get(s, ())) for s in w.states},
        "serial": w.serial,
        "monotone": w.monotone,
        key: {str(s): write(w.structs.get(s, empty)) for s in written},
    }
    return {"kind": "model", "version": CERT_VERSIONS["model"], "payload": payload}


def model_from_json(doc: dict) -> ModelWitness:
    """Read a model as written: state ids, weights, strategy counts and
    outcomes must be JSON integers and the flags JSON booleans, so that
    ``validate_structure`` judges the file's values, not coerced ones.
    Mapping keys are the decimal texts of states."""
    payload = doc["payload"]
    w = ModelWitness(
        kind=payload["model_kind"],
        root=json_int(payload["root"]),
        states=[json_int(s) for s in payload["states"]],
        labels={_int_key(s): _json_label(v) for s, v in payload["labels"].items()},
        serial=json_bool(payload.get("serial", False)),
        monotone=json_bool(payload.get("monotone", False)),
    )
    if type(w.kind) is not str or w.kind not in _MODEL_JSON:
        raise ValueError("unknown model kind %r" % (w.kind,))
    key, _, _, read = _MODEL_JSON[w.kind]
    w.structs = {_int_key(s): read(v) for s, v in payload[key].items()}
    return w


def _matching_json(m: RuleMatching, text) -> dict:
    """A rule instance as written in tableau edges and proof entries, its
    formulas printed by ``text``."""
    return {"rule": m.code.to_json(), "substitution": [text(g) for g in m.subst]}


def _matching_from_json(data: dict, formula) -> RuleMatching:
    return RuleMatching(
        RuleCode.from_json(data["rule"]),
        tuple(formula(t) for t in _json_list(data["substitution"])),
    )


def _json_list(value) -> list:
    """A JSON array as read; a string, which would iterate as its
    characters, is not one."""
    if type(value) is not list:
        raise ValueError("%r is not a list" % (value,))
    return value


def tableau_to_json(tb: Tableau) -> dict:
    text = _formula_writer()
    edges = []
    for src, m, dst in tb.edges:
        edge = {"src": src, "dst": dst}
        if m is not None:
            edge.update(_matching_json(m, text))
        edges.append(edge)
    payload = {
        "root": tb.root,
        "nodes": [
            [text(a) if positive else "~" + text(a) for positive, a in valuation]
            for valuation in tb.nodes
        ],
        "edges": edges,
    }
    return {"kind": "tableau", "version": CERT_VERSIONS["tableau"], "payload": payload}


def tableau_from_json(doc: dict, n_agents: int) -> Tableau:
    """Read a tableau; an edge with a ``rule`` is a rule edge, any other a
    pattern edge."""
    payload = doc["payload"]
    formula = _formula_reader(n_agents)
    nodes = [
        tuple(_literal(formula(t)) for t in _json_list(valuation))
        for valuation in payload["nodes"]
    ]
    edges = [
        (
            json_int(e["src"]),
            _matching_from_json(e, formula) if "rule" in e else None,
            json_int(e["dst"]),
        )
        for e in payload["edges"]
    ]
    return Tableau(json_int(payload["root"]), nodes, edges)


def proof_to_json(doc: ProofDoc) -> dict:
    text = _formula_writer()
    proofs = [
        {"formula": text(f), "rules": [_matching_json(m, text) for m in rules]}
        for f, rules in doc.items()
    ]
    return {"kind": "proof", "version": CERT_VERSIONS["proof"], "payload": {"proofs": proofs}}


def proof_from_json(doc: dict, n_agents: int) -> ProofDoc:
    """Read a proof table; two entries that parse to one formula, however
    they are spelled, make the certificate malformed."""
    formula = _formula_reader(n_agents)
    proof = ProofDoc()
    for entry in doc["payload"]["proofs"]:
        f = formula(entry["formula"])
        if f in proof:
            raise ValueError("two proof entries for %r" % pretty(f))
        proof[f] = tuple(_matching_from_json(m, formula) for m in _json_list(entry["rules"]))
    return proof


def certificate_to_json(cert) -> dict:
    if isinstance(cert, ModelWitness):
        return model_to_json(cert)
    if isinstance(cert, Tableau):
        return tableau_to_json(cert)
    if isinstance(cert, ProofDoc):
        return proof_to_json(cert)
    raise TypeError("not a certificate: %r" % (cert,))


def certificate_from_json(doc: dict, n_agents: int):
    """Read a certificate; raises ValueError for an unsupported version, an
    unknown kind, or a missing or ill-typed field."""
    if not isinstance(doc, dict):
        raise ValueError("malformed certificate: not a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in CERT_VERSIONS:
        raise ValueError("unknown certificate kind %r" % (kind,))
    version = doc.get("version")
    if type(version) is not int or version != CERT_VERSIONS[kind]:
        raise ValueError("unsupported certificate version %r" % (version,))
    try:
        if kind == "model":
            return model_from_json(doc)
        if kind == "tableau":
            return tableau_from_json(doc, n_agents)
        return proof_from_json(doc, n_agents)
    except (KeyError, TypeError, IndexError, AttributeError, ValueError) as exc:
        raise ValueError("malformed certificate: %s: %s" % (type(exc).__name__, exc)) from exc


def check_certificate(cert, f: Formula, cfg: LogicConfig):
    """Dispatching checker: (ok, message)."""
    if isinstance(cert, ModelWitness):
        ok, msg = validate_structure(cert, cfg)
        if not ok:
            return False, msg
        ok = model_check(cert, cert.root, f)
        return ok, "ok" if ok else "model does not satisfy the formula at its root"
    if isinstance(cert, Tableau):
        return check_tableau(cert, f, cfg)
    if isinstance(cert, ProofDoc):
        return check_proof(cert, f, cfg)
    raise TypeError("not a certificate: %r" % (cert,))
