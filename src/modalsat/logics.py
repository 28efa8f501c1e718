"""Per-logic rule sets: matching enumeration, side conditions, and the
coefficient search for the linear (graded / majority / probabilistic) rules.

Supported logics:

==========  ===========================  ==========================
tag         operators                    rules besides congruence
==========  ===========================  ==========================
``E``       ``[]``                       none
``M``       ``[]``                       monotonicity
``K``       ``[]``                       K-schema
``KD``      ``[]``                       K-schema + seriality schema
``COAL``    ``[C ...]``                  coalition schemas (1) and (4')
``GML``     ``<k>``                      graded linear schema
``MAJ``     ``<k>``, ``W``               graded/majority linear schema
``PML``     ``L{p}``                     probabilistic linear schema
==========  ===========================  ==========================

Each shape schema's side condition is written once, in ``_shape_fits``:
``matchings`` proposes a logic's shape instances through it, and
``side_condition`` checks a rule code through it.  Each linear schema's side
condition is written once too, as rows over the coefficient magnitudes and
the bound, in ``_side_rows``: the coefficient search solves them with a
clause's pattern rows, and ``side_condition`` checks a rule code's point
against them.

For the linear schemas a clause has infinitely many matchings, indexed by
nonzero integer coefficients (one per literal, sign agreeing with the
literal) and a premise bound.  ``refuting_matching_exists`` decides whether
some sub-clause of a clause has coefficients making every premise CNF
clause's negation unsatisfiable, given the set of satisfiable sign patterns
of the argument formulas.  One relaxed system over the whole clause answers
this, and the support of its solution is the refuted sub-clause;
``challenges`` asks it once per node and offers the matching as that
sub-clause's only candidate.  The constraint systems are scale-invariant,
so rational feasibility (decided exactly by ``linarith.feasible``)
coincides with integer feasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import linarith
from .formula import (
    Atom,
    Box,
    Coal,
    FModal,
    Formula,
    GDiamond,
    LProb,
    MajW,
    conj_fold,
    neg_fold,
    subformulas,
)
from .onestep import (
    LINEAR_SCHEMES,
    RuleCode,
    RuleMatching,
    code_operators,
    conclusion_clause,
    congruence_matchings,
)

LOGICS = ("E", "M", "K", "KD", "COAL", "GML", "MAJ", "PML")


@dataclass
class LogicConfig:
    """A logic tag plus, for coalition logic, the number of agents."""

    logic: str
    n_agents: int = 2

    def __post_init__(self):
        if self.logic not in LOGICS:
            raise ValueError("unknown logic %r" % self.logic)
        if self.logic == "COAL" and self.n_agents < 1:
            raise ValueError("coalition logic needs at least one agent")

    def coalition_legal(self, agents) -> bool:
        """Is every agent of the coalition one of ``1 .. n_agents``?  Tested
        by range: the set of all agents is never built, so a config's cost
        does not grow with its number of agents."""
        return all(1 <= i <= self.n_agents for i in agents)

    def is_grand_coalition(self, agents) -> bool:
        """Is the coalition the set of all ``n_agents`` agents?"""
        return len(agents) == self.n_agents and self.coalition_legal(agents)

    def is_arithmetic(self) -> bool:
        return self.logic in LINEAR_SCHEMES


def parse_logic_spec(spec: str) -> LogicConfig:
    """Parse a --logic value such as ``K`` or ``COAL:3``."""
    if spec.startswith("COAL"):
        if spec == "COAL":
            return LogicConfig("COAL")
        # int() would also take " 3", "+2" and non-ASCII digits, and the
        # spec is echoed as typed in every JSON record.
        agents = spec[5:]
        if spec[4] != ":" or not (agents.isascii() and agents.isdigit()):
            raise ValueError("bad logic spec %r" % spec)
        return LogicConfig("COAL", n_agents=int(agents))
    return LogicConfig(spec)


def operator_legal(op, cfg: LogicConfig) -> bool:
    if isinstance(op, Atom):
        return True
    if cfg.logic in ("E", "M", "K", "KD"):
        return isinstance(op, Box)
    if cfg.logic == "COAL":
        return (
            isinstance(op, Coal)
            and op.n_agents == cfg.n_agents
            and cfg.coalition_legal(op.agents)
        )
    if cfg.logic == "GML":
        return isinstance(op, GDiamond) and op.grade >= 0
    if cfg.logic == "MAJ":
        return (isinstance(op, GDiamond) and op.grade >= 0) or isinstance(op, MajW)
    if cfg.logic == "PML":
        return isinstance(op, LProb) and 0 <= op.prob <= 1
    raise ValueError("unknown logic %r" % cfg.logic)


def validate_formula(f: Formula, cfg: LogicConfig) -> None:
    for g in subformulas(f):
        if isinstance(g, FModal) and not operator_legal(g.op, cfg):
            raise ValueError(
                "operator %s is not part of logic %s" % (g.op.render(), cfg.logic)
            )


# ---------------------------------------------------------------------------
# Shape-schema matchings
# ---------------------------------------------------------------------------


def _clause_ops(clause):
    """(signs, ops, args) of a clause of proper modal literals."""
    signs = []
    ops = []
    args = []
    for positive, a in clause:
        signs.append(positive)
        ops.append(a.op)
        args.append(a.arg)
    return tuple(signs), tuple(ops), tuple(args)


# Each logic's shape schemes, in the order ``matchings`` proposes them.
_SHAPE_SCHEMES = {"K": ("K",), "KD": ("K", "KD"), "M": ("M",), "COAL": ("COAL1", "COAL4")}


def _shape_fits(scheme, signs, coalitions, d, cfg: LogicConfig) -> bool:
    """Is a conclusion with these literal signs (and, in COAL, coalitions)
    an instance of the shape scheme ``scheme``, with literal ``d``
    distinguished in COAL4?  The one statement of each shape schema's side
    condition; which logic has which scheme is ``_SHAPE_SCHEMES``."""
    n_pos = sum(signs)
    if scheme == "K":
        return n_pos == 1
    if scheme == "KD":
        return n_pos == 0 and len(signs) >= 1
    if scheme == "M":
        return n_pos == 1 and len(signs) == 2
    if len(coalitions) != len(signs):
        return False
    if scheme == "COAL1":
        return n_pos == 0 and len(signs) >= 1 and _pairwise_disjoint(coalitions)
    if not (0 <= d < len(signs) and signs[d]):
        return False
    negatives = [c for c, s in zip(coalitions, signs) if not s]
    if not all(c <= coalitions[d] for c in negatives):
        return False
    if n_pos > 1:
        others = (c for i, (c, s) in enumerate(zip(coalitions, signs)) if s and i != d)
        if not all(cfg.is_grand_coalition(c) for c in others):
            return False
    return _pairwise_disjoint(negatives)


def matchings(clause, cfg: LogicConfig) -> list:
    """All matchings of the finite schemas against a clause of proper modal
    literals whose operators are in the logic, as ``challenges`` builds
    them: congruence first, then each of the logic's shape schemes in
    ``_SHAPE_SCHEMES`` order where ``_shape_fits`` accepts the clause; a
    COAL4 instance takes the first positive literal that fits as its
    distinguished one.  A linear schema has infinitely many matchings;
    ``challenges`` adds the one that matters, the refuting one."""
    out = list(congruence_matchings(clause, cfg.logic))
    schemes = _SHAPE_SCHEMES.get(cfg.logic)
    if not schemes:
        return out
    signs, ops, args = _clause_ops(clause)
    sign_ints = tuple(1 if s else -1 for s in signs)
    coalitions = tuple(op.agents for op in ops) if cfg.logic == "COAL" else ()
    for scheme in schemes:
        for d in (range(len(signs)) if scheme == "COAL4" else (None,)):
            if _shape_fits(scheme, signs, coalitions, d, cfg):
                ints = sign_ints if d is None else sign_ints + (d,)
                code = RuleCode(cfg.logic, scheme, ints=ints, coalitions=coalitions)
                out.append(RuleMatching(code, args))
                break
    return out


def challenges(modal, cfg: LogicConfig, sat_bits):
    """The universal challenges of a node: ``(clause, candidates)`` for the
    clauses over negated literals of ``modal`` that some rule matches and
    that answer for every other such clause (below), in increasing mask
    order (bit i = literal i of ``legal``, below).

    ``modal`` is the node's proper modal literals, ``proper_literals`` of
    its pseudovaluation, and ``sat_bits`` the satisfiable sign patterns of
    their arguments as bitmasks over them.  Only the literals whose
    operator is in the logic (``operator_legal``), ``legal``, in order,
    enter a clause: no rule of the logic mentions another operator, and
    only a node read from a certificate can hold one.  Every clause built
    here is made of them, so ``matchings`` and ``refuting_matching_exists``
    test neither atoms nor operators.

    A linear node has at most one challenge: the clause its relaxed system
    refutes, with the refuting matching as the only candidate, which leaves
    every one of its demands unsatisfiable.  ``refuting_matching_exists`` is
    asked once, for the clause of every legal literal, against ``sat_bits``
    projected onto them.  No congruence pair is asked beside it: congruence
    on ``{~La, Lb}`` refutes only when ``a & ~b`` and ``~a & b`` are both
    unsatisfiable, and then the system refutes the node too
    (docs/certificates.md, "Coverage").

    In the other logics only the inclusion-maximal clauses that a schema's
    shape fits are built, and a clause's candidates are its ``matchings``,
    less congruence wherever another candidate matches the clause.  Only a
    K, M or COAL4 instance can share congruence's pair ``{~La, Lb}``, since
    KD and COAL1 need no positive literal, and its one demand ``a & ~b`` is
    congruence's first.  Each clause is one distinguished clause-positive
    literal (or none, in KD and COAL), every grand-coalition positive in
    COAL, and a maximal family of clause-negative literals that may join it
    (``_families``); a clause inside another is dropped.  Every shape rule
    has one demand, the conjunction of its negative literals' arguments and
    its positive ones' negated arguments, so a clause's demand implies the
    demand of every clause inside it, and a sub-clause's challenge is
    answered exactly when the maximal clause's is (docs/certificates.md,
    "Coverage").  E's congruence pairs lie inside no other clause.  A K or
    KD node thus has one challenge per diamond, with the one candidate K,
    and a refuted node is refuted by the first maximal clause in mask
    order."""
    legal = [(s, a) for s, a in modal if operator_legal(a.op, cfg)]
    if cfg.is_arithmetic():
        if legal:
            node = tuple((not s, a) for s, a in legal)
            atoms = [a for _, a in modal]
            refuter, _ = refuting_matching_exists(
                node, clause_patterns(node, atoms, sat_bits), cfg
            )
            if refuter is not None:
                yield conclusion_clause(refuter, cfg.n_agents), [refuter]
        return
    # Clause literal i is the negation of legal literal i.
    ops = [a.op for _, a in legal]
    pos = [i for i, (s, _) in enumerate(legal) if not s]
    neg = [i for i, (s, _) in enumerate(legal) if s]
    grand = 0
    if cfg.logic == "COAL":
        grand = sum(1 << i for i in pos if cfg.is_grand_coalition(ops[i].agents))
    masks = set()
    for d in pos + ([None] if cfg.logic in ("KD", "COAL") else []):
        head = grand if d is None else grand | 1 << d
        masks.update(head | family for family in _families(d, neg, ops, cfg))
    maximal = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if mask and all(mask & other != mask for other in maximal):
            maximal.append(mask)
    for mask in sorted(maximal):
        clause = tuple((not s, a) for i, (s, a) in enumerate(legal) if mask >> i & 1)
        found = matchings(clause, cfg)
        # A shape instance on a congruence pair has congruence's first
        # demand as its one demand.
        found = [m for m in found if m.code.scheme != "CONG"] or found
        if found:
            yield clause, found


def _families(d, neg, ops, cfg: LogicConfig) -> list:
    """The maximal families of clause-negative literals (indices ``neg``)
    that may join the distinguished clause-positive literal ``d``, or no
    positive literal when ``d`` is None, in one clause, as masks: in K and
    KD all of them; in E and M any one with ``d``'s operator; in COAL the
    maximal families with pairwise disjoint coalitions inside ``d``'s
    coalition, or inside the grand coalition when ``d`` is None."""
    if cfg.logic in ("K", "KD"):
        return [sum(1 << j for j in neg)]
    if cfg.logic != "COAL":
        return [1 << j for j in neg if ops[j] == ops[d]]
    coalitions = [(j, ops[j].agents) for j in neg if d is None or ops[j].agents <= ops[d].agents]
    # A literal whose coalition meets no other one's joins every family;
    # branching on it would double the families only to drop half.
    seen = shared = frozenset()
    for _, c in coalitions:
        shared |= seen & c
        seen |= c
    free = sum(1 << j for j, c in coalitions if not c & shared)
    rest = [(j, c) for j, c in coalitions if c & shared]
    families = [(free, frozenset())]
    for j, c in rest:
        families += [(m | 1 << j, used | c) for m, used in families if not used & c]
    return [m for m, used in families if all(used & c for j, c in rest if not m >> j & 1)]


def _pairwise_disjoint(sets) -> bool:
    seen = set()
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return True


# ---------------------------------------------------------------------------
# Side conditions
# ---------------------------------------------------------------------------


def side_condition(code: RuleCode, cfg: LogicConfig) -> bool:
    """Validity of a rule code in isolation (used by certificate checkers).
    Each schema's side condition is written once, and read here: a shape
    code is checked by ``_shape_fits``, and a linear code whose fields have
    the shape of the logic's codes is checked against ``_side_rows`` at the
    point x_i = |c_i|, t = bound, the rows the coefficient search solves."""
    scheme = code.scheme
    if scheme == "CONG":
        return len(code.ints) == 2 and sorted(code.ints) == [-1, 1]
    arity = code.arity()
    if arity < 1:
        return False
    if scheme in _SHAPE_SCHEMES.get(cfg.logic, ()):
        return _shape_fits(scheme, code.signs(), code.coalitions, code.ints[-1], cfg)
    if scheme != cfg.logic or not cfg.is_arithmetic():
        return False
    coeffs, bound = code.ints[:-1], code.ints[-1]
    if 0 in coeffs or len(code.rationals if scheme == "PML" else code.grades) != arity:
        return False
    if scheme == "GML" and (bound != 0 or any(g < 0 for g in code.grades)):
        return False
    if scheme == "PML" and not all(0 <= p <= 1 for p in code.rationals):
        return False
    rows = [_linear_row(op) for op in code_operators(code, cfg.n_agents)]
    point = {_x(i): abs(c) for i, c in enumerate(coeffs)}
    point["t"] = bound
    return _check_point(_side_rows(code.signs(), rows, cfg), point)


# ---------------------------------------------------------------------------
# Linear-schema coefficient search
# ---------------------------------------------------------------------------


def proper_literals(valuation) -> tuple:
    """The literals of a pseudovaluation's proper modal atoms, in its order."""
    return tuple(
        (s, a) for s, a in valuation if isinstance(a, FModal) and not isinstance(a.op, Atom)
    )


def proper_atoms(valuation) -> list:
    """The proper modal atoms of a pseudovaluation, in its order."""
    return [a for (_, a) in proper_literals(valuation)]


def pattern_formula(arith_atoms, bits: int) -> Formula:
    """The sign pattern ``bits`` of the atoms' arguments as a conjunction."""
    parts = []
    for i, a in enumerate(arith_atoms):
        arg = a.arg
        parts.append(arg if bits >> i & 1 else neg_fold(arg))
    return conj_fold(parts)


def clause_patterns(clause, arith_atoms, sat_bits):
    """Project argument sign patterns (bitmasks over ``arith_atoms``) onto the
    positions of ``clause``, whose atoms come from ``arith_atoms`` in the same
    order, as the clauses of ``challenges`` do."""
    positions = [arith_atoms.index(a) for _, a in clause]
    within = sum(1 << ai for ai in positions)
    patterns = {bits & within for bits in sat_bits}
    # Close the gaps between the clause's atoms, highest first.
    for ai in reversed(range(max(positions))):
        if not within >> ai & 1:
            low = (1 << ai) - 1
            patterns = {bits & low | bits >> 1 & ~low for bits in patterns}
    return patterns


def _linear_row(op):
    """The row kind of a literal with operator ``op`` in the logic's linear
    schema: ``("g", grade)`` for a graded diamond (GML and MAJ), ``("w",
    -1)`` for MAJ's ``W`` (-1 is a rule code's ``W`` grade), and ``("p",
    probability)`` for a probability operator (PML)."""
    if isinstance(op, GDiamond):
        return "g", op.grade
    if isinstance(op, MajW):
        return "w", -1
    return "p", op.prob


def _linear_literal_data(clause):
    """Per-literal (sign, row kind, argument) for the logic's linear schema."""
    signs, ops, args = _clause_ops(clause)
    return signs, [_linear_row(op) for op in ops], args


def _build_constraints(signs, rows, sat_patterns, cfg):
    """Constraint list over magnitude variables x_i and bound t (fixed 0 in
    GML), without the magnitudes' lower bounds: one row per satisfiable
    sign pattern, then the side condition's rows."""
    use_t = cfg.logic != "GML"
    cons = []
    # Every satisfiable sign pattern J must satisfy r(J) >= bound.
    for bits in sorted(sat_patterns):
        coeffs = {_x(i): 1 if s else -1 for i, s in enumerate(signs) if bits >> i & 1}
        if use_t:
            coeffs["t"] = -1
        cons.append((coeffs, 0, False))
    return cons + _side_rows(signs, rows, cfg)


def _side_rows(signs, rows, cfg):
    """The side condition of the logic's linear schema as rows over the
    magnitudes x_i and the bound t, which no GML row reads: the one
    statement of each linear schema's side condition.  The coefficient
    search solves them with the pattern rows, and ``side_condition`` checks
    a rule code's point against them."""
    if cfg.logic == "PML":
        # The one row with rational coefficients: the probabilities.
        coeffs = {"t": 1}
        for i, (_, p) in enumerate(rows):
            coeffs[_x(i)] = -p if signs[i] else p
        coeffs = {v: c for v, c in coeffs.items() if c != 0}
        return [(coeffs, 0, not any(signs))]
    # The premise row A: grade k weighs k + 1 on a negative literal and -k
    # on a positive one; a positive W weighs 1.
    coeffs = {}
    for i, (kind, k) in enumerate(rows):
        if kind == "g":
            coeffs[_x(i)] = k + 1 if not signs[i] else -k
        elif signs[i]:
            coeffs[_x(i)] = 1
    if cfg.logic == "GML":
        return [(coeffs, -1, False)]
    # A - 1 - max(t, 0) >= 0 is convex: A - 1 >= 0 and A - t - 1 >= 0.
    # Then 2t - (signed sum of W coefficients) >= 0.
    w_row = {"t": 2}
    for i, (kind, _) in enumerate(rows):
        if kind == "w":
            w_row[_x(i)] = -1 if signs[i] else 1
    return [(coeffs, -1, False), (dict(coeffs, t=-1), -1, False), (w_row, 0, False)]


def _x(i: int) -> str:
    return "x%d" % i


def _check_point(cons, point) -> bool:
    for coeffs, const, strict in cons:
        total = const + sum(c * point[v] for v, c in coeffs.items())
        if total < 0 or (strict and total == 0):
            return False
    return True


def _small_search(signs, cons, cfg) -> Optional[dict]:
    """Brute-force search over small magnitudes for readable certificates.
    MAJ tries its non-negative bounds first; GML's bound is 0."""
    q = len(signs)
    if q > 4:
        return None
    if cfg.logic == "MAJ":
        t_values = [0, 1, 2, 3, 4, -1, -2, -3, -4]
    else:
        t_values = [0, 1, -1, 2, -2, 3, -3, 4, -4] if cfg.logic == "PML" else [0]
    magnitudes = [1, 2, 3]
    stack = [[]]
    for _ in range(q):
        stack = [base + [m] for base in stack for m in magnitudes]
    for t in t_values:
        for combo in stack:
            point = {_x(i): combo[i] for i in range(q)}
            point["t"] = t
            if _check_point(cons, point):
                return point
    return None


def _scale_to_integers(point) -> dict:
    lcm = math.lcm(*(v.denominator for v in point.values()))
    return {k: v.numerator * (lcm // v.denominator) for k, v in point.items()}


def refuting_matching_exists(clause, sat_patterns, cfg: LogicConfig):
    """Search for a linear-schema matching, with a sub-clause of ``clause``
    as its conclusion, whose premise CNF consists only of clauses with
    unsatisfiable negations.  ``clause`` is made of proper modal literals
    whose operators are in the logic, as ``challenges`` and
    ``sampling.sample_matchings`` build it.

    ``sat_patterns`` is the set of satisfiable sign patterns, as bitmasks
    over clause positions (bit i set = argument of literal i true).

    One relaxed system answers for every sub-clause at once, MAJ's convex
    side condition included: the clause system of the whole clause with
    every ``x_i >= 1`` weakened to ``x_i >= 0``, pruned to the pattern rows
    no other row implies (``_unimplied_patterns``).  The support S of its
    solution is a refuted sub-clause, and it is infeasible exactly when no
    sub-clause is refuted (docs/certificates.md, "One system per node").  S's coefficients come
    from ``_small_search`` when S has at most four literals, and otherwise
    from the solution restricted to S and scaled to integers; either way
    they are checked against S's full system.

    Returns ``(matching_or_None, caveat)``.  The search is exact, so
    ``caveat`` is always False; the pair is the interface callers read.
    """
    signs, rows, _ = _linear_literal_data(clause)
    use_t = cfg.logic != "GML"
    xs = [_x(i) for i in range(len(signs))]
    variables = xs + (["t"] if use_t else [])
    cons = _build_constraints(signs, rows, _unimplied_patterns(signs, sat_patterns), cfg)
    if cfg.logic == "PML":
        positive = [x for x, s in zip(xs, signs) if s] or xs
        cons.append((dict.fromkeys(positive, 1), -1, False))
    point = linarith.feasible(cons, variables, nonneg=xs)
    if point is None:
        return None, False
    support = [i for i in range(len(signs)) if point[_x(i)] > 0]
    sub = tuple(clause[i] for i in support)
    signs, rows, args = _linear_literal_data(sub)
    sub_patterns = clause_patterns(sub, [a for _, a in clause], sat_patterns)
    cons = [({_x(j): 1}, -1, False) for j in range(len(sub))]
    cons += _build_constraints(signs, rows, sub_patterns, cfg)
    restricted = {_x(j): point[_x(i)] for j, i in enumerate(support)}
    if use_t:
        restricted["t"] = point["t"]
    # Small coefficients make readable certificates; the scaled LP
    # point is the exact answer when none fits.
    point = _small_search(signs, cons, cfg) or _scale_to_integers(restricted)
    if not _check_point(cons, point):
        raise RuntimeError("coefficient point fails its own constraint system")
    coeffs = tuple(point[_x(i)] * (1 if signs[i] else -1) for i in range(len(signs)))
    bound = point["t"] if use_t else 0
    code = RuleCode(
        cfg.logic,
        cfg.logic,
        ints=coeffs + (bound,),
        rationals=tuple(v for kind, v in rows if kind == "p"),
        grades=tuple(v for kind, v in rows if kind != "p"),
    )
    return RuleMatching(code, args), False


def _unimplied_patterns(signs, sat_bits) -> set:
    """The patterns of ``sat_bits`` whose rows no other pattern row implies
    when every ``x_i >= 0``.

    The row of pattern J is the sum of x_i over J's clause-positive atoms
    minus the sum over its clause-negative atoms, at least the bound.  So
    J' implies J when J' has a subset of J's clause-positive atoms and a
    superset of its clause-negative atoms, that is, when the key
    ``J' ^ negative`` is a subset of ``J ^ negative``.  Only the minimal
    keys are kept; a key holding some other key holds a minimal one."""
    negative = sum(1 << i for i, s in enumerate(signs) if not s)
    kept = []
    for key in sorted({bits ^ negative for bits in sat_bits}, key=int.bit_count):
        if all(k & key != k for k in kept):
            kept.append(key)
    return {key ^ negative for key in kept}
