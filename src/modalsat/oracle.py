"""Independent semantic oracle.

Everything here evaluates the modal operators directly against small concrete
structures, without touching the solver; the truth conditions are those of
``semantics.lift``, and the structures are in its format:

* ``one_step_sound`` checks a rule instance against all structures over small
  carriers;
* ``brute_force_sat`` searches for a finite tree-shaped (or carrier-based, for
  the neighbourhood logics) model by exhaustive bounded enumeration;
* ``resolve_rules`` cut-combines two linear rule instances on a pivot literal;
* ``strict_completeness_probe`` hunts for a rule instance matching a clause
  that is valid over a given concrete one-step argument assignment.

The searches are bounded, so a ``None`` answer from ``brute_force_sat`` means
"no model within the bounds", not unsatisfiability in general; within the
small-formula regimes used by the tests the bounds are exhaustive.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .formula import (
    Atom,
    FAnd,
    FModal,
    FNot,
    Formula,
    subformulas,
)
from .logics import LogicConfig, challenges
from .onestep import (
    ClausePremise,
    LinearPremise,
    RuleCode,
    RuleMatching,
    code_operators,
)
from .certificates import ModelWitness, model_check
from .semantics import MODEL_KINDS, lift, points_of, relabel

# Search bounds: carrier size for rule soundness and the neighbourhood
# search, weights, probability denominators and strategies per agent of the
# enumerated structures, and children per state of the tree search.
MAX_CARRIER = 3
MAX_MULTIPLICITY = 4
MAX_DENOMINATOR = 12
MAX_STRATEGIES = 2
BRANCH_BOUND = 4


# ---------------------------------------------------------------------------
# One-step semantic backends
# ---------------------------------------------------------------------------


class PowersetBackend:
    def __init__(self, serial: bool):
        self.serial = serial

    def structures(self, n: int):
        for mask in range(1 if self.serial else 0, 1 << n):
            yield frozenset(i for i in range(n) if mask >> i & 1)


class NeighbourhoodBackend:
    def __init__(self, monotone: bool):
        self.monotone = monotone

    def structures(self, n: int):
        subsets = [
            frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)
        ]
        for pick in range(1 << len(subsets)):
            alpha = frozenset(
                subsets[i] for i in range(len(subsets)) if pick >> i & 1
            )
            if self.monotone:
                # Up-closed collections only.
                if not all(
                    other in alpha
                    for member in alpha
                    for other in subsets
                    if member <= other
                ):
                    continue
            yield alpha


class MultisetBackend:
    def structures(self, n: int):
        for ws in itertools.product(range(MAX_MULTIPLICITY + 1), repeat=n):
            yield dict(enumerate(ws))


class DistributionBackend:
    def structures(self, n: int):
        if n == 0:
            return
        seen = set()
        for den in range(1, MAX_DENOMINATOR + 1):
            for parts in _compositions(den, n):
                dist = tuple(Fraction(p, den) for p in parts)
                if dist not in seen:
                    seen.add(dist)
                    yield dict(enumerate(dist))


def _compositions(total: int, parts: int):
    """All splits of ``total`` into ``parts`` non-negative summands."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class GameBackend:
    def __init__(self, n_agents: int):
        self.n_agents = n_agents

    def structures(self, n: int):
        if n == 0:
            return
        for sizes in itertools.product(range(1, MAX_STRATEGIES + 1), repeat=self.n_agents):
            profiles = list(itertools.product(*(range(s) for s in sizes)))
            for outcomes in itertools.product(range(n), repeat=len(profiles)):
                yield (sizes, dict(zip(profiles, outcomes)))


def backend_for(cfg: LogicConfig):
    if cfg.logic == "K":
        return PowersetBackend(serial=False)
    if cfg.logic == "KD":
        return PowersetBackend(serial=True)
    if cfg.logic == "E":
        return NeighbourhoodBackend(monotone=False)
    if cfg.logic == "M":
        return NeighbourhoodBackend(monotone=True)
    if cfg.logic in ("GML", "MAJ"):
        return MultisetBackend()
    if cfg.logic == "PML":
        return DistributionBackend()
    if cfg.logic == "COAL":
        return GameBackend(cfg.n_agents)
    raise ValueError("unknown logic %r" % cfg.logic)


# ---------------------------------------------------------------------------
# One-step rule soundness
# ---------------------------------------------------------------------------


def _premise_holds(premise, tau, n: int) -> bool:
    """Does every carrier element satisfy the propositional premise under the
    subset assignment ``tau``?"""
    if isinstance(premise, ClausePremise):
        for clause in premise.clauses:
            for x in range(n):
                if not any((x in tau[v]) == s for (s, v) in clause):
                    return False
        return True
    if isinstance(premise, LinearPremise):
        for x in range(n):
            weight = sum(c for c, t in zip(premise.coeffs, tau) if x in t)
            if weight < premise.bound:
                return False
        return True
    raise TypeError(premise)


_SOUNDNESS_CACHE = {}


def one_step_sound(code: RuleCode, cfg: LogicConfig, max_carrier: int = None) -> bool:
    """Checks the one-step rule instance: over every carrier up to the bound
    (``MAX_CARRIER`` unless given), every argument assignment validating the
    premise, and every structure, some conclusion literal must hold."""
    if max_carrier is None:
        max_carrier = MAX_CARRIER
    cache_key = (code, cfg.logic, cfg.n_agents, max_carrier)
    cached = _SOUNDNESS_CACHE.get(cache_key)
    if cached is not None:
        return cached
    result = _one_step_sound(code, cfg, max_carrier)
    _SOUNDNESS_CACHE[cache_key] = result
    return result


def _one_step_sound(code: RuleCode, cfg: LogicConfig, max_carrier: int) -> bool:
    from .onestep import premise_of

    q = code.arity()
    premise = premise_of(code)
    ops = code_operators(code, cfg.n_agents)
    signs = code.signs()
    backend = backend_for(cfg)
    kind = MODEL_KINDS[cfg.logic]
    monotone = cfg.logic == "M"
    for n in range(max_carrier + 1):
        subsets = [
            frozenset(i for i in range(n) if mask >> i & 1)
            for mask in range(1 << n)
        ]
        taus = [
            tau
            for tau in itertools.product(subsets, repeat=q)
            if _premise_holds(premise, tau, n)
        ]
        if not taus:
            continue
        for struct in backend.structures(n):
            for tau in taus:
                if not any(
                    lift(kind, ops[i], struct, tau[i], monotone) == signs[i]
                    for i in range(q)
                ):
                    return False
    return True


# ---------------------------------------------------------------------------
# Brute-force satisfiability
# ---------------------------------------------------------------------------


class _Proto:
    """A concrete state under construction inside a scratch model."""

    __slots__ = ("sid", "label", "struct")

    def __init__(self, sid, label, struct):
        self.sid = sid
        self.label = label  # frozenset of atom names
        self.struct = struct  # as semantics.lift reads it, over child protos


def _names_and_args(f: Formula):
    """The atom names and the distinct modal arguments of ``f``, each in
    order of first occurrence among its subformulas."""
    names = []
    args = []
    for g in subformulas(f):
        if isinstance(g, FModal):
            if isinstance(g.op, Atom):
                if g.op.name not in names:
                    names.append(g.op.name)
            elif g.arg not in args:
                args.append(g.arg)
    return names, args


class _TreeEnumerator:
    """Level-wise enumeration of bounded tree models (with self-loop leaves
    where the logic forbids dead ends)."""

    def __init__(self, f: Formula, cfg: LogicConfig):
        self.f = f
        self.cfg = cfg
        self.kind = MODEL_KINDS[cfg.logic]
        self.prop_names, self.args = _names_and_args(f)
        self.memo = {}
        self.next_sid = 0

    # -- truth of a formula at a proto --------------------------------------

    def holds(self, proto: _Proto, g: Formula) -> bool:
        key = (proto.sid, g)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        result = self._eval(proto, g)
        self.memo[key] = result
        return result

    def _eval(self, proto, g) -> bool:
        if isinstance(g, FAnd):
            return self.holds(proto, g.lhs) and self.holds(proto, g.rhs)
        if isinstance(g, FNot):
            return not self.holds(proto, g.arg)
        if not isinstance(g, FModal):
            return False  # bottom
        if isinstance(g.op, Atom):
            return g.op.name in proto.label
        inside = {t for t in points_of(self.kind, proto.struct) if self.holds(t, g.arg)}
        return lift(self.kind, g.op, proto.struct, inside)

    # -- structure generation ------------------------------------------------

    def _labels(self):
        for mask in range(1 << len(self.prop_names)):
            yield frozenset(
                nm for i, nm in enumerate(self.prop_names) if mask >> i & 1
            )

    def _terminal_structs(self, proto_slot):
        """Structures with no real children; proto_slot lets self-loops refer
        to the state being created."""
        kind = self.kind
        if kind == "kripke":
            if self.cfg.logic == "KD":
                yield (proto_slot,)
            else:
                yield ()
        elif kind == "multigraph":
            yield {}
        elif kind == "distribution":
            yield {proto_slot: Fraction(1)}
        elif kind == "game":
            sizes = tuple(1 for _ in range(self.cfg.n_agents))
            profile = tuple(0 for _ in range(self.cfg.n_agents))
            yield (sizes, {profile: proto_slot})

    def _child_structs(self, children):
        """Structures over a fixed non-empty tuple of child protos."""
        kind = self.kind
        cfg = self.cfg
        if kind == "kripke":
            yield children
        elif kind == "multigraph":
            for ws in itertools.product(
                range(1, MAX_MULTIPLICITY + 1), repeat=len(children)
            ):
                yield dict(zip(children, ws))
        elif kind == "distribution":
            seen = set()
            for den in range(len(children), MAX_DENOMINATOR + 1):
                for parts in _compositions(den - len(children), len(children)):
                    probs = tuple(Fraction(p + 1, den) for p in parts)
                    if probs in seen:
                        continue
                    seen.add(probs)
                    yield dict(zip(children, probs))
        elif kind == "game":
            for sizes in itertools.product(
                range(1, MAX_STRATEGIES + 1), repeat=cfg.n_agents
            ):
                profiles = list(itertools.product(*(range(s) for s in sizes)))
                for outs in itertools.product(children, repeat=len(profiles)):
                    yield (sizes, dict(zip(profiles, outs)))

    def _make(self, label, struct) -> _Proto:
        proto = _Proto(self.next_sid, label, None)
        self.next_sid += 1
        # Self-loop placeholders (None) become the new proto.
        proto.struct = relabel(self.kind, struct, lambda t: proto if t is None else t)
        return proto

    # -- the search ----------------------------------------------------------

    def search(self, depth_bound: int) -> Optional[_Proto]:
        level = []
        vectors = set()

        def tracked(d):
            names = tuple(self.prop_names)
            return names, tuple(g for g in self.args if g.depth <= d)

        def vec(proto, d):
            names, gs = tracked(d)
            return (
                tuple(nm in proto.label for nm in names),
                tuple(self.holds(proto, g) for g in gs),
            )

        def add(proto, d, pool):
            v = vec(proto, d)
            if v not in vectors:
                vectors.add(v)
                pool.append(proto)

        # Candidate generation shared between inner levels and the root.
        def candidates(pool):
            for label in self._labels():
                for struct in self._terminal_structs(None):
                    yield self._make(label, struct)
            for size in range(1, BRANCH_BOUND + 1):
                for children in itertools.combinations(pool, size):
                    for label in self._labels():
                        for struct in self._child_structs(children):
                            yield self._make(label, struct)

        if depth_bound == 0:
            for label in self._labels():
                for struct in self._terminal_structs(None):
                    proto = self._make(label, struct)
                    if self.holds(proto, self.f):
                        return proto
            return None

        for d in range(depth_bound):
            new_pool = []
            vectors = set()
            for proto in level:
                add(proto, d, new_pool)
            if d == 0:
                for label in self._labels():
                    for struct in self._terminal_structs(None):
                        add(self._make(label, struct), d, new_pool)
            else:
                for proto in candidates(level):
                    add(proto, d, new_pool)
            level = new_pool
        for proto in candidates(level):
            if self.holds(proto, self.f):
                return proto
        return None

    # -- witness materialization ----------------------------------------------

    def materialize(self, root: _Proto) -> ModelWitness:
        cfg = self.cfg
        w = ModelWitness(
            kind=self.kind,
            root=0,
            states=[],
            labels={},
            serial=cfg.logic == "KD",
        )
        structs = w.structures()
        ids = {}

        def visit(proto: _Proto) -> int:
            if proto.sid in ids:
                return ids[proto.sid]
            s = len(w.states)
            ids[proto.sid] = s
            w.states.append(s)
            w.labels[s] = proto.label
            structs[s] = relabel(self.kind, proto.struct, visit)
            return s

        w.root = visit(root)
        return w


def _neighbourhood_sat(f: Formula, cfg: LogicConfig) -> Optional[ModelWitness]:
    """Carrier-based search for the neighbourhood logics: choose labels and a
    truth bit for every (state, box-argument) pair, enforce that equal (or,
    for the monotone logic, included) argument truth sets get consistent
    bits, then read the neighbourhoods off the positive bits."""
    monotone = cfg.logic == "M"
    prop_names, args = _names_and_args(f)
    args.sort(key=lambda g: g.depth)  # stable: ties keep first-occurrence order
    np, na = len(prop_names), len(args)

    for n in range(1, MAX_CARRIER + 1):
        width = n * (np + na)
        if width > 22:
            break
        for choice in range(1 << width):
            label = []
            boxbit = []
            pos = 0
            for s in range(n):
                label.append(
                    frozenset(
                        prop_names[i] for i in range(np) if choice >> (pos + i) & 1
                    )
                )
                pos += np
                boxbit.append(
                    tuple(bool(choice >> (pos + i) & 1) for i in range(na))
                )
                pos += na

            def ev(s, g):
                if isinstance(g, FAnd):
                    return ev(s, g.lhs) and ev(s, g.rhs)
                if isinstance(g, FNot):
                    return not ev(s, g.arg)
                if not isinstance(g, FModal):
                    return False
                if isinstance(g.op, Atom):
                    return g.op.name in label[s]
                return boxbit[s][args.index(g.arg)]

            truth_sets = [
                frozenset(s for s in range(n) if ev(s, g)) for g in args
            ]
            consistent = True
            for i in range(na):
                for j in range(na):
                    if i == j:
                        continue
                    if monotone:
                        if truth_sets[i] <= truth_sets[j]:
                            if any(
                                boxbit[s][i] and not boxbit[s][j] for s in range(n)
                            ):
                                consistent = False
                                break
                    elif truth_sets[i] == truth_sets[j]:
                        if any(boxbit[s][i] != boxbit[s][j] for s in range(n)):
                            consistent = False
                            break
                if not consistent:
                    break
            if not consistent:
                continue
            root = next((s for s in range(n) if ev(s, f)), None)
            if root is None:
                continue
            w = ModelWitness(
                kind="neighbourhood",
                root=root,
                states=list(range(n)),
                labels={s: label[s] for s in range(n)},
                monotone=monotone,
            )
            for s in range(n):
                hoods = []
                for i in range(na):
                    if boxbit[s][i] and truth_sets[i] not in hoods:
                        hoods.append(truth_sets[i])
                w.neigh[s] = tuple(hoods)
            if model_check(w, root, f):
                return w
    return None


def brute_force_sat(
    f: Formula, cfg: LogicConfig, depth_bound: int = None
) -> Optional[ModelWitness]:
    """Exhaustive bounded model search; returns a checked witness or None."""
    if cfg.logic in ("E", "M"):
        return _neighbourhood_sat(f, cfg)
    if depth_bound is None:
        depth_bound = f.depth
    enum = _TreeEnumerator(f, cfg)
    root = enum.search(depth_bound)
    if root is None:
        return None
    w = enum.materialize(root)
    if not model_check(w, w.root, f):
        raise AssertionError("enumerated witness failed its own check")
    return w


# ---------------------------------------------------------------------------
# Rule resolution
# ---------------------------------------------------------------------------


def resolve_rules(code1: RuleCode, code2: RuleCode, i: int, j: int) -> Optional[RuleCode]:
    """Cut two unit-coefficient linear rule instances on a pivot: literal
    ``i`` of the first (must be positive, coefficient +1) against literal
    ``j`` of the second (negative, coefficient -1) over the same operator.
    Returns the combined instance, or None when the pivot does not line up."""
    if code1.scheme != code2.scheme or code1.scheme not in ("GML", "MAJ", "PML"):
        return None
    if any(abs(r) != 1 for r in code1.ints[:-1] + code2.ints[:-1]):
        return None
    q1, q2 = code1.arity(), code2.arity()
    if not (0 <= i < q1 and 0 <= j < q2):
        return None
    if code1.ints[i] != 1 or code2.ints[j] != -1:
        return None

    def op_key(code, k):
        if code.scheme == "GML":
            return code.grades[k]
        if code.scheme == "MAJ":
            return code.grades[k]
        return code.rationals[k]

    if op_key(code1, i) != op_key(code2, j):
        return None
    ints = (
        tuple(r for k, r in enumerate(code1.ints[:-1]) if k != i)
        + tuple(r for k, r in enumerate(code2.ints[:-1]) if k != j)
        + (code1.ints[-1] + code2.ints[-1],)
    )
    grades = tuple(g for k, g in enumerate(code1.grades) if k != i) + tuple(
        g for k, g in enumerate(code2.grades) if k != j
    )
    rationals = tuple(r for k, r in enumerate(code1.rationals) if k != i) + tuple(
        r for k, r in enumerate(code2.rationals) if k != j
    )
    return RuleCode(code1.logic, code1.scheme, ints, rationals, grades, ())


# ---------------------------------------------------------------------------
# Strict one-step completeness probe
# ---------------------------------------------------------------------------


def clause_valid_on(chi, tau, n: int, cfg: LogicConfig) -> bool:
    """Is the abstract clause ``chi`` (pairs of sign and operator) true under
    every structure, given the argument subsets ``tau``?"""
    kind = MODEL_KINDS[cfg.logic]
    for struct in backend_for(cfg).structures(n):
        if not any(
            lift(kind, op, struct, tau[i], cfg.logic == "M") == s
            for i, (s, op) in enumerate(chi)
        ):
            return False
    return True


def strict_completeness_probe(
    chi, tau, n: int, cfg: LogicConfig
) -> Optional[RuleMatching]:
    """Given a clause of signed operators valid over ``tau``, find a rule
    instance whose conclusion is a subclause and whose premise holds pointwise
    on the carrier.  Returns None when no instance is found."""
    from .formula import atom, modal

    lits = tuple((s, modal(op, atom("v%d" % i))) for i, (s, op) in enumerate(chi))
    position = {a: i for i, (_, a) in enumerate(lits)}
    # The argument sign pattern of each carrier point, over all literals.
    sat_bits = {sum(1 << k for k in range(len(lits)) if x in tau[k]) for x in range(n)}
    for sub, cands in challenges(tuple((not s, a) for s, a in lits), cfg, sat_bits):
        sub_tau = tuple(tau[position[a]] for _, a in sub)
        for m in cands:
            if _premise_holds(m.premise(), sub_tau, n):
                return m
    return None
