"""Independent semantic oracle.

Everything here evaluates the modal operators directly against small concrete
structures, without touching the solver; the truth conditions are those of
``semantics.lifting``, and the structures are in its format.  Formula truth at
the states of a finite model has one evaluator, ``certificates._Checker``:
the same checker serves ``check-cert``, model synthesis and the tree search
below.

* ``one_step_sound`` checks a rule instance against all structures over small
  carriers, up to renaming the carrier's points.  Predicate liftings are
  natural transformations, so renaming the points of a structure and of the
  argument sets alike leaves every literal's truth unchanged; and the
  premise holds point by point, so the argument assignments it validates
  are the products of per-point sign patterns, a set closed under renaming.
  The patterns are read off ``onestep.premise_clauses``, the premise that
  the solver and the certificate checkers demand.
  A counterexample therefore exists only if one exists at a single
  representative of each structure's orbit, with every assignment tried.
  The representatives, and each operator's truth under every representative
  and argument set, are tables built once per invocation and shared by every
  rule checked; each representative's lifting is prepared once and read for
  every argument set.  A rule is decided by a depth-first search that gives
  the points their sign patterns one at a time and cuts a branch as soon as
  the bit masks of the structures where each literal can still fail no
  longer meet;
* ``brute_force_sat`` searches for a finite tree-shaped (or carrier-based, for
  the neighbourhood logics) model by exhaustive bounded enumeration.  The
  tree search groups candidate states by type: their modal truths depend
  only on the one-step structure and the children's truths, so each
  structure's lifting of an operator is prepared once and read once per
  distinct input, and a candidate is built only when it is kept, as a state
  of one scratch model that the checker reads.  The witness is the first in
  the candidate order (size, child combination, label, structure).  For the
  neighbourhood logics it guesses a truth bit for every box at every point
  of a small carrier, reads the neighbourhoods off the positive bits, and
  keeps a guess only when ``lift`` gives every box its bit;
* ``structures`` writes out each logic's one-step structures over a small
  carrier, the only place they are enumerated: rule soundness, the tree
  search and the tests' strict completeness probe (tests/test_oracle.py)
  all read it, so a leaner structure space (COAL effectivity functions, E/M
  orbits, PML integer numerators) goes in there.

The searches are bounded, so a ``None`` answer from ``brute_force_sat`` means
"no model within the bounds", not unsatisfiability in general; within the
small-formula regimes used by the tests the bounds are exhaustive.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Optional

from .formula import (
    Atom,
    Box,
    FModal,
    Formula,
    atom,
    eval_with,
    modal,
    modal_atoms,
    subformulas,
)
from .logics import LogicConfig
from .onestep import RuleCode, code_operators, premise_clauses
from .certificates import ModelWitness, _Checker, model_check
from .semantics import MODEL_KINDS, lift, lifting, relabel

# Search bounds: carrier size for rule soundness and the neighbourhood
# search, weights, probability denominators and strategies per agent of the
# enumerated structures, and children per state of the tree search.
MAX_CARRIER = 3
MAX_MULTIPLICITY = 4
MAX_DENOMINATOR = 12
MAX_STRATEGIES = 2
BRANCH_BOUND = 4


# ---------------------------------------------------------------------------
# One-step structures
# ---------------------------------------------------------------------------


def structures(cfg: LogicConfig, n: int, full: bool = False):
    """Every one-step structure of the logic over the points ``0 .. n - 1``,
    in the format of ``semantics.lift``, within the bounds above.

    With ``full``, only the structures that use every point: the whole
    carrier as successors, every weight or probability positive.  Every
    neighbourhood collection and every game table counts as full.  These are
    the tree search's structures over its children."""
    kind = MODEL_KINDS[cfg.logic]
    low = int(full)
    if kind == "kripke":
        # Mask 0, the dead end, is no KD structure.
        first = (1 << n) - 1 if full else 0
        for mask in range(max(first, cfg.logic == "KD"), 1 << n):
            yield frozenset(i for i in range(n) if mask >> i & 1)
    elif kind == "neighbourhood":
        subsets = [frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n)]
        # Per point x, the bits of ``pick`` (one per subset) of the subsets
        # without x.
        without = [sum(1 << m for m in range(1 << n) if not m >> x & 1) for x in range(n)]
        for pick in range(1 << len(subsets)):
            # M keeps the up-closed collections: adding a point x to a
            # member, which moves its bit up by 2^x, gives a member.
            if cfg.logic == "M" and any(
                (pick & w) << (1 << x) & ~pick for x, w in enumerate(without)
            ):
                continue
            yield frozenset(t for i, t in enumerate(subsets) if pick >> i & 1)
    elif kind == "multigraph":
        for ws in itertools.product(range(low, MAX_MULTIPLICITY + 1), repeat=n):
            yield dict(enumerate(ws))
    elif kind == "distribution":
        for den in range(1, MAX_DENOMINATOR + 1):
            # With ``full``, one unit per point first, then split the rest.
            for parts in _compositions(den - low * n, n):
                parts = tuple(p + low for p in parts)
                # In lowest terms only: each distribution comes once, at its
                # least denominator.
                if math.gcd(den, *parts) == 1:
                    yield {i: Fraction(p, den) for i, p in enumerate(parts)}
    else:
        for sizes in itertools.product(range(1, MAX_STRATEGIES + 1), repeat=cfg.n_agents):
            profiles = list(itertools.product(*(range(s) for s in sizes)))
            for outcomes in itertools.product(range(n), repeat=len(profiles)):
                yield (sizes, dict(zip(profiles, outcomes)))


def _compositions(total: int, parts: int):
    """All splits of ``total`` into ``parts`` non-negative summands (none
    when ``total`` is negative)."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# One-step rule soundness
# ---------------------------------------------------------------------------


def _point_patterns(code: RuleCode) -> list:
    """The argument sign patterns (bit ``i``: the point is in argument
    ``i``) that one point may have under the rule's premise, in increasing
    order: those that falsify none of its clauses (``premise_clauses``), the
    clauses whose negated instances the solver demands.  A clause names
    every variable once, so the one pattern falsifying it gives each
    variable the opposite of its sign there."""
    falsifying = {sum(1 << v for s, v in clause if not s) for clause in premise_clauses(code)}
    return [bits for bits in range(1 << code.arity()) if bits not in falsifying]


def _canonical(kind: str, struct) -> bool:
    """Is ``struct`` the representative of its orbit under permutations of
    the carrier ``0 .. n - 1``?  Each orbit of ``structures`` has exactly
    one; neighbourhood structures are all kept."""
    if kind == "kripke":
        # The successors are 0 .. k - 1.
        return struct == frozenset(range(len(struct)))
    if kind in ("multigraph", "distribution"):
        # The weights do not increase along the points.
        ws = list(struct.values())
        return all(a >= b for a, b in zip(ws, ws[1:]))
    if kind == "game":
        # The outcomes first occur in the order 0, 1, ... over the profiles.
        fresh = 0
        for t in struct[1].values():
            if t > fresh:
                return False
            if t == fresh:
                fresh += 1
        return True
    return True


_SOUNDNESS_CACHE = {}


def _canonical_structures(cfg: LogicConfig, n: int) -> list:
    """The orbit representatives (``_canonical``) among ``structures(cfg,
    n)``, in the order it yields them; built once per (logic, agents,
    carrier) in ``_SOUNDNESS_CACHE``.

    PML's representatives are the distributions whose probabilities do not
    increase along the points, so only those compositions become dicts."""
    key = ("structures", cfg.logic, cfg.n_agents, n)
    reps = _SOUNDNESS_CACHE.get(key)
    if reps is None:
        if cfg.logic == "PML":
            # In lowest terms only, as in ``structures``.
            reps = [
                {i: Fraction(p, den) for i, p in enumerate(parts)}
                for den in range(1, MAX_DENOMINATOR + 1)
                for parts in _non_increasing(den, n, den)
                if math.gcd(den, *parts) == 1
            ]
        else:
            kind = MODEL_KINDS[cfg.logic]
            reps = [t for t in structures(cfg, n) if _canonical(kind, t)]
        _SOUNDNESS_CACHE[key] = reps
    return reps


def _non_increasing(total: int, parts: int, cap: int):
    """The splits of ``total`` into ``parts`` non-negative summands of at
    most ``cap`` that do not increase, in the order of ``_compositions``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(-(-total // parts), min(total, cap) + 1):
        for rest in _non_increasing(total - head, parts - 1, head):
            yield (head,) + rest


def _lift_table(cfg: LogicConfig, op, n: int) -> list:
    """For each argument set over carrier ``n``, indexed by its bit mask, a
    bit mask over ``_canonical_structures(cfg, n)`` of the representatives
    where ``op`` holds; built once per (logic, agents, operator, carrier)
    in ``_SOUNDNESS_CACHE``.  Each representative's lifting is prepared
    once and read for every argument set."""
    key = ("lift", cfg.logic, cfg.n_agents, op, n)
    table = _SOUNDNESS_CACHE.get(key)
    if table is None:
        kind = MODEL_KINDS[cfg.logic]
        monotone = cfg.logic == "M"
        reps = _canonical_structures(cfg, n)
        holds = [lifting(kind, op, struct, monotone) for struct in reps]
        table = []
        for mask in range(1 << n):
            inside = frozenset(x for x in range(n) if mask >> x & 1)
            table.append(sum(1 << r for r, h in enumerate(holds) if h(inside)))
        _SOUNDNESS_CACHE[key] = table
    return table


def _failure_levels(cfg: LogicConfig, op, positive: bool, n: int) -> list:
    """Where a literal over ``op``, with sign ``positive``, fails, as bit
    masks over ``_canonical_structures(cfg, n)``: level ``k``, for ``k = 0
    .. n``, maps the bit mask of the argument set's points below ``k`` to
    the representatives where the literal fails for *some* argument set
    with those points below ``k``.  Level ``n`` is exact, and each level is
    the OR of two entries of the level below.  Built once per (logic,
    agents, operator, sign, carrier) in ``_SOUNDNESS_CACHE``."""
    key = ("fails", cfg.logic, cfg.n_agents, op, positive, n)
    levels = _SOUNDNESS_CACHE.get(key)
    if levels is None:
        table = _lift_table(cfg, op, n)
        if positive:
            every = (1 << len(_canonical_structures(cfg, n))) - 1
            table = [every ^ holds for holds in table]
        levels = _SOUNDNESS_CACHE[key] = _prefix_levels(table, n)
    return levels


def _prefix_levels(table: list, n: int) -> list:
    """``table``, indexed by the argument sets over carrier ``n``, and its
    coarsenings: level ``k`` ORs the entries of all the argument sets with
    the same points below ``k``."""
    levels = [table]
    for k in range(n - 1, -1, -1):
        below = levels[0]
        levels.insert(0, [below[m] | below[m | 1 << k] for m in range(1 << k)])
    return levels


def one_step_sound(code: RuleCode, cfg: LogicConfig, max_carrier: int = None) -> bool:
    """Checks the one-step rule instance: over every carrier up to the bound
    (``MAX_CARRIER`` unless given), every argument assignment validating the
    premise, and every structure, some conclusion literal must hold."""
    if max_carrier is None:
        max_carrier = MAX_CARRIER
    cache_key = ("sound", code, cfg.logic, cfg.n_agents, max_carrier)
    cached = _SOUNDNESS_CACHE.get(cache_key)
    if cached is not None:
        return cached
    result = _one_step_sound(code, cfg, max_carrier)
    _SOUNDNESS_CACHE[cache_key] = result
    return result


def _one_step_sound(code: RuleCode, cfg: LogicConfig, max_carrier: int) -> bool:
    """``one_step_sound`` without the verdict cache, checking one structure
    per orbit under permutations of the carrier.

    If the structure ``s`` and the assignment ``t`` make every conclusion
    literal fail, so do ``p s`` and ``p t`` for any permutation ``p``:
    ``lift`` is natural in the points, ``structures`` is closed under
    renaming, and so is the set of premise-validating assignments,
    since the premise is checked point by point.  So it is enough to try
    every assignment against the representative (``_canonical``) of each
    orbit.  For the same reason the valid assignments over ``n`` points are
    the ways of giving each point a sign pattern valid at one point, which
    ``_counterexample`` tries point by point; they are read off
    ``premise_clauses``, so the premise judged here is the one the solver
    and the certificate checkers demand.  The rule prepares no lifting of
    its own: each literal reads its operator's ``_failure_levels``."""
    ops = code_operators(code, cfg.n_agents)
    patterns = _point_patterns(code)
    for n in range(max_carrier + 1):
        every = (1 << len(_canonical_structures(cfg, n))) - 1
        if not every:
            continue
        levels = [
            _failure_levels(cfg, op, positive, n)
            for op, positive in zip(ops, code.signs())
        ]
        if _counterexample(levels, patterns, n, every):
            return False
    return True


def _counterexample(levels: list, patterns: list, n: int, every: int) -> bool:
    """Is there an assignment over carrier ``n`` giving each point one of
    ``patterns`` (bit ``i``: the point is in argument ``i``) and a
    representative in ``every`` where each literal fails, with the
    literals' ``_failure_levels`` in ``levels``?

    The search gives the points 0 .. n - 1 their patterns depth first.  A
    branch is cut as soon as no representative is left where every literal
    fails for some completion of its argument set; a leaf with one left is
    a counterexample.  Carrier 0 has one assignment, the empty one, which
    validates every premise even when no pattern does."""

    def descend(k: int, masks: list, left: int) -> bool:
        if k == n:
            return True
        below = [literal[k + 1] for literal in levels]
        for bits in patterns:
            grown = [m | (bits >> i & 1) << k for i, m in enumerate(masks)]
            meet = left
            for table, m in zip(below, grown):
                meet &= table[m]
                if not meet:
                    break
            else:
                if descend(k + 1, grown, meet):
                    return True
        return False

    left = every
    for literal in levels:
        left &= literal[0][0]
    return bool(left) and descend(0, [0] * len(levels), left)


# ---------------------------------------------------------------------------
# Brute-force satisfiability
# ---------------------------------------------------------------------------


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
    where the logic forbids dead ends).

    Level ``d`` keeps the first candidate for each vector of truths of the
    atoms and of the modal arguments of depth at most ``d``; the root is the
    first candidate where ``f`` holds.  Candidates come in the order (size,
    child combination, label, structure), terminal ones first, and are
    grouped by type rather than evaluated one by one.  A candidate with
    children gets its modal truths from its structure and its children's
    truths alone, and its label matters only through the atoms the tracked
    formulas read at top level.  So the structures over child positions are
    lifted once per distinct input (child count, operators, argument
    positions), structures with equal modal truths collapse into the first
    of them, and a child combination or a label that agrees with an earlier
    one on everything read is skipped.  None of this skips a candidate that
    could be kept, so levels and witness are those of the one-by-one
    enumeration; only a candidate that enters a level, or the root, is
    built.  Structures are generated lazily, so the root search stops at its
    first hit even where a child count has billions of them.  Built
    candidates are the states of one scratch model, ``self.w``, whose truths
    the model checker reads."""

    def __init__(self, f: Formula, cfg: LogicConfig):
        self.f = f
        self.cfg = cfg
        self.kind = MODEL_KINDS[cfg.logic]
        self.prop_names, self.args = _names_and_args(f)
        self.w = ModelWitness(kind=self.kind, root=0, states=[], labels={})
        self.check = _Checker(self.w).check
        # The structure of a state with no real children: the first full one
        # over no point, or else over one point, which becomes ``None``, the
        # state being created (a self-loop).
        self.terminal = relabel(
            self.kind,
            next(itertools.chain(structures(cfg, 0, True), structures(cfg, 1, True))),
            lambda t: None,
        )
        self.templates = {}  # child count -> structures over child positions
        self.liftings = {}  # (child count, op) -> lifting per template
        self.lifts = {}  # (child count, op, inside mask) -> truth per template
        self.types = {}  # (child count, ops, masks) -> list from ``_types``

    # -- structure generation ------------------------------------------------

    def _labels(self):
        for mask in range(1 << len(self.prop_names)):
            yield frozenset(
                nm for i, nm in enumerate(self.prop_names) if mask >> i & 1
            )

    def _column(self, size: int, op, mask: int) -> tuple:
        """The truth of ``op`` under each kept structure over ``size``
        children when its argument holds at the child positions in
        ``mask``."""
        key = (size, op, mask)
        got = self.lifts.get(key)
        if got is None:
            holds = self.liftings.get((size, op))
            if holds is None:
                holds = self.liftings[(size, op)] = [
                    lifting(self.kind, op, t) for t in self.templates[size]
                ]
            inside = frozenset(i for i in range(size) if mask >> i & 1)
            got = self.lifts[key] = tuple(h(inside) for h in holds)
        return got

    def _walk(self, size: int, ops: tuple, masks: tuple):
        """Each structure over ``size`` children with the truths of ``ops``,
        given each operator's argument positions in ``masks``.

        Until one walk has gone through all of them, the structures are
        generated and lifted one at a time, so a caller that stops early
        (the root, at its first hit) pays only for the prefix it saw.  A
        walk that reaches the end keeps the structures and its truths, and
        from then on each (operator, mask) is lifted once over all of
        them.

        Both paths stay.  The lazy walk lets a root search under four agents
        stop before billions of structures (see
        ``test_tree_search_finds_three_successors_under_four_agents``).  The
        cached columns carry a search that finds nothing, such as the COAL:3
        three-choice formula of the CI step, over all 66,356 four-child
        structures.  A chunked single path with columns was slower on some
        COAL:3 search each time it was tried (``[C 1]a & [C 2]~a & [C 3]b``:
        1.7 s to 3.1 s, in-process on a 2-vCPU host)."""
        templates = self.templates.get(size)
        if templates is not None:
            columns = [self._column(size, op, m) for op, m in zip(ops, masks)]
            yield from zip(templates, zip(*columns) if ops else itertools.repeat(()))
            return
        kind = self.kind
        insides = [frozenset(i for i in range(size) if m >> i & 1) for m in masks]
        columns = [[] for _ in ops]
        structs = []
        for struct in structures(self.cfg, size, full=True):
            bits = tuple(lift(kind, op, struct, s) for op, s in zip(ops, insides))
            for column, bit in zip(columns, bits):
                column.append(bit)
            structs.append(struct)
            yield struct, bits
        self.templates[size] = structs
        for op, m, column in zip(ops, masks, columns):
            self.lifts[(size, op, m)] = tuple(column)

    def _types(self, size: int, ops: tuple, masks: tuple):
        """(structure, truths of ``ops``) for the first structure over
        ``size`` children with each distinct tuple of truths, in structure
        order; the list of a finished call is kept for the same input."""
        key = (size, ops, masks)
        done = self.types.get(key)
        if done is not None:
            yield from done
            return
        types = []
        seen = set()
        for struct, bits in self._walk(size, ops, masks):
            if bits not in seen:
                seen.add(bits)
                types.append((struct, bits))
                yield struct, bits
                if len(seen) == 1 << len(ops):
                    break  # every tuple of truths is taken
        self.types[key] = types

    def _make(self, label, template, children=()) -> int:
        w = self.w
        s = len(w.states)
        w.states.append(s)
        w.labels[s] = label
        # Positions become children; the placeholder None becomes the state.
        w.structs[s] = relabel(
            self.kind, template, lambda t: s if t is None else children[t]
        )
        return s

    # -- the search ----------------------------------------------------------

    def _candidates(self, pool, goals):
        """The first candidate over children from ``pool`` for each distinct
        tuple of truths of ``goals``, in candidate order, as pairs of that
        tuple and a function that builds the candidate's state."""
        labels = list(self._labels())
        seen = set()
        for label in labels:
            s = self._make(label, self.terminal)
            got = tuple(self.check(s, g) for g in goals)
            if got not in seen:
                seen.add(got)
                yield got, lambda s=s: s
        if not pool:
            return
        tops = []
        for g in goals:
            for a in modal_atoms(g):
                if a not in tops:
                    tops.append(a)
        atoms = [a for a in tops if not isinstance(a.op, Atom)]
        ops = tuple(a.op for a in atoms)
        props = [a for a in tops if isinstance(a.op, Atom)]
        # A child-based candidate's label matters only through the atoms the
        # goals read at top level.  Of the labels that agree on those, the
        # one without any other atom comes first, so only it can be new.
        read = frozenset(a.op.name for a in props)
        label_truths = [
            (label, {a: a.op.name in label for a in props})
            for label in labels
            if label <= read
        ]
        # Each pool state's truth of each atom's argument.
        args = [tuple(self.check(t, a.arg) for a in atoms) for t in pool]
        values = {}  # (label, modal truths) -> truths of goals
        keys = set()
        for size in range(1, min(BRANCH_BOUND, len(pool)) + 1):
            for combo in itertools.combinations(range(len(pool)), size):
                key = tuple(args[i] for i in combo)
                if key in keys:
                    continue  # an earlier combination had the same types
                keys.add(key)
                masks = tuple(
                    sum(1 << p for p, row in enumerate(key) if row[k])
                    for k in range(len(atoms))
                )
                children = tuple(pool[i] for i in combo)
                for label, truths in label_truths:
                    for struct, bits in self._types(size, ops, masks):
                        got = values.get((label, bits))
                        if got is None:
                            assign = dict(truths)
                            assign.update(zip(atoms, bits))
                            got = tuple(eval_with(g, assign) for g in goals)
                            values[(label, bits)] = got
                        if got not in seen:
                            seen.add(got)
                            yield got, functools.partial(
                                self._make, label, struct, children
                            )

    def search(self, depth_bound: int) -> Optional[int]:
        props = tuple(atom(nm) for nm in self.prop_names)
        level = []
        for d in range(depth_bound):
            goals = props + tuple(g for g in self.args if g.depth <= d)
            vectors = set()
            pool = []
            for s in level:
                got = tuple(self.check(s, g) for g in goals)
                if got not in vectors:
                    vectors.add(got)
                    pool.append(s)
            for got, build in self._candidates(level, goals):
                if got not in vectors:
                    vectors.add(got)
                    pool.append(build())
            level = pool
        for got, build in self._candidates(level, (self.f,)):
            if got[0]:
                return build()
        return None

    # -- witness materialization ----------------------------------------------

    def materialize(self, root: int) -> ModelWitness:
        """The states that ``root`` reaches, renumbered from 0 in depth-first
        order."""
        w = ModelWitness(
            kind=self.kind,
            root=0,
            states=[],
            labels={},
            serial=self.cfg.logic == "KD",
        )
        ids = {}

        def visit(s: int) -> int:
            if s in ids:
                return ids[s]
            t = ids[s] = len(w.states)
            w.states.append(t)
            w.labels[t] = self.w.labels[s]
            w.structs[t] = relabel(self.kind, self.w.structs[s], visit)
            return t

        w.root = visit(root)
        return w


def _neighbourhood_sat(f: Formula, cfg: LogicConfig) -> Optional[ModelWitness]:
    """Carrier-based search for the neighbourhood logics: choose labels and a
    truth bit for every (state, box) pair, read the neighbourhoods off the
    positive bits, and keep a choice only when ``lift`` gives every box its
    chosen bit there.

    E and M keep this search: E's box reads a whole truth set of the model,
    not its part among a state's children, so structures over children give
    no E model; and the guessed bits build only neighbourhoods that are
    truth sets of box arguments, where ``structures`` would try all 256
    collections per state at carrier 3."""
    monotone = cfg.logic == "M"
    prop_names, args = _names_and_args(f)
    args.sort(key=lambda g: g.depth)  # stable: ties keep first-occurrence order
    props = [atom(p) for p in prop_names]
    boxes = [modal(Box(), g) for g in args]
    keys = props + boxes  # bit i of a state's slice of the choice

    for n in range(1, MAX_CARRIER + 1):
        if n * len(keys) > 22:
            break
        for choice in range(1 << n * len(keys)):
            assign = [
                {a: bool(choice >> (s * len(keys) + i) & 1) for i, a in enumerate(keys)}
                for s in range(n)
            ]
            truth = [frozenset(s for s in range(n) if eval_with(g, assign[s])) for g in args]
            hoods = [
                tuple(dict.fromkeys(t for t, b in zip(truth, boxes) if assign[s][b]))
                for s in range(n)
            ]
            if any(
                lift("neighbourhood", b.op, hoods[s], t, monotone) != assign[s][b]
                for s in range(n)
                for t, b in zip(truth, boxes)
            ):
                continue
            root = next((s for s in range(n) if eval_with(f, assign[s])), None)
            if root is None:
                continue
            w = ModelWitness(
                kind="neighbourhood",
                root=root,
                states=list(range(n)),
                labels={
                    s: frozenset(p for p, a in zip(prop_names, props) if assign[s][a])
                    for s in range(n)
                },
                monotone=monotone,
                structs=dict(enumerate(hoods)),
            )
            if model_check(w, root, f):
                return w
    return None


def brute_force_sat(f: Formula, cfg: LogicConfig) -> Optional[ModelWitness]:
    """Exhaustive bounded model search, to the modal depth of ``f``; returns
    a checked witness or None."""
    if cfg.logic in ("E", "M"):
        return _neighbourhood_sat(f, cfg)
    enum = _TreeEnumerator(f, cfg)
    root = enum.search(f.depth)
    if root is None:
        return None
    w = enum.materialize(root)
    if not model_check(w, w.root, f):
        raise AssertionError("enumerated witness failed its own check")
    return w
