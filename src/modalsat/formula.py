"""Modal formula core: operators, interned ASTs, parser, printer, and the
propositional toolkit used by the decision procedure.

Formulas are built through the factory helpers (``bot``, ``conj``, ``neg``,
``modal``) which intern every node, so structurally equal formulas are the
same Python object and can be compared and hashed by identity.

The normalized connective set is ``false``, conjunction, negation and modal
application; disjunction, implication, equivalence and ``true`` are rewritten
by the parser.  Propositional atoms are modelled as nullary modal operators,
so the "modal atoms" of a formula include its propositional variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterator, Optional


# ---------------------------------------------------------------------------
# Modal operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """The plain box operator of the Box-signature logics."""

    def render(self) -> str:
        return "[]"


@dataclass(frozen=True)
class GDiamond:
    """Graded diamond: ``<k> f`` holds when more than ``k`` successors,
    counted with multiplicity, satisfy ``f``."""

    grade: int

    def render(self) -> str:
        return "<%d>" % self.grade


@dataclass(frozen=True)
class MajW:
    """Weak majority: ``W f`` holds when at least half the successor mass
    satisfies ``f``."""

    def render(self) -> str:
        return "W"


@dataclass(frozen=True)
class LProb:
    """Probabilistic operator: ``L{p} f`` holds when the successor
    distribution gives ``f`` probability at least ``p``."""

    prob: Fraction

    def render(self) -> str:
        return "L{%d/%d}" % (self.prob.numerator, self.prob.denominator)


@dataclass(frozen=True)
class Coal:
    """Coalition operator ``[C ...] f``: the listed agents have a joint
    strategy forcing ``f``.  ``n_agents`` is the size of the agent
    universe."""

    agents: frozenset
    n_agents: int

    def render(self) -> str:
        return "[C %s]" % ",".join(str(i) for i in sorted(self.agents))


@dataclass(frozen=True)
class Atom:
    """Propositional variable, treated as a nullary modal operator."""

    name: str

    def render(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Formula nodes (interned)
# ---------------------------------------------------------------------------


class Formula:
    """Base class; equality and hashing are by identity (nodes are interned)."""

    __slots__ = ("depth",)


class FBot(Formula):
    __slots__ = ()


class FAnd(Formula):
    __slots__ = ("lhs", "rhs")


class FNot(Formula):
    __slots__ = ("arg",)


class FModal(Formula):
    __slots__ = ("op", "arg")


_AND_TABLE: dict = {}
_NOT_TABLE: dict = {}
_MODAL_TABLE: dict = {}

BOT = FBot()
BOT.depth = 0


def bot() -> Formula:
    return BOT


def conj(lhs: Formula, rhs: Formula) -> Formula:
    node = _AND_TABLE.get((lhs, rhs))
    if node is None:
        node = FAnd()
        node.lhs = lhs
        node.rhs = rhs
        node.depth = max(lhs.depth, rhs.depth)
        _AND_TABLE[(lhs, rhs)] = node
    return node


def neg(arg: Formula) -> Formula:
    node = _NOT_TABLE.get(arg)
    if node is None:
        node = FNot()
        node.arg = arg
        node.depth = arg.depth
        _NOT_TABLE[arg] = node
    return node


def modal(op, arg: Optional[Formula]) -> Formula:
    node = _MODAL_TABLE.get((op, arg))
    if node is None:
        node = FModal()
        node.op = op
        node.arg = arg
        if isinstance(op, Atom):
            if arg is not None:
                raise ValueError("atoms take no argument")
            node.depth = 0
        else:
            if arg is None:
                raise ValueError("modal operators need an argument")
            node.depth = 1 + arg.depth
        _MODAL_TABLE[(op, arg)] = node
    return node


TOP = neg(BOT)


_ATOM_TABLE: dict = {}  # name -> the interned atom node


def atom(name: str) -> Formula:
    node = _ATOM_TABLE.get(name)
    if node is None:
        node = _ATOM_TABLE[name] = modal(Atom(name), None)
    return node


def disj(lhs: Formula, rhs: Formula) -> Formula:
    return neg(conj(neg(lhs), neg(rhs)))


def implies(lhs: Formula, rhs: Formula) -> Formula:
    return neg(conj(lhs, neg(rhs)))


def iff(lhs: Formula, rhs: Formula) -> Formula:
    return conj(implies(lhs, rhs), implies(rhs, lhs))


def neg_fold(f: Formula) -> Formula:
    """Negation with double-negation elimination."""
    if isinstance(f, FNot):
        return f.arg
    return neg(f)


def conj_fold(parts) -> Formula:
    """Conjunction of a sequence with unit/zero folding; empty gives true."""
    acc = None
    for p in parts:
        if p is BOT:
            return BOT
        if p is TOP:
            continue
        acc = p if acc is None else conj(acc, p)
    return TOP if acc is None else acc


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------


def modal_atoms(f: Formula) -> tuple:
    """Top-level modal subformulas (including propositional variables), in
    first-occurrence order."""
    out = []
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        kind = type(g)
        if kind is FAnd:
            stack += (g.rhs, g.lhs)
        elif kind is FNot:
            stack.append(g.arg)
        elif kind is FModal:
            out.append(g)
    return tuple(out)


def subformulas(f: Formula) -> tuple:
    """All subformulas in first-occurrence (pre-order) order."""
    out = []
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        out.append(g)
        if isinstance(g, FAnd):
            stack += (g.rhs, g.lhs)
        elif isinstance(g, FNot):
            stack.append(g.arg)
        elif isinstance(g, FModal) and g.arg is not None:
            stack.append(g.arg)
    return tuple(out)


def eval_with(f: Formula, assign: dict) -> bool:
    """Evaluate treating modal atoms as propositional variables; every modal
    atom of ``f`` must be assigned.  Only right operands recurse, so a long
    conjunction or disjunction takes no deep stack."""
    pending = []  # (right operand, whether its conjunction is negated)
    flip = False
    while True:
        cls = f.__class__
        if cls is FAnd:
            pending.append((f.rhs, flip))
            flip, f = False, f.lhs
        elif cls is FNot:
            flip, f = not flip, f.arg
        else:
            break
    value = (cls is not FBot and assign[f]) != flip
    for rhs, flip in reversed(pending):
        value = (value and eval_with(rhs, assign)) != flip
    return value


# ---------------------------------------------------------------------------
# Literals, clauses, pseudovaluations
# ---------------------------------------------------------------------------
#
# A literal is ``(positive, modal_atom)``; a clause is a tuple of literals
# read disjunctively; a pseudovaluation is a tuple of literals read
# conjunctively, totally assigning the modal atoms of some formula.

# Atoms per truth-table block: a block is one int of 2**16 bits (8 KB).
# Atoms above these are split on one at a time (Shannon expansion).
BLOCK_ATOMS = 16

_COLUMNS = {}  # k -> (column of each of atoms 0..k-1, all-rows mask)


def _columns(k: int):
    """The truth-table columns of ``k`` atoms over ``2**k`` rows: bit b of
    column i is bit i of b."""
    got = _COLUMNS.get(k)
    if got is None:
        full = (1 << (1 << k)) - 1
        cols = []
        for i in range(k):
            half = 1 << i
            # 2**i clear bits then 2**i set bits, repeated across the rows.
            cols.append((((1 << half) - 1) << half) * (full // ((1 << 2 * half) - 1)))
        got = _COLUMNS[k] = (cols, full)
    return got


_ATOM, _AND, _NOT, _BOT = range(4)


def _program(f: Formula):
    """``f`` as straight-line code, children before parents: step j is
    ``(op, x, y)`` and computes value j from atom x (``_ATOM``) or from
    earlier values x and y; the last step computes ``f``.  Returns (the
    modal atoms in first-occurrence order, steps)."""
    atoms = []
    slot = {}
    steps = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g in slot:
            continue
        kind = type(g)
        if kind is FAnd:
            lhs, rhs = g.lhs, g.rhs
            if lhs in slot and rhs in slot:
                step = (_AND, slot[lhs], slot[rhs])
            else:
                stack += (g, rhs, lhs)
                continue
        elif kind is FNot:
            if g.arg in slot:
                step = (_NOT, slot[g.arg], 0)
            else:
                stack += (g, g.arg)
                continue
        elif kind is FModal:
            step = (_ATOM, len(atoms), 0)
            atoms.append(g)
        else:
            step = (_BOT, 0, 0)
        slot[g] = len(steps)
        steps.append(step)
    return tuple(atoms), steps


def _run(steps, inputs: list, full: int) -> int:
    """Two-valued bit-parallel evaluation, given each atom's table."""
    values = []
    for op, x, y in steps:
        if op == _AND:
            values.append(values[x] & values[y])
        elif op == _NOT:
            values.append(full ^ values[x])
        elif op == _ATOM:
            values.append(inputs[x])
        else:
            values.append(0)
    return values[-1]


def _may_hold(steps, must_in: list, may_in: list) -> int:
    """Kleene's three-valued evaluation in two bits per value: ``must`` is 1
    where the value is true whatever the unknown atoms are, and ``may``
    where it is true for some of them.  Returns ``may`` of the formula."""
    must, may = [], []
    for op, x, y in steps:
        if op == _AND:
            must.append(must[x] & must[y])
            may.append(may[x] & may[y])
        elif op == _NOT:
            must.append(1 ^ may[x])
            may.append(1 ^ must[x])
        elif op == _ATOM:
            must.append(must_in[x])
            may.append(may_in[x])
        else:
            must.append(0)
            may.append(0)
    return may[-1]


def assignments(f: Formula, covered=None) -> Iterator[tuple]:
    """Total sign assignments to the modal atoms of ``f`` under which ``f``
    is true, as pseudovaluations in binary-counter order (bit i set = atom
    i positive): the true rows of the truth table.

    The table over the low ``BLOCK_ATOMS`` atoms is one int, bit b the value
    of ``f`` in row b, computed in one pass over the formula's dag.  The
    atoms above are fixed one at a time, most significant first, false
    before true, and each choice makes one block; a three-valued pass with
    the open atoms unknown skips a subtree in which ``f`` is false whatever
    they are.

    ``covered`` is a list of clauses over the atoms of ``f`` that the caller
    may extend while it iterates.  No row that falsifies one of them is
    yielded: before each row, new clauses clear their falsifying rows from
    the current block, and each later block starts without the rows that
    any of them falsifies."""
    atoms, steps = _program(f)
    n = len(atoms)
    k = min(n, BLOCK_ATOMS)
    cols, full = _columns(k)
    lits = [((False, a), (True, a)) for a in atoms]
    index = {a: i for i, a in enumerate(atoms)}
    covered = [] if covered is None else covered
    # Per covered clause: (the value of each high atom that falsifies its
    # literal, the rows of a block where one of its low literals holds).
    learned = []

    def uncovered(signs: dict, start: int) -> int:
        # The rows of the block fixed by ``signs`` (high atom index ->
        # value) that falsify none of covered[start:]; a clause cuts rows
        # only when ``signs`` falsifies all its high literals.
        for clause in covered[len(learned):]:
            high, low = [], 0
            for s, a in clause:
                i = index[a]
                if i < k:
                    low |= cols[i] if s else full ^ cols[i]
                else:
                    high.append((i, not s))
            learned.append((high, low))
        mask = full
        for high, low in learned[start:]:
            if all(signs[i] is v for i, v in high):
                mask &= low
        return mask

    stack = [{}]
    while stack:
        signs = stack.pop()
        if len(signs) < n - k:
            must = [0] * k + [1 if signs.get(i) else 0 for i in range(k, n)]
            may = [1] * k + [0 if signs.get(i) is False else 1 for i in range(k, n)]
            if _may_hold(steps, must, may):
                j = n - len(signs) - 1
                stack += ({**signs, j: True}, {**signs, j: False})
            continue
        constants = [full if signs[i] else 0 for i in range(k, n)]
        table = _run(steps, cols + constants, full) & uncovered(signs, 0)
        suffix = tuple(lits[i][signs[i]] for i in range(k, n))
        seen = len(covered)
        while table:
            row = table & -table
            table ^= row
            b = row.bit_length() - 1
            yield tuple(lits[i][b >> i & 1] for i in range(k)) + suffix
            if len(covered) > seen:
                table &= uncovered(signs, seen)
                seen = len(covered)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def pretty(f: Formula) -> str:
    """Canonical text form; ``parse`` inverts it on normalized formulas.
    Tokens are separated by single spaces around ``&`` and after a modal
    operator, and by nothing else; an atom is its name.

    The text is written left to right.  A prefix goes out at once; what
    follows it waits on a stack of formulas and closing strings, so deep
    nesting needs no recursion."""
    if f.__class__ is FModal and f.op.__class__ is Atom:
        return f.op.name
    out = []
    write = out.append
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, FModal):
            if isinstance(g.op, Atom):
                write(g.op.name)
                continue
            write(g.op.render() + " ")
        elif isinstance(g, str):
            write(g)
            continue
        elif isinstance(g, FNot):
            write("~")
        elif isinstance(g, FAnd):
            # A conjunction on the right is bracketed: & groups to the left.
            if isinstance(g.rhs, FAnd):
                todo += (")", g.rhs, " & (", g.lhs)
            else:
                todo += (g.rhs, " & ", g.lhs)
            continue
        elif isinstance(g, FBot):
            write("false")
            continue
        else:
            raise TypeError("unknown formula: %r" % (g,))
        # After a prefix: its argument, bracketed if a conjunction.
        if isinstance(g.arg, FAnd):
            write("(")
            todo += (")", g.arg)
        else:
            todo.append(g.arg)
    return "".join(out)


def pretty_literal(lit) -> str:
    positive, a = lit
    return pretty(a) if positive else "~" + pretty(a)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# Each match is one token with the whitespace before it, which group 1
# holds, so a token starts at ``m.end(1)``.  The alternatives are tried in
# order, so "<->" comes before "->", and "[C", "L{" and the operator letters W
# and M come before words.  A word must start lower-case; any other character
# that no token starts with is caught last.
_TOKEN = re.compile(
    r"""(\s*)
    (?: (?P<binary><->|->|&|\|)
    | (?P<prefix>~|\[\]|W|M)
    | <(?P<grade>\d+)>
    | \[C(?P<coal>[^\]]*)\]
    | L\{(?P<prob>[^}]*)\}
    | (?P<word>\w+)
    | (?P<open>\()
    | (?P<close>\))
    | (?P<bad>\S))""",
    re.VERBOSE,
)

# symbol: (precedence, floor, constructor).  Reading the symbol first
# applies every pending operator whose precedence is above its floor; all
# associate to the left but "->", whose floor is its own precedence.
_BINARY = {
    "<->": (1, 0, iff),
    "->": (2, 2, implies),
    "|": (3, 2, disj),
    "&": (4, 3, conj),
}
_PREFIX_PREC = 5  # above every binary connective; "(" is pending at 0

_PREFIX = {
    "~": neg,
    "[]": partial(modal, Box()),
    "W": partial(modal, MajW()),
    "M": lambda f: neg(modal(MajW(), neg(f))),
}

_CONSTANTS = {"true": TOP, "false": BOT}


def _indexed_operator(kind: str, body: str, pos: int, n_agents: int):
    """The modal operator of a ``<k>``, ``L{p}`` or ``[C ...]`` token."""
    if kind == "grade":
        return GDiamond(int(body))
    if kind == "prob":
        num, slash, den = body.partition("/")
        try:
            q = Fraction(int(num), int(den) if slash else 1)
        except (ValueError, ZeroDivisionError):
            raise ParseError("bad probability index %r" % body.strip(), pos) from None
        if not 0 <= q <= 1:
            raise ParseError("probability index out of [0,1]: %s" % body.strip(), pos)
        return LProb(q)
    names = body.replace(",", " ").split()
    if not all(name.isdecimal() for name in names):
        raise ParseError("bad coalition agent list", pos)
    agents = frozenset(map(int, names))
    bad = sorted(i for i in agents if not 1 <= i <= n_agents)
    if bad:
        raise ParseError("agent %d outside universe 1..%d" % (bad[0], n_agents), pos)
    return Coal(agents, n_agents)


def parse(text: str, n_agents: int = 2) -> Formula:
    """Parse a formula; coalition agent lists are checked against the
    1..n_agents universe.  Whitespace (spaces, tabs, newlines) may separate
    any two tokens, and a ``ParseError`` gives the position of the token it
    rejects, never of the whitespace before it.

    Operator precedence on two explicit stacks, so nesting depth is not
    bounded by Python's recursion limit: ``operands`` holds the formulas
    built so far and ``pending`` the operators still waiting for their
    right operand, each as ``(precedence, constructor)``, and each open
    "(" as ``(0, position)``."""
    operands = []
    pending = []
    want_operand = True
    # Trailing whitespace is no token; left out, it is never scanned.
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        kind = m.lastgroup
        if want_operand:
            if kind == "word":
                value = m[kind]
                if value[0].islower():
                    f = _CONSTANTS.get(value)
                    operands.append(atom(value) if f is None else f)
                    want_operand = False
                    continue
            elif kind == "prefix":
                pending.append((_PREFIX_PREC, _PREFIX[m[kind]]))
                continue
            elif kind == "open":
                pending.append((0, m.end(1)))
                continue
            elif kind == "grade" or kind == "prob" or kind == "coal":
                op = _indexed_operator(kind, m[kind], m.end(1), n_agents)
                pending.append((_PREFIX_PREC, partial(modal, op)))
                continue
            expected = "expected a formula"
        elif kind == "binary" or kind == "close":
            if kind == "binary":
                prec, floor, build = _BINARY[m[kind]]
            else:
                floor = 0
            while pending and pending[-1][0] > floor:
                top, apply = pending.pop()
                if top == _PREFIX_PREC:
                    operands[-1] = apply(operands[-1])
                else:
                    rhs = operands.pop()
                    operands[-1] = apply(operands[-1], rhs)
            if kind == "binary":
                pending.append((prec, build))
                want_operand = True
            elif pending:
                pending.pop()
            else:
                raise ParseError("unmatched ')'", m.end(1))
            continue
        else:
            expected = "expected a connective or ')'"
        pos = m.end(1)
        if kind == "bad" or kind == "word" and not text[pos].islower():
            raise ParseError("unexpected character %r" % text[pos], pos)
        raise ParseError(expected, pos)
    if want_operand:
        raise ParseError("expected a formula", len(text))
    while pending:
        top, apply = pending.pop()
        if top == 0:
            raise ParseError("unclosed '('", apply)
        if top == _PREFIX_PREC:
            operands[-1] = apply(operands[-1])
        else:
            rhs = operands.pop()
            operands[-1] = apply(operands[-1], rhs)
    return operands[0]
