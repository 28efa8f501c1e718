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

from dataclasses import dataclass
from fractions import Fraction
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


def atom(name: str) -> Formula:
    return modal(Atom(name), None)


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

    def walk(g):
        if isinstance(g, FBot):
            return
        if isinstance(g, FAnd):
            walk(g.lhs)
            walk(g.rhs)
        elif isinstance(g, FNot):
            walk(g.arg)
        else:
            if g not in seen:
                seen.add(g)
                out.append(g)

    walk(f)
    return tuple(out)


def subformulas(f: Formula) -> tuple:
    """All subformulas in first-occurrence (pre-order) order."""
    out = []
    seen = set()

    def walk(g):
        if g in seen:
            return
        seen.add(g)
        out.append(g)
        if isinstance(g, FAnd):
            walk(g.lhs)
            walk(g.rhs)
        elif isinstance(g, FNot):
            walk(g.arg)
        elif isinstance(g, FModal) and g.arg is not None:
            walk(g.arg)

    walk(f)
    return tuple(out)


def eval_with(f: Formula, assign: dict) -> bool:
    """Evaluate treating modal atoms as propositional variables; every modal
    atom of ``f`` must be assigned."""
    if isinstance(f, FBot):
        return False
    if isinstance(f, FAnd):
        return eval_with(f.lhs, assign) and eval_with(f.rhs, assign)
    if isinstance(f, FNot):
        return not eval_with(f.arg, assign)
    return assign[f]


# ---------------------------------------------------------------------------
# Literals, clauses, pseudovaluations
# ---------------------------------------------------------------------------
#
# A literal is ``(positive, modal_atom)``; a clause is a tuple of literals
# read disjunctively; a pseudovaluation is a tuple of literals read
# conjunctively, totally assigning the modal atoms of some formula.


def is_tautology_clause(clause) -> bool:
    pos = {a for (s, a) in clause if s}
    return any(not s and a in pos for (s, a) in clause)


def clause_entails(c1, c2) -> bool:
    """Propositional entailment between clauses: subset or target tautology."""
    if is_tautology_clause(c2):
        return True
    return set(c1) <= set(c2)


def assignments(f: Formula, want: bool = True) -> Iterator[tuple]:
    """Total sign assignments to the modal atoms of ``f`` under which ``f``
    evaluates to ``want``, as pseudovaluations in binary-counter order (bit i
    set = atom i positive): exactly the rows of the truth table with that
    value.

    Shannon expansion through ``subst_fold``, most significant atom first,
    false before true: a subtree in which ``f`` is already decided is skipped
    when it has the other value and filled in whole when it has ``want``."""
    atoms = modal_atoms(f)
    if not atoms:
        # Constants that were built without folding, such as conj(TOP, TOP).
        if eval_with(f, {}) == want:
            yield ()
        return
    decided = TOP if want else BOT

    def expand(g, k, suffix):
        # atoms[k:] are assigned in ``suffix``; ``g`` is ``f`` under them.
        if g is TOP or g is BOT:
            if g is decided:
                for bits in range(1 << k):
                    yield tuple((bool(bits >> i & 1), atoms[i]) for i in range(k)) + suffix
            return
        a = atoms[k - 1]
        for value in (False, True):
            yield from expand(subst_fold(g, a, value), k - 1, ((value, a),) + suffix)

    yield from expand(f, len(atoms), ())


def prop_tautology(f: Formula) -> bool:
    """Is ``f`` true under every assignment to its modal atoms?"""
    return next(assignments(f, want=False), None) is None


def subst_fold(f: Formula, target: Formula, value: bool) -> Formula:
    """Replace modal atom ``target`` by a truth constant, folding constants."""
    if isinstance(f, FBot):
        return f
    if isinstance(f, FAnd):
        return conj_fold([subst_fold(f.lhs, target, value), subst_fold(f.rhs, target, value)])
    if isinstance(f, FNot):
        return neg_fold(subst_fold(f.arg, target, value))
    if f is target:
        return TOP if value else BOT
    return f


def cnf_clauses(f: Formula) -> tuple:
    """Canonical CNF over the modal atoms of ``f``: one maxterm per falsifying
    assignment, in binary-counter order.  Empty for propositional validities."""
    return tuple(
        tuple((not s, a) for s, a in valuation) for valuation in assignments(f, want=False)
    )


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def pretty(f: Formula) -> str:
    """Canonical text form; ``parse`` inverts it on normalized formulas."""
    if isinstance(f, FBot):
        return "false"
    if isinstance(f, FAnd):
        left = pretty(f.lhs)
        right = "(%s)" % pretty(f.rhs) if isinstance(f.rhs, FAnd) else pretty(f.rhs)
        return "%s & %s" % (left, right)
    if isinstance(f, FNot):
        inner = pretty(f.arg)
        if isinstance(f.arg, FAnd):
            inner = "(%s)" % inner
        return "~" + inner
    if isinstance(f, FModal):
        if isinstance(f.op, Atom):
            return f.op.name
        inner = pretty(f.arg)
        if isinstance(f.arg, FAnd):
            inner = "(%s)" % inner
        return "%s %s" % (f.op.render(), inner)
    raise TypeError("unknown formula: %r" % (f,))


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


class _Lexer:
    def __init__(self, text: str, n_agents: int):
        self.text = text
        self.pos = 0
        self.n_agents = n_agents
        self.tokens = []
        self._run()
        self.index = 0

    def _error(self, msg, pos=None):
        raise ParseError(msg, self.pos if pos is None else pos)

    def _run(self):
        text = self.text
        n = len(text)
        i = 0
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            start = i
            if c == "(":
                self.tokens.append(("lparen", None, start))
                i += 1
            elif c == ")":
                self.tokens.append(("rparen", None, start))
                i += 1
            elif c == "~":
                self.tokens.append(("not", None, start))
                i += 1
            elif c == "&":
                self.tokens.append(("and", None, start))
                i += 1
            elif c == "|":
                self.tokens.append(("or", None, start))
                i += 1
            elif text.startswith("<->", i):
                self.tokens.append(("iff", None, start))
                i += 3
            elif text.startswith("->", i):
                self.tokens.append(("imp", None, start))
                i += 2
            elif c == "<":
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if j == i + 1 or j >= n or text[j] != ">":
                    self.pos = start
                    self._error("expected grade '<k>'")
                self.tokens.append(("graded", int(text[i + 1 : j]), start))
                i = j + 1
            elif c == "[":
                if text.startswith("[]", i):
                    self.tokens.append(("box", None, start))
                    i += 2
                elif i + 1 < n and text[i + 1] == "C":
                    j = i + 2
                    agents = []
                    while j < n and text[j] != "]":
                        if text[j].isspace() or text[j] == ",":
                            j += 1
                            continue
                        k = j
                        while k < n and text[k].isdigit():
                            k += 1
                        if k == j:
                            self.pos = j
                            self._error("bad coalition agent list")
                        agents.append(int(text[j:k]))
                        j = k
                    if j >= n:
                        self.pos = start
                        self._error("unterminated coalition operator")
                    self.tokens.append(("coal", frozenset(agents), start))
                    i = j + 1
                else:
                    self.pos = start
                    self._error("expected '[]' or '[C ...]'")
            elif c == "W":
                self.tokens.append(("majw", None, start))
                i += 1
            elif c == "M":
                self.tokens.append(("majm", None, start))
                i += 1
            elif c == "L":
                if i + 1 >= n or text[i + 1] != "{":
                    self.pos = start
                    self._error("expected probability 'L{a/b}'")
                j = text.find("}", i)
                if j < 0:
                    self.pos = start
                    self._error("unterminated probability index")
                body = text[i + 2 : j].strip()
                try:
                    if "/" in body:
                        num, den = body.split("/")
                        q = Fraction(int(num), int(den))
                    else:
                        q = Fraction(int(body))
                except (ValueError, ZeroDivisionError):
                    self.pos = start
                    self._error("bad probability index %r" % body)
                if q < 0 or q > 1:
                    self.pos = start
                    self._error("probability index out of [0,1]: %s" % body)
                self.tokens.append(("prob", q, start))
                i = j + 1
            elif c.islower():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                if word == "false":
                    self.tokens.append(("false", None, start))
                elif word == "true":
                    self.tokens.append(("true", None, start))
                else:
                    self.tokens.append(("ident", word, start))
                i = j
            else:
                self.pos = start
                self._error("unexpected character %r" % c)
        self.tokens.append(("eof", None, n))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok


class _Parser:
    def __init__(self, text: str, n_agents: int):
        self.lex = _Lexer(text, n_agents)
        self.n_agents = n_agents

    def parse(self) -> Formula:
        f = self._iff()
        kind, _, pos = self.lex.peek()
        if kind != "eof":
            raise ParseError("unexpected trailing input", pos)
        return f

    def _iff(self) -> Formula:
        f = self._imp()
        while self.lex.peek()[0] == "iff":
            self.lex.next()
            f = iff(f, self._imp())
        return f

    def _imp(self) -> Formula:
        f = self._or()
        if self.lex.peek()[0] == "imp":
            self.lex.next()
            return implies(f, self._imp())
        return f

    def _or(self) -> Formula:
        f = self._and()
        while self.lex.peek()[0] == "or":
            self.lex.next()
            f = disj(f, self._and())
        return f

    def _and(self) -> Formula:
        f = self._unary()
        while self.lex.peek()[0] == "and":
            self.lex.next()
            f = conj(f, self._unary())
        return f

    def _unary(self) -> Formula:
        kind, value, pos = self.lex.peek()
        if kind == "not":
            self.lex.next()
            return neg(self._unary())
        if kind == "box":
            self.lex.next()
            return modal(Box(), self._unary())
        if kind == "graded":
            self.lex.next()
            return modal(GDiamond(value), self._unary())
        if kind == "majw":
            self.lex.next()
            return modal(MajW(), self._unary())
        if kind == "majm":
            self.lex.next()
            return neg(modal(MajW(), neg(self._unary())))
        if kind == "prob":
            self.lex.next()
            return modal(LProb(value), self._unary())
        if kind == "coal":
            self.lex.next()
            bad = [i for i in value if not (1 <= i <= self.n_agents)]
            if bad:
                raise ParseError("agent %d outside universe 1..%d" % (bad[0], self.n_agents), pos)
            return modal(Coal(value, self.n_agents), self._unary())
        return self._primary()

    def _primary(self) -> Formula:
        kind, value, pos = self.lex.next()
        if kind == "false":
            return BOT
        if kind == "true":
            return TOP
        if kind == "ident":
            return atom(value)
        if kind == "lparen":
            f = self._iff()
            k2, _, p2 = self.lex.next()
            if k2 != "rparen":
                raise ParseError("expected ')'", p2)
            return f
        raise ParseError("expected a formula", pos)


def parse(text: str, n_agents: int = 2) -> Formula:
    """Parse a formula; coalition agent lists are checked against the
    1..n_agents universe."""
    return _Parser(text, n_agents).parse()
