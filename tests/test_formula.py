"""Formula layer: parsing, printing, measures, and propositional tooling."""

from fractions import Fraction
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from modalsat import formula
from modalsat.certificates import _entailed
from modalsat.formula import (
    Atom,
    Box,
    Coal,
    GDiamond,
    LProb,
    MajW,
    BOT,
    FAnd,
    FBot,
    FNot,
    ParseError,
    TOP,
    assignments,
    atom,
    bot,
    conj,
    conj_fold,
    disj,
    eval_with,
    implies,
    iff,
    modal,
    modal_atoms,
    neg,
    neg_fold,
    parse,
    pretty,
    subformulas,
)
from modalsat.logics import LogicConfig
from modalsat.sampling import random_formula

import random

ALL = ("E", "M", "K", "KD", "COAL", "GML", "MAJ", "PML")


# -- interning and structure -------------------------------------------------


def test_interning_gives_identity():
    f1 = parse("[](a & b) -> []a")
    f2 = parse("[](a & b) -> []a")
    assert f1 is f2


def test_double_negation_folds():
    p = atom("p")
    assert neg_fold(neg_fold(p)) is p
    assert neg_fold(neg(p)) is p


def test_depth():
    assert parse("a & ~b").depth == 0
    assert parse("[]a").depth == 1
    assert parse("[]([]a & b)").depth == 2
    assert parse("<3>a", 2).depth == 1


# -- parser ------------------------------------------------------------------


def test_parse_precedence():
    f = parse("a -> b & c | d")
    g = implies(atom("a"), disj(conj(atom("b"), atom("c")), atom("d")))
    assert f is g


def test_parse_right_assoc_implication():
    assert parse("a -> b -> c") is implies(atom("a"), implies(atom("b"), atom("c")))


def test_parse_iff():
    assert parse("a <-> b") is iff(atom("a"), atom("b"))


def test_parse_modalities():
    assert parse("[]a") is modal(Box(), atom("a"))
    assert parse("<2>a") is modal(GDiamond(2), atom("a"))
    assert parse("W a") is modal(MajW(), atom("a"))
    assert parse("M a") is neg_fold(modal(MajW(), neg_fold(atom("a"))))
    assert parse("L{1/3}a") is modal(LProb(Fraction(1, 3)), atom("a"))
    assert parse("[C 1,2]a", 2) is modal(Coal(frozenset({1, 2}), 2), atom("a"))


# (text, position of the ParseError), one row or more per rejection path.
_REJECTED = [
    ("a & $b", 4),  # unexpected character
    ("Ab", 0),  # a word starts lower-case
    ("\u24d0 & a", 0),  # lower-case, but not a word character
    ("", 0),  # missing operand at the end
    ("a &", 3),
    ("a & & b", 4),  # missing operand inside
    ("()", 1),
    ("(", 1),
    ("(a & b", 0),  # unclosed "("
    ("a & ((b)", 4),
    ("a b", 2),  # trailing input
    ("a)", 1),
    ("<>a", 0),
    ("[C 1 x]a", 0),  # bad coalition list
    ("[C 1", 0),
    ("a | [C 3]a", 4),  # agent outside 1..2
    ("[C 5]a", 0),
    ("L{1/0}a", 0),  # bad probability
    ("L{a}a", 0),
    ("~L{3/2}a", 1),  # probability out of range
    # Whitespace before a token is not part of it: the position is the
    # token's own, and text that ends in whitespace ends at its full length.
    ("  a &  $b", 7),
    ("a\t&\n(b", 4),
    ("  ", 2),
    (" ( a ) ) ", 7),
    ("a &  ", 5),
    ("\t[C 1 x] a", 1),
    (" ~ L{3/2} a", 3),
    ("a  b", 3),
    (" A", 1),
]


def test_parse_rejects_bad_inputs():
    for text, pos in _REJECTED:
        with pytest.raises(ParseError) as info:
            parse(text, 2)
        assert info.value.pos == pos, text


# The tokens of a printed formula, whitespace between them left out.
_PRINTED_TOKEN = re.compile(r"<->|->|[&|~()W]|\[\]|<\d+>|\[C[^\]]*\]|L\{[^}]*\}|\w+")


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL),
    st.integers(0, 2 ** 30),
    st.lists(st.text(" \t\n", min_size=1, max_size=3), min_size=1, max_size=40),
)
def test_parse_ignores_whitespace_between_tokens(logic, seed, gaps):
    cfg = LogicConfig(logic=logic)
    f = random_formula(random.Random(seed), cfg, max_depth=3)
    tokens = _PRINTED_TOKEN.findall(pretty(f))
    assert "".join(tokens).replace(" ", "") == pretty(f).replace(" ", "")
    spaced = gaps[-1]
    for i, tok in enumerate(tokens):
        spaced += tok + gaps[i % len(gaps)]
    assert parse(spaced, cfg.n_agents) is f


def test_parse_long_trailing_whitespace():
    # Trailing whitespace is never scanned: a scan would retry the rest of
    # the run at each of its positions, quadratic in its length.
    start = time.perf_counter()
    assert parse("a" + " " * 20000) is atom("a")
    with pytest.raises(ParseError) as info:
        parse("a &" + "\n" * 20000)
    assert info.value.pos == 20003
    assert time.perf_counter() - start < 1.0


def test_atom_index_is_interning():
    # Whichever comes first, the name or the node, both give one object.
    assert atom("fresh_p") is modal(Atom("fresh_p"), None)
    node = modal(Atom("fresh_q"), None)
    assert atom("fresh_q") is node and parse("fresh_q") is node
    assert pretty(node) == "fresh_q"


def test_parse_deep_nesting():
    # Nesting is bounded by memory, not by Python's recursion limit.
    a = atom("a")
    boxes, negs = a, a
    for _ in range(3000):
        boxes, negs = modal(Box(), boxes), neg(negs)
    assert parse("[]" * 3000 + "a") is boxes and boxes.depth == 3000
    assert parse("(" * 3000 + "a" + ")" * 3000) is a
    assert parse("~" * 3000 + "a") is negs


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL), st.integers(0, 2 ** 30))
def test_parse_pretty_roundtrip(logic, seed):
    cfg = LogicConfig(logic=logic)
    f = random_formula(random.Random(seed), cfg, max_depth=3)
    assert parse(pretty(f), cfg.n_agents) is f


# -- modal atoms and pseudovaluations ----------------------------------------


def test_modal_atoms_first_occurrence_order():
    f = parse("[]b & a & []c & a")
    names = [pretty(x) for x in modal_atoms(f)]
    assert names == ["[] b", "a", "[] c"]


def test_modal_atoms_of_a_long_conjunction():
    # Left-nested 3,000 levels deep, past Python's recursion limit.
    xs = [atom("a%d" % i) for i in range(3000)]
    f = conj_fold(xs)
    assert modal_atoms(f) == tuple(xs)
    assert modal_atoms(conj_fold([f, neg(xs[5]), atom("z")])) == tuple(xs) + (atom("z"),)
    # Pre-order: the 2,999 conjunctions from the top down, then the atoms.
    assert subformulas(f)[2999:] == tuple(xs)


def test_assignments_of_a_deep_negation():
    # 3,001 negations: true exactly when ``a`` is false.
    assert list(assignments(parse("~" * 3001 + "a"))) == [((False, atom("a")),)]


def test_pseudovaluations_binary_counter_order():
    f = parse("a | b")
    vals = list(assignments(f))
    # Binary counter over (a, b): 01, 10, 11 survive entailment of a | b.
    rendered = [tuple(s for (s, _) in v) for v in vals]
    assert rendered == [(True, False), (False, True), (True, True)]


def test_pseudovaluations_entail_formula():
    f = parse("([]a -> []b) & ~[]c")
    for v in assignments(f):
        assign = {a: s for (s, a) in v}
        assert eval_with(f, assign)


def _eval_reference(f, assign):
    """``eval_with`` as one recursive call per node."""
    if isinstance(f, FBot):
        return False
    if isinstance(f, FAnd):
        return _eval_reference(f.lhs, assign) and _eval_reference(f.rhs, assign)
    if isinstance(f, FNot):
        return not _eval_reference(f.arg, assign)
    return assign[f]


def test_eval_with_matches_recursive_evaluation():
    rng = random.Random(11)
    for logic in ("K", "COAL", "GML", "MAJ", "PML"):
        cfg = LogicConfig(logic=logic)
        for _ in range(300):
            f = random_formula(rng, cfg, max_depth=3, size_budget=rng.randint(3, 20))
            assign = {a: rng.random() < 0.5 for a in modal_atoms(f)}
            assert eval_with(f, assign) is _eval_reference(f, assign), pretty(f)


@pytest.mark.parametrize("text", ["&", "|"])
def test_eval_with_takes_wide_flat_formulas(text):
    # 1,500 operands nest 1,500 left operands deep, past the default
    # recursion limit; check-cert evaluates such a root.
    f = parse((" %s " % text).join("a%d" % i for i in range(1500)))
    atoms = modal_atoms(f)
    assign = dict.fromkeys(atoms, text == "&")
    assert eval_with(f, assign) is (text == "&")
    assign[atoms[700]] = text != "&"
    assert eval_with(f, assign) is (text != "&")


# -- propositional tooling ---------------------------------------------------


def _tautology(f):
    """No row of the truth table falsifies ``f``."""
    return next(assignments(neg(f)), None) is None


def test_prop_tautology():
    assert _tautology(parse("a | ~a"))
    assert _tautology(parse("(a -> b) -> (~b -> ~a)"))
    assert not _tautology(parse("a | b"))
    assert _tautology(parse("[]a -> []a"))


def _truth_table(f, want):
    """The rows of the plain 2^n truth table where ``f`` evaluates to ``want``."""
    atoms = modal_atoms(f)
    rows = []
    for bits in range(1 << len(atoms)):
        assign = {atoms[i]: bool(bits >> i & 1) for i in range(len(atoms))}
        if eval_with(f, assign) == want:
            rows.append(tuple((assign[a], a) for a in atoms))
    return rows


def _rows(f, want):
    """``assignments`` of ``f`` or, for the false rows, of its negation,
    which has the same atoms in the same order."""
    return list(assignments(f if want else neg(f)))


@pytest.mark.parametrize("want", [True, False])
@pytest.mark.parametrize("logic", ["K", "GML", "PML", "COAL"])
def test_assignments_match_truth_table(logic, want):
    cfg = LogicConfig(logic=logic)
    rng = random.Random(31)
    for _ in range(300):
        f = random_formula(rng, cfg, max_depth=2, size_budget=16)
        assert _rows(f, want) == _truth_table(f, want), pretty(f)


@pytest.mark.parametrize("block", [0, 1, 3])
def test_assignments_across_shannon_blocks(block, monkeypatch):
    # With blocks this small the atoms above them are split on: the rows,
    # and the rows left once clauses are covered as they are yielded, are
    # those of the plain truth table in the same order.
    monkeypatch.setattr(formula, "BLOCK_ATOMS", block)
    cfg = LogicConfig(logic="K")
    rng = random.Random(block)
    for _ in range(200):
        f = random_formula(rng, cfg, max_depth=2, size_budget=16)
        assert list(assignments(f)) == _truth_table(f, True), pretty(f)
        atoms = modal_atoms(f)
        if not atoms:
            continue
        clauses = [
            tuple((rng.random() < 0.5, a) for a in rng.sample(atoms, rng.randint(1, len(atoms))))
            for _ in range(3)
        ]
        covered, got = [], []
        for row in assignments(f, covered):
            got.append(row)
            covered += clauses[len(covered) : len(covered) + 1]
        want, kept = [], []
        for row in _truth_table(f, True):
            value = dict((a, s) for s, a in row)
            if all(any(value[a] == s for s, a in c) for c in kept):
                want.append(row)
                kept += clauses[len(kept) : len(kept) + 1]
        assert got == want, pretty(f)


# Formulas made only of constants, with no atom to tabulate: they must be
# evaluated as they stand.
CONSTANT_ONLY = [
    conj(neg(bot()), neg(bot())),  # true & true, built without folding
    neg(neg(bot())),  # ~~false
    conj(neg(bot()), bot()),
    neg(conj(neg(bot()), neg(bot()))),
    BOT,
    TOP,
]


@pytest.mark.parametrize("want", [True, False])
@pytest.mark.parametrize("f", CONSTANT_ONLY, ids=pretty)
def test_assignments_of_constant_only_formulas(f, want):
    assert _rows(f, want) == _truth_table(f, want)
    g = conj(f, atom("p"))  # constants beside an atom
    assert _rows(g, want) == _truth_table(g, want)


def test_prop_tautology_many_atoms():
    # Past the size of any truth table: the split on the atoms above the
    # table's decides it.
    xs = ["p%d" % i for i in range(40)]
    assert _tautology(parse("(%s) -> p0" % " & ".join(xs)))
    assert not _tautology(parse(" | ".join(xs)))


def _clause_formula(clause):
    return neg(conj_fold([neg_fold(a) if s else a for s, a in clause]))


def test_clause_entails():
    # The proof checker's entailment test, on single clauses.
    a, b = atom("a"), atom("b")
    c1 = ((True, a),)
    c2 = ((True, a), (False, b))
    assert _entailed([c1], _clause_formula(c2))
    assert not _entailed([c2], _clause_formula(c1))
    taut = ((True, a), (False, a))
    assert _entailed([], _clause_formula(taut))
    assert _entailed([c2], _clause_formula(taut))


def _maxterms(f):
    """One clause per falsifying row of ``f``'s plain truth table."""
    return [tuple((not s, a) for s, a in row) for row in _truth_table(f, False)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_cnf_clauses_equivalent(seed):
    # The maxterms of a formula entail it, and without any one of them they
    # do not, by the proof checker's entailment test.
    cfg = LogicConfig(logic="K")
    f = random_formula(random.Random(seed), cfg, max_depth=1)
    clauses = _maxterms(f)
    assert _entailed(clauses, f)
    for i in range(len(clauses)):
        assert not _entailed(clauses[:i] + clauses[i + 1 :], f)


def test_cnf_of_tautology_is_empty():
    assert _tautology(parse("a | ~a"))
    assert _entailed([], parse("a | ~a"))


def test_conj_fold():
    p = atom("p")
    assert conj_fold([]) is neg_fold(bot())
    assert conj_fold([p]) is p
    assert conj_fold([p, bot()]) is bot()
