"""The alternating satisfiability solver."""

import random

import pytest

from modalsat import logics
from modalsat.certificates import (
    check_tableau,
    extract_proof,
    extract_tableau,
    model_check,
    proof_to_json,
    tableau_to_json,
    tableau_to_model,
)
from modalsat.formula import conj_fold, neg, neg_fold, parse, pretty
from modalsat.logics import LogicConfig
from modalsat.oracle import brute_force_sat
from modalsat.sampling import random_formula
from modalsat.solver import Solver, satisfiable

from conftest import ALL_LOGICS, tableau_sha256


def _sat(text, logic, n_agents=2):
    cfg = LogicConfig(logic=logic, n_agents=n_agents)
    return satisfiable(parse(text, n_agents), cfg)


def _valid(text, logic, n_agents=2):
    cfg = LogicConfig(logic=logic, n_agents=n_agents)
    return not satisfiable(neg_fold(parse(text, n_agents)), cfg).satisfiable


# Verdicts below were frozen from the brute-force semantic oracle (and agree
# with hand evaluation on concrete structures).
FROZEN_VERDICTS = [
    # (logic, formula, satisfiable)
    ("K", "[](a -> b) & []a & ~[]b", False),
    ("K", "[](a | b) & ~[]a & ~[]b", True),
    ("K", "[]false", True),
    ("KD", "[]false", False),
    ("KD", "[]a & []~a", False),
    ("K", "[]a & []~a", True),
    ("E", "[](a & b) & ~[](b & a)", False),
    ("E", "[](a & b) & ~[]a", True),
    ("M", "[](a & b) & ~[]a", False),
    ("M", "[]a & ~[](a | b)", False),
    ("M", "[]a & ~[]b", True),
    ("GML", "<1>a & ~<0>a", False),
    ("GML", "<0>a & ~<1>a", True),
    ("GML", "<1>(a & b) & ~<1>a", False),
    ("GML", "<0>a & <0>~a & ~<1>(a | ~a)", False),
    ("MAJ", "~W a & ~W ~a", False),
    ("MAJ", "W a & W ~a", True),
    ("MAJ", "M a & ~W a", False),
    ("PML", "L{1/2}a & L{2/3}~a", False),
    ("PML", "L{1/2}a & L{1/2}~a", True),
    ("PML", "~L{0/1}a", False),
    ("COAL", "[C 1]a & [C 2]~a", False),
    ("COAL", "[C 1]a & [C 2]b & ~[C 1,2](a & b)", False),
    ("COAL", "[C 1]a & ~[C 1,2]a", False),
    ("COAL", "[C 1,2]a & ~[C 1]a", True),
]


@pytest.mark.parametrize("logic,text,expected", FROZEN_VERDICTS)
def test_frozen_verdicts(logic, text, expected):
    verdict = _sat(text, logic)
    assert verdict.satisfiable == expected


# Every successor satisfies exactly two of a, b and c, and each of them holds
# at exactly one successor, so twice the number of successors would be 3.
# No single GML rule instance refutes the root: the weighting of 1/2 on each
# of the successors ab, ac and bc survives (docs/certificates.md, "Known
# limitation").  MAJ, over the same multigraphs, gives the same verdict.
THREE_PAIRS = (
    "<0>a & ~<1>a & <0>b & ~<1>b & <0>c & ~<1>c"
    " & ~<0>(a & b & c) & ~<0>(~a & ~b) & ~<0>(~a & ~c) & ~<0>(~b & ~c)"
)


@pytest.mark.xfail(strict=True, reason="known wrong graded verdict: satisfiable")
@pytest.mark.parametrize("logic", ["GML", "MAJ"])
def test_graded_three_pairs_is_unsatisfiable(logic):
    assert not _sat(THREE_PAIRS, logic).satisfiable


def test_propositional_formulas():
    assert _sat("a & ~a", "K").satisfiable is False
    assert _sat("a | b", "K").satisfiable is True
    assert _valid("a -> a", "K")


def test_recursion_bounded_by_modal_depth():
    cfg = LogicConfig(logic="GML")
    f = parse("<1>(<0>a & <1>(b | <0>c))")
    solver = Solver(cfg)
    verdict = solver.run(f)
    assert verdict.stats.recursion_peak <= f.depth


def test_verdict_deterministic_across_solver_instances():
    cfg = LogicConfig(logic="PML")
    f = parse("L{1/2}(a | b) & ~L{1/3}a")
    v1 = Solver(cfg).run(f)
    v2 = Solver(cfg).run(f)
    assert v1.satisfiable == v2.satisfiable
    if v1.satisfiable:
        assert v1.trace.valuation == v2.trace.valuation


def test_trace_shapes():
    cfg = LogicConfig(logic="K")
    sat = satisfiable(parse("[](a | b) & ~[]a"), cfg)
    assert sat.satisfiable
    assert sat.trace.formula is parse("[](a | b) & ~[]a")
    unsat = satisfiable(parse("[]a & ~[]a"), cfg)
    assert not unsat.satisfiable
    assert unsat.trace.failures == []  # no pseudovaluation even entails it
    unsat2 = satisfiable(parse("[](a & ~a) & ~[]b & ~[]~b"), cfg)
    assert not unsat2.satisfiable
    assert unsat2.trace.failures  # refuted pseudovaluations are recorded


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_solver_never_contradicts_oracle(logic):
    cfg = LogicConfig(logic=logic)
    rng = random.Random(123)
    budget = 25 if logic in ("COAL", "GML", "PML") else 60
    for _ in range(budget):
        f = random_formula(rng, cfg, max_depth=2)
        verdict = satisfiable(f, cfg)
        witness = brute_force_sat(f, cfg)
        if witness is not None:
            assert verdict.satisfiable, pretty(f)


class _NeverStores(dict):
    """A node table that forgets every answer, so each pseudovaluation is
    answered afresh."""

    def __setitem__(self, key, value):
        pass


def _count_refuter_calls(monkeypatch):
    calls = []
    original = logics.refuting_matching_exists

    def counted(clause, sat_patterns, cfg):
        calls.append(clause)
        return original(clause, sat_patterns, cfg)

    monkeypatch.setattr(logics, "refuting_matching_exists", counted)
    return calls


def _without_node_reuse(monkeypatch):
    init = Solver.__init__

    def forgetful(self, cfg):
        init(self, cfg)
        self.nodes = _NeverStores()

    monkeypatch.setattr(Solver, "__init__", forgetful)


def _certified(f, cfg):
    """The verdict and the JSON of its certificate: the tableau, or the
    proof of the negation.  A model is built from the tableau alone, so equal
    tableaux give equal models; synthesis is left out because one MAJ model
    of the corpus below takes minutes (ROADMAP item 2)."""
    verdict = satisfiable(f, cfg)
    if not verdict.satisfiable:
        return False, proof_to_json(extract_proof(verdict, neg(f), cfg))
    return True, tableau_to_json(extract_tableau(verdict, cfg))


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_node_reuse_keeps_every_certificate(logic, monkeypatch):
    # A node's answer depends only on its proper modal literals, so reusing
    # it across pseudovaluations that share them changes no verdict and no
    # byte of any certificate; in the linear logics it saves refuter calls.
    cfg = LogicConfig(logic=logic)
    rng = random.Random(2525)
    formulas = []
    for _ in range(60):
        f = random_formula(rng, cfg, max_depth=3, size_budget=rng.randint(7, 15))
        g = conj_fold(
            [random_formula(rng, cfg, max_depth=2, size_budget=rng.randint(5, 9)) for _ in range(3)]
        )
        formulas += [f, neg(f), g, neg(g)]
    calls = _count_refuter_calls(monkeypatch)
    reused = [_certified(f, cfg) for f in formulas]
    reuse_calls = len(calls)
    _without_node_reuse(monkeypatch)
    del calls[:]
    assert [_certified(f, cfg) for f in formulas] == reused
    assert 10 <= sum(not r[0] for r in reused) <= 200
    if cfg.is_arithmetic():
        assert reuse_calls < len(calls)


def test_node_reuse_answers_a_shared_modal_part_once(monkeypatch):
    # Both pattern formulas ~(r & ~<2>p) and r & ~<2>p reach a node whose
    # one proper literal is ~<2>p; it is answered once.
    cfg = LogicConfig(logic="GML")
    f = parse("<2> ~(r & ~<2> p)")
    calls = _count_refuter_calls(monkeypatch)
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    assert len(calls) == 2
    digest = "51fabc64835e76745c8b6081b146d10dac305da06d739585de80ada86f42bca6"
    assert tableau_sha256(tb) == digest
    _without_node_reuse(monkeypatch)
    del calls[:]
    assert tableau_sha256(extract_tableau(satisfiable(f, cfg), cfg)) == digest
    assert len(calls) == 3


# The widest linear family members of the benchmark corpus; each is
# satisfiable by construction.
LINEAR_WIDE = [
    ("GML", "<0>a0 & <1>a1 & <2>a2 & <3>a3 & <4>a4 & ~<5>(a0 | a1 | a2 | a3 | a4)"),
    ("MAJ", "W a0 & W a1 & W a2 & W a3 & ~<0>(a0 & a1 & a2 & a3)"),
    ("PML", "L{1/4}a0 & L{1/4}a1 & L{1/4}a2 & L{1/4}a3 & ~L{1/1}(a0 | a1 | a2 | a3)"),
]


@pytest.mark.parametrize("logic,text", LINEAR_WIDE)
def test_linear_width_families_certified(logic, text):
    cfg = LogicConfig(logic=logic)
    f = parse(text)
    verdict = satisfiable(f, cfg)
    assert verdict.satisfiable
    tb = extract_tableau(verdict, cfg)
    ok, msg = check_tableau(tb, f, cfg)
    assert ok, msg
    w = tableau_to_model(tb, cfg)
    assert w is not None and model_check(w, w.root, f)


# The width-8 members of the same families, ``gml_wide(8)``, ``maj_wide(8)``
# and ``pml_wide(8)`` in the benchmark corpus: nine proper modal atoms at
# the root, so 511 clauses per pseudovaluation.
LINEAR_WIDTH_8 = [
    ("GML", "<0>a0 & <1>a1 & <2>a2 & <3>a3 & <4>a4 & <5>a5 & <6>a6 & <7>a7"
     " & ~<8>(a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"),
    ("MAJ", "W a0 & W a1 & W a2 & W a3 & W a4 & W a5 & W a6 & W a7"
     " & ~<0>(a0 & a1 & a2 & a3 & a4 & a5 & a6 & a7)"),
    ("PML", "L{1/8}a0 & L{1/8}a1 & L{1/8}a2 & L{1/8}a3 & L{1/8}a4 & L{1/8}a5 & L{1/8}a6"
     " & L{1/8}a7 & ~L{1/1}(a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"),
]


@pytest.mark.parametrize("logic,text", LINEAR_WIDTH_8)
def test_linear_width_8_families_certified(logic, text):
    cfg = LogicConfig(logic=logic)
    f = parse(text)
    verdict = satisfiable(f, cfg)
    assert verdict.satisfiable
    ok, msg = check_tableau(extract_tableau(verdict, cfg), f, cfg)
    assert ok, msg


# Arguments made only of constants, built without folding: their sign
# patterns are constant-only demands with no atom to branch on.
CONSTANT_ARGUMENTS = [
    ("GML", "<0>(true & true) & ~<0>~~false"),
    ("MAJ", "W (true & true) & ~<0>~~false"),
    ("PML", "L{1/2}(true & true) & ~L{1/2}~~false"),
]


@pytest.mark.parametrize("logic,text", CONSTANT_ARGUMENTS)
def test_constant_only_arguments(logic, text):
    cfg = LogicConfig(logic=logic)
    f = parse(text)
    verdict = satisfiable(f, cfg)
    assert verdict.satisfiable
    tb = extract_tableau(verdict, cfg)
    ok, msg = check_tableau(tb, f, cfg)
    assert ok, msg
    w = tableau_to_model(tb, cfg)
    assert w is not None and model_check(w, w.root, f)


def box_family(m: int) -> str:
    """``~[]b & []a0 & ... & []a(m-1)``: one diamond, m boxes."""
    return " & ".join(["~[]b"] + ["[]a%d" % i for i in range(m)])


@pytest.mark.parametrize("logic", ["K", "KD"])
def test_box_family_solve_calls_grow_linearly(logic):
    # One challenge per diamond: the m boxes join one demand, so the work
    # grows with m, not with the 2^m subsets of the boxes.
    cfg = LogicConfig(logic=logic)
    calls = {}
    for m in (10, 20):
        verdict = satisfiable(parse(box_family(m)), cfg)
        assert verdict.satisfiable
        calls[m] = verdict.stats.solve_calls
    assert calls[20] <= 2 * calls[10], calls


# Width-20 coalition families, each with one maximal clause at its root: 20
# grand-coalition diamonds beside one coalition box, and 20 empty-coalition
# boxes beside one coalition box and one grand-coalition diamond.
COAL_FAMILIES = [
    ("COAL:2", " & ".join(["~[C 1,2]b%d" % i for i in range(20)] + ["[C 1]a"])),
    ("COAL:3", " & ".join(["[C]b%d" % i for i in range(20)] + ["[C 1]a", "~[C 1,2,3]c"])),
]


@pytest.mark.parametrize("spec,text", COAL_FAMILIES)
def test_coalition_family_asks_one_maximal_clause(spec, text):
    # Every grand-coalition diamond and every family of disjoint boxes
    # joins one clause, whose demand implies the demand of each clause
    # inside it, so the work does not double with each literal.
    cfg = logics.parse_logic_spec(spec)
    f = parse(text, cfg.n_agents)
    verdict = satisfiable(f, cfg)
    assert verdict.satisfiable
    assert verdict.stats.solve_calls <= 4
    assert verdict.stats.matchings_checked <= 4
    assert check_tableau(extract_tableau(verdict, cfg), f, cfg) == (True, "ok")


def diamond_family(n: int) -> str:
    """``~[]a0 & ... & ~[]a(n-1) & [](a0 | ... | a(n-1))``: n diamonds and
    one box, so each diamond's maximal clause is a congruence pair."""
    xs = ["a%d" % i for i in range(n)]
    return " & ".join(["~[]" + x for x in xs] + ["[](%s)" % " | ".join(xs)])


@pytest.mark.parametrize("logic", ["K", "KD"])
@pytest.mark.parametrize("n", range(2, 10))
def test_diamond_family_one_demand_per_diamond(logic, n):
    # Congruence's first demand on a pair clause is its K demand with the
    # conjuncts swapped, so congruence is not asked: the root and one
    # demand per diamond are solved, with one edge each.
    cfg = LogicConfig(logic=logic)
    verdict = satisfiable(parse(diamond_family(n)), cfg)
    assert verdict.satisfiable
    assert verdict.stats.solve_calls == n + 1
    tb = extract_tableau(verdict, cfg)
    assert len(tb.edges) == n
    assert {m.code.scheme for _, m, _ in tb.edges} == {"K"}


@pytest.mark.parametrize("n", range(2, 10))
def test_m_validity_one_demand_per_box(n):
    # ``[](a0 & ... ) -> []a0 & ...``: each refuting pair clause is asked
    # through its M instance alone, not through congruence as well.
    xs = ["a%d" % i for i in range(n)]
    text = "[](%s) -> %s" % (" & ".join(xs), " & ".join("[]" + x for x in xs))
    verdict = satisfiable(neg_fold(parse(text)), LogicConfig(logic="M"))
    assert not verdict.satisfiable
    assert verdict.stats.solve_calls == n + 1
