"""Rule codes, premise CNF clauses, and the demands of rule instances."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import ALL_LOGICS, reference_premise
from modalsat.formula import atom, modal, parse, GDiamond
from modalsat.logics import parse_logic_spec
from modalsat.onestep import (
    RuleCode,
    RuleMatching,
    conclusion_clause,
    congruence_matchings,
    demands,
    premise_clauses,
)
from modalsat.sampling import sample_matchings


def _cnf_holds(clauses, values) -> bool:
    return all(any(values[v] == s for s, v in clause) for clause in clauses)


def test_linear_premise_clauses_are_the_light_subsets():
    # Coefficients (2, -1, 1) against bound 1: the subsets {}, {1} and
    # {1, 2} weigh 0, -1 and 0, below the bound; each gives the clause
    # that negates exactly its variables, in binary-counter order.
    code = RuleCode("MAJ", "MAJ", (2, -1, 1, 1), (), (0, 1, 2), ())
    assert list(premise_clauses(code)) == [
        ((True, 0), (True, 1), (True, 2)),
        ((True, 0), (False, 1), (True, 2)),
        ((True, 0), (False, 1), (False, 2)),
    ]


def test_premise_cnf_matches_exhaustive_semantics():
    # A linear code's premise CNF must be satisfied by exactly the variable
    # assignments whose weighted sum meets the bound.  Exhaustive over all
    # small coefficient vectors with at most 4 variables, the schemes GML,
    # MAJ and PML in turn (only the coefficients and the bound matter).
    schemes = itertools.cycle(("GML", "MAJ", "PML"))
    for q in range(1, 5):
        for coeffs in itertools.product((-2, -1, 1, 2), repeat=q):
            for bound in (-1, 0, 1, 2):
                scheme = next(schemes)
                code = RuleCode(scheme, scheme, coeffs + (bound,))
                clauses = list(premise_clauses(code))
                for values in itertools.product((False, True), repeat=q):
                    weight = sum(c for c, v in zip(coeffs, values) if v)
                    assert (weight >= bound) == _cnf_holds(clauses, values), (code, values)


def test_premise_cnf_clause_signs():
    # The clause for a failing subset J contains the negation of exactly
    # the variables inside J.
    code = RuleCode("PML", "PML", (1, 1, 2), (Fraction(1, 2), Fraction(1, 3)), (), ())
    clauses = list(premise_clauses(code))
    # Failing subsets: {}, {0}, {1} -> three clauses.
    assert clauses == [
        ((True, 0), (True, 1)),
        ((False, 0), (True, 1)),
        ((True, 0), (False, 1)),
    ]


SAMPLED_CODES = [
    m.code
    for spec in ALL_LOGICS + ("COAL:3",)
    for m in sample_matchings(random.Random(17), parse_logic_spec(spec), 30)
]


@pytest.mark.parametrize("scheme", ["CONG", "K", "KD", "M", "COAL1", "COAL4", "GML", "MAJ", "PML"])
def test_premise_clauses_match_the_reference(scheme):
    # Codes sampled in all 8 logics and COAL:3: the premise CNF holds under
    # exactly the assignments where the semantic premise does, and every
    # clause names each variable once.
    codes = [code for code in SAMPLED_CODES if code.scheme == scheme]
    assert codes, scheme
    for code in codes:
        q = code.arity()
        clauses = list(premise_clauses(code))
        for clause in clauses:
            assert sorted(v for _, v in clause) == list(range(q)), (code, clause)
        for values in itertools.product((False, True), repeat=q):
            assert reference_premise(code, values) == _cnf_holds(clauses, values), (code, values)


def test_rule_code_json_roundtrip():
    codes = [
        RuleCode("K", "K", (1, -1, -1), (), (), ()),
        RuleCode("GML", "GML", (2, -1, 0), (), (3, 1), ()),
        RuleCode(
            "PML",
            "PML",
            (1, -1, 1),
            (Fraction(1, 2), Fraction(1, 3)),
            (),
            (),
        ),
        RuleCode(
            "COAL",
            "COAL1",
            (-1, -1),
            (),
            (),
            (frozenset({1}), frozenset({2})),
        ),
        RuleCode("E", "CONG", (-1, 1), (), (), ()),
    ]
    for code in codes:
        assert RuleCode.from_json(code.to_json()) == code


def test_congruence_matching_premise_and_conclusion():
    a = parse("[](p & q)")
    b = parse("[]r")
    clause = ((False, a), (True, b))
    ms = congruence_matchings(clause, "E")
    assert len(ms) == 1
    m = ms[0]
    assert conclusion_clause(m, 2) == clause
    # The two demands are the two difference patterns.
    assert [str(d) for d in demands(m)] == [
        str(parse("(p & q) & ~r")),
        str(parse("~(p & q) & r")),
    ]


def test_congruence_demands_put_the_negative_argument_first():
    # In the clause ([]b, ~[]a) the negative literal comes second, yet each
    # demand names its argument first: a & ~b, then ~a & b.  Proofs in E
    # list their entries in this order.
    clause = ((True, parse("[]b")), (False, parse("[]a")))
    (m,) = congruence_matchings(clause, "E")
    assert list(premise_clauses(m.code)) == [((False, 1), (True, 0)), ((True, 1), (False, 0))]
    assert list(demands(m)) == [parse("a & ~b"), parse("~a & b")]


def test_congruence_requires_matching_operator():
    clause = ((False, parse("<1>p", 2)), (True, parse("<2>q", 2)))
    assert congruence_matchings(clause, "GML") == []
    clause2 = ((False, parse("<2>p", 2)), (True, parse("<2>q", 2)))
    assert len(congruence_matchings(clause2, "GML")) == 1


def test_linear_code_conclusion_signs_follow_coefficients():
    code = RuleCode("GML", "GML", (1, -1, 0), (), (2, 1), ())
    m = RuleMatching(code, (atom("p"), atom("q")))
    concl = conclusion_clause(m, 2)
    assert concl == (
        (True, modal(GDiamond(2), atom("p"))),
        (False, modal(GDiamond(1), atom("q"))),
    )


def test_shape_premise_mirrors_conclusion_signs():
    code = RuleCode("K", "K", (1, -1, -1), (), (), ())
    assert list(premise_clauses(code)) == [((True, 0), (False, 1), (False, 2))]
    m = RuleMatching(code, (atom("p"), atom("q"), atom("r")))
    assert list(demands(m)) == [parse("~p & q & r")]


def test_rule_code_arity_and_signs():
    # The bound of a linear code and the distinguished literal of a COAL4
    # code follow the literals' ints and carry no sign.
    c = (frozenset({1}), frozenset({1, 2}))
    cases = [
        (RuleCode("E", "CONG", (1, -1)), (True, False)),
        (RuleCode("K", "K", (-1, 1, -1)), (False, True, False)),
        (RuleCode("COAL", "COAL4", (-1, 1, 1), coalitions=c), (False, True)),
        (RuleCode("GML", "GML", (2, -3, 0), grades=(1, 0)), (True, False)),
        (RuleCode("MAJ", "MAJ", (-1, -2), grades=(0,)), (False,)),
    ]
    for code, signs in cases:
        assert code.arity() == len(signs)
        assert code.signs() == signs
