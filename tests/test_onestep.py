"""Rule codes, premises, and premise CNF."""

import itertools
from fractions import Fraction

from modalsat.formula import atom, modal, parse, GDiamond
from modalsat.onestep import (
    ClausePremise,
    LinearPremise,
    RuleCode,
    RuleMatching,
    conclusion_clause,
    congruence_matchings,
    negated_clause_instance,
    premise_cnf_clauses,
    premise_of,
)


def test_linear_premise_subset_sum():
    prem = LinearPremise(coeffs=(2, -1, 1), bound=1)
    assert prem.subset_sum(0b001) == 2
    assert prem.subset_sum(0b111) == 2
    assert prem.subset_sum(0b010) == -1


def test_premise_cnf_matches_exhaustive_semantics():
    # A premise CNF clause set must be satisfied by exactly the variable
    # assignments whose weighted sum meets the bound.  Exhaustive over all
    # small coefficient vectors with at most 4 variables.
    coeff_choices = (-2, -1, 1, 2)
    for q in range(1, 5):
        for coeffs in itertools.product(coeff_choices, repeat=q):
            for bound in (-1, 0, 1, 2):
                prem = LinearPremise(coeffs=coeffs, bound=bound)
                clauses = list(premise_cnf_clauses(prem))
                for bits in range(1 << q):
                    assign = [bool(bits >> i & 1) for i in range(q)]
                    weight = sum(c for c, b in zip(coeffs, assign) if b)
                    holds = weight >= bound
                    cnf_holds = all(
                        any(assign[v] == s for (s, v) in clause)
                        for clause in clauses
                    )
                    assert holds == cnf_holds, (coeffs, bound, assign)


def test_premise_cnf_clause_signs():
    # The clause for a failing subset J contains the negation of exactly
    # the variables inside J.
    prem = LinearPremise(coeffs=(1, 1), bound=2)
    clauses = list(premise_cnf_clauses(prem))
    # Failing subsets: {}, {0}, {1} -> three clauses.
    assert len(clauses) == 3
    assert clauses[0] == ((True, 0), (True, 1))


def test_clause_premise_cnf_passthrough():
    prem = ClausePremise(clauses=(((True, 0), (False, 1)),))
    assert list(premise_cnf_clauses(prem)) == [((True, 0), (False, 1))]


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
    gammas = list(premise_cnf_clauses(m.premise()))
    assert len(gammas) == 2
    # Negated premise clauses instantiate to the two difference patterns.
    insts = {str(negated_clause_instance(g, m.subst)) for g in gammas}
    assert len(insts) == 2


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
    prem = premise_of(code)
    assert isinstance(prem, ClausePremise)
    assert prem.clauses == (((True, 0), (False, 1), (False, 2)),)
