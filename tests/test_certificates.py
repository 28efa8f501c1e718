"""Certificates: tableaux, models, proofs, and their JSON round-trips."""

import json
from fractions import Fraction

import pytest

from conftest import proof_sha256
from modalsat import certificates
from modalsat.certificates import (
    ModelWitness,
    Tableau,
    audit_proof_subformulas,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    check_proof,
    check_tableau,
    extract_proof,
    extract_tableau,
    model_check,
    model_from_json,
    model_to_json,
    proof_from_json,
    proof_to_json,
    tableau_from_json,
    tableau_to_json,
    tableau_to_model,
)
from modalsat.formula import neg_fold, parse, pseudovaluations_for
from modalsat.logics import LogicConfig
from modalsat.oracle import brute_force_sat
from modalsat.solver import Solver, satisfiable



SAT_CASES = [
    ("K", "[](a | b) & ~[]a & ~[]b"),
    ("KD", "[]a & ~[]false"),
    ("E", "[]a & ~[]b"),
    ("M", "[](a & b) & ~[]c"),
    ("GML", "<2>a & ~<0>b"),
    ("MAJ", "W a & ~W b"),
    ("PML", "L{1/2}a & L{1/2}~a"),
    ("COAL", "[C 1]a & [C 2]b"),
]

VALID_CASES = [
    ("K", "[](a -> b) -> ([]a -> []b)"),
    ("KD", "~ [] false"),
    ("E", "[]a -> []a"),
    ("M", "[](a & b) -> []a"),
    ("GML", "<1>a -> <0>a"),
    ("MAJ", "W a | W ~a"),
    ("PML", "L{0/1} a"),
    ("COAL", "([C 1]a & [C 2]b) -> [C 1,2](a & b)"),
    # The goal is a double negation, so it is not neg_fold of the refuted
    # formula; the proof must still be about the goal itself.
    ("K", "~~([]a -> []a)"),
]

# sha256 of each VALID_CASES proof's JSON.
PROOF_SHA256 = {
    ("K", "[](a -> b) -> ([]a -> []b)"): "414cff09808b335746ba58ee2d4a05b49dceb9836ef1aaf1b1f66dc7e7523526",
    ("KD", "~ [] false"): "9140d96f61238d45243dc2be91ce9d0e7eccdc0877a81b97e10767d864d2fb1b",
    ("E", "[]a -> []a"): "649c4969d797aa07180083b72c82bd4d34f29391be5425f70ee66bcfed64b903",
    ("M", "[](a & b) -> []a"): "6db442177e4671eefc2d4d362e393061c18e9eae41608a9c11b5518a49897d11",
    ("GML", "<1>a -> <0>a"): "7dea78732304effb5c03cbe06676c41a313b900c73e38e657e148cae44951118",
    ("MAJ", "W a | W ~a"): "fb2882f306d57e2f89e0c7819e070afc7259061aa3ec7cd03a3d00a66a962ed3",
    ("PML", "L{0/1} a"): "45c67a20e7d7695857877bf96588f63effd92987e1e35e46e0e94097ec5d8dec",
    ("COAL", "([C 1]a & [C 2]b) -> [C 1,2](a & b)"): "581fa45d87aef5244306fb82a5fc05aeeb2f4ce9b889063102a88d56bbd1e5e2",
    ("K", "~~([]a -> []a)"): "3a2f1087b25ba838d5aea53d4531b7024482d8cc2011a9a40be36cfd8cac8458",
}


# -- model checking -----------------------------------------------------------


def test_model_check_kripke():
    w = ModelWitness(
        kind="kripke",
        root=0,
        states=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset({"b"})},
        succ={0: (1, 2), 1: (), 2: ()},
    )
    assert model_check(w, 0, parse("[](a | b)"))
    assert not model_check(w, 0, parse("[]a"))
    assert model_check(w, 0, parse("~[]a & ~[]b"))


def test_model_check_multigraph():
    w = ModelWitness(
        kind="multigraph",
        root=0,
        states=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset()},
        weights={0: {1: 2, 2: 1}, 1: {}, 2: {}},
    )
    assert model_check(w, 0, parse("<1>a"))
    assert not model_check(w, 0, parse("<2>a"))
    assert model_check(w, 0, parse("W a"))  # 2 of 3 successors
    assert not model_check(w, 0, parse("W ~a"))


def test_model_check_distribution():
    w = ModelWitness(
        kind="distribution",
        root=0,
        states=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset()},
        dist={
            0: {1: Fraction(2, 3), 2: Fraction(1, 3)},
            1: {1: Fraction(1)},
            2: {2: Fraction(1)},
        },
    )
    assert model_check(w, 0, parse("L{2/3}a"))
    assert not model_check(w, 0, parse("L{3/4}a"))


def test_model_check_neighbourhood():
    w = ModelWitness(
        kind="neighbourhood",
        root=0,
        states=[0, 1],
        labels={0: frozenset(), 1: frozenset({"a"})},
        neigh={0: (frozenset({1}),), 1: ()},
    )
    assert model_check(w, 0, parse("[]a"))
    assert not model_check(w, 0, parse("[](a | ~a)"))  # {0,1} not a member
    w.monotone = True
    assert model_check(w, 0, parse("[](a | ~a)"))  # superset of {1}


def test_model_check_game():
    # Agent 1 picks the row: row 0 -> state 1 (a), row 1 -> state 2 (b).
    w = ModelWitness(
        kind="game",
        root=0,
        states=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset({"b"})},
        games={
            0: ((2, 1), {(0, 0): 1, (1, 0): 2}),
            1: ((1, 1), {(0, 0): 1}),
            2: ((1, 1), {(0, 0): 2}),
        },
    )
    assert model_check(w, 0, parse("[C 1]a", 2))
    assert model_check(w, 0, parse("[C 1]b", 2))
    assert not model_check(w, 0, parse("[C 2]a", 2))


# -- tableau extraction and checking ------------------------------------------


@pytest.mark.parametrize("logic,text", SAT_CASES)
def test_tableau_roundtrip_and_check(logic, text):
    cfg = LogicConfig(logic=logic)
    f = parse(text, cfg.n_agents)
    verdict = satisfiable(f, cfg)
    assert verdict.satisfiable
    tb = extract_tableau(verdict, cfg)
    ok, msg = check_tableau(tb, f, cfg)
    assert ok, msg
    doc = certificate_to_json(tb)
    tb2 = certificate_from_json(json.loads(json.dumps(doc)), cfg.n_agents)
    ok2, msg2 = check_tableau(tb2, f, cfg)
    assert ok2, msg2


def test_tableau_rejects_wrong_root():
    cfg = LogicConfig(logic="K")
    f = parse("[](a | b) & ~[]a & ~[]b")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    ok, msg = check_tableau(tb, parse("[]a"), cfg)
    assert not ok


def test_tableau_rejects_missing_edges():
    cfg = LogicConfig(logic="K")
    f = parse("[](a | b) & ~[]a & ~[]b")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    tb.edges = tb.edges[:-1]
    ok, msg = check_tableau(tb, f, cfg)
    assert not ok and "unanswered" in msg


def test_tableau_rejects_tampered_node():
    cfg = LogicConfig(logic="K")
    f = parse("[](a | b) & ~[]a & ~[]b")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    # Flip the sign of the first literal of a non-root node.
    for i, valuation in enumerate(tb.nodes):
        if i != tb.root and valuation:
            s, a = valuation[0]
            tb.nodes[i] = ((not s, a),) + valuation[1:]
            break
    ok, _ = check_tableau(tb, f, cfg)
    assert not ok


# Unsatisfiable linear-logic formulas for which a lone edgeless node answers
# every congruence challenge, so only the linear rules can expose the forgery.
FORGED_LINEAR = [
    ("GML", "<1>a & ~<0>a"),
    ("GML", "<0>a & <0>~a & ~<1>(a | ~a)"),
    ("PML", "L{1/2}a & L{2/3}~a"),
    ("MAJ", "M a & ~W a"),
]


@pytest.mark.parametrize("logic,text", FORGED_LINEAR)
def test_tableau_rejects_forged_linear_node(logic, text):
    cfg = LogicConfig(logic=logic)
    f = parse(text, cfg.n_agents)
    assert not satisfiable(f, cfg).satisfiable
    valuations = list(pseudovaluations_for(f))
    assert valuations
    for valuation in valuations:
        ok, msg = check_tableau(Tableau(0, [valuation], []), f, cfg)
        assert not ok and "refutes" in msg


def test_tableau_rejects_partial_sign_pattern():
    # A pattern edge must claim a full sign pattern of the node's arguments;
    # ``a`` alone does not say how the argument of <0>a fares.
    cfg = LogicConfig(logic="GML")
    f = parse("<1>a & <0>a")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    child = len(tb.nodes)
    tb.nodes.append(((True, parse("a")),))
    tb.edges.append((tb.root, ("pattern", parse("a")), child))
    ok, msg = check_tableau(tb, f, cfg)
    assert not ok and "sign pattern" in msg


# -- model synthesis ----------------------------------------------------------


@pytest.mark.parametrize("logic,text", SAT_CASES)
def test_tableau_to_model(logic, text):
    cfg = LogicConfig(logic=logic)
    f = parse(text, cfg.n_agents)
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    w = tableau_to_model(tb, cfg)
    if logic == "COAL":
        assert w is None  # no synthesis for games; the oracle covers it
        w = brute_force_sat(f, cfg)
    assert w is not None
    assert model_check(w, w.root, f)
    doc = model_to_json(w)
    w2 = model_from_json(json.loads(json.dumps(doc)))
    assert model_check(w2, w2.root, f)


def test_kd_model_is_serial():
    cfg = LogicConfig(logic="KD")
    f = parse("[]a")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    w = tableau_to_model(tb, cfg)
    assert w is not None
    for s in w.states:
        assert w.succ.get(s), "dead end in a serial model"


def test_pml_model_mass_sums_to_one():
    cfg = LogicConfig(logic="PML")
    f = parse("L{1/2}a & L{1/3}b")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    w = tableau_to_model(tb, cfg)
    assert w is not None
    for s in w.states:
        assert sum(w.dist[s].values()) == 1


# -- proofs -------------------------------------------------------------------


@pytest.mark.parametrize("logic,text", VALID_CASES)
def test_proof_roundtrip_and_check(logic, text):
    cfg = LogicConfig(logic=logic)
    goal = parse(text, cfg.n_agents)
    verdict = satisfiable(neg_fold(goal), cfg)
    assert not verdict.satisfiable
    doc = extract_proof(verdict, goal, cfg)
    ok, msg = check_proof(doc, goal, cfg)
    assert ok, msg
    assert audit_proof_subformulas(doc, goal)
    assert proof_sha256(doc) == PROOF_SHA256[(logic, text)]
    payload = certificate_to_json(doc)
    doc2 = certificate_from_json(json.loads(json.dumps(payload)), cfg.n_agents)
    ok2, msg2 = check_proof(doc2, goal, cfg)
    assert ok2, msg2


@pytest.mark.parametrize("logic,text", VALID_CASES)
def test_extract_proof_performs_no_search(logic, text, monkeypatch):
    cfg = LogicConfig(logic=logic)
    goal = parse(text, cfg.n_agents)
    verdict = satisfiable(neg_fold(goal), cfg)

    def search(*args, **kwargs):
        raise AssertionError("proof extraction searched")

    with monkeypatch.context() as patch:
        for name in ("matchings", "congruence_matchings", "refuting_matching_exists"):
            patch.setattr(certificates, name, search, raising=False)
        patch.setattr(Solver, "solve", search)
        doc = extract_proof(verdict, goal, cfg)
    ok, msg = check_proof(doc, goal, cfg)
    assert ok, msg


def test_proof_of_propositional_validity_has_no_clauses():
    cfg = LogicConfig(logic="K")
    goal = parse("a -> a")
    verdict = satisfiable(neg_fold(goal), cfg)
    doc = extract_proof(verdict, goal, cfg)
    assert doc.clause_proofs == ()
    ok, msg = check_proof(doc, goal, cfg)
    assert ok, msg


def test_extract_proof_requires_unsat_verdict():
    cfg = LogicConfig(logic="K")
    goal = parse("[]a")
    verdict = satisfiable(neg_fold(goal), cfg)
    assert verdict.satisfiable
    with pytest.raises(ValueError):
        extract_proof(verdict, goal, cfg)


def test_check_proof_rejects_wrong_goal():
    cfg = LogicConfig(logic="K")
    goal = parse("[](a -> b) -> ([]a -> []b)")
    verdict = satisfiable(neg_fold(goal), cfg)
    doc = extract_proof(verdict, goal, cfg)
    ok, _ = check_proof(doc, parse("[]a"), cfg)
    assert not ok


def test_check_proof_rejects_tampered_rule():
    cfg = LogicConfig(logic="GML")
    goal = parse("<1>a -> <0>a")
    verdict = satisfiable(neg_fold(goal), cfg)
    doc = extract_proof(verdict, goal, cfg)
    payload = proof_to_json(doc)

    def tamper(node):
        if node.get("type") == "rule" and node.get("rule", {}).get("grades"):
            node["rule"]["grades"] = [g + 5 for g in node["rule"]["grades"]]
            return True
        for entry in node.get("clauses", ()):
            if entry.get("type") == "rule":
                if tamper(entry):
                    return True
                for part in entry.get("parts", ()):
                    if tamper(part["sub"]):
                        return True
        return False

    assert tamper(payload["payload"]) or any(
        tamper(c) for c in payload["payload"]["clauses"]
    )
    doc2 = proof_from_json(payload, cfg.n_agents)
    ok, _ = check_proof(doc2, goal, cfg)
    assert not ok


# -- dispatcher ---------------------------------------------------------------


def test_check_certificate_dispatch():
    cfg = LogicConfig(logic="K")
    f = parse("[](a | b) & ~[]a & ~[]b")
    verdict = satisfiable(f, cfg)
    tb = extract_tableau(verdict, cfg)
    assert check_certificate(tb, f, cfg)[0]
    w = tableau_to_model(tb, cfg)
    assert check_certificate(w, f, cfg)[0]
    goal = parse("[](a -> b) -> ([]a -> []b)")
    doc = extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg)
    assert check_certificate(doc, goal, cfg)[0]
    assert not check_certificate(w, parse("[]a & ~[]a"), cfg)[0]


def test_certificate_json_is_deterministic():
    cfg = LogicConfig(logic="M")
    f = parse("[](a & b) & ~[]c")
    v1 = satisfiable(f, cfg)
    v2 = satisfiable(f, cfg)
    j1 = json.dumps(certificate_to_json(extract_tableau(v1, cfg)), sort_keys=True)
    j2 = json.dumps(certificate_to_json(extract_tableau(v2, cfg)), sort_keys=True)
    assert j1 == j2


def test_certificate_version_gate():
    doc = {"kind": "model", "version": 99, "payload": {}}
    with pytest.raises(ValueError):
        certificate_from_json(doc, 2)
