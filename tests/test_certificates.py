"""Certificates: tableaux, models, proofs, and their JSON round-trips."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import ARITH, corpus, proof_sha256, proof_within_subformulas, tableau_sha256
from test_logics import _congruence_and_refuter_challenges, _mask_loop_challenges
from modalsat import certificates, cli, formula, solver
from modalsat.certificates import (
    MAX_WEIGHT,
    ModelWitness,
    _weight_search,
    Tableau,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    check_proof,
    check_tableau,
    extract_proof,
    extract_tableau,
    _pattern_of,
    model_check,
    model_from_json,
    model_to_json,
    proof_from_json,
    proof_to_json,
    tableau_from_json,
    tableau_to_json,
    tableau_to_model,
    validate_structure,
)
from modalsat.formula import (
    Atom,
    GDiamond,
    MajW,
    assignments,
    atom,
    conj_fold,
    modal,
    neg_fold,
    parse,
    pretty,
)
from modalsat.logics import LogicConfig, challenges, parse_logic_spec, proper_atoms
from modalsat.onestep import (
    RuleCode,
    RuleMatching,
    conclusion_clause,
    congruence_matchings,
    demands,
)
from modalsat.oracle import brute_force_sat
from modalsat.sampling import random_formula
from modalsat.semantics import lift
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
    ("K", "[](a -> b) -> ([]a -> []b)"): "547344e4b21551f57453e64efffa54e611b1413d6649276711cce28e86677cf8",
    ("KD", "~ [] false"): "0bd6b5ebf4fcfe23509bc8efd383cb572a1839a205defc9b00c1896985f49b42",
    ("E", "[]a -> []a"): "d13ad38da43531464c6330812230ff89ecf5e50f997740a99d0a3da4afe9526a",
    ("M", "[](a & b) -> []a"): "a1cf96783c1fc503d4684bc20eec29a82864a62c50946cc5981afdf03abe102e",
    ("GML", "<1>a -> <0>a"): "a8771692cdfe6b34a8917ba5281064b31bcde954e9d511cbf5ea230c8a2d2530",
    ("MAJ", "W a | W ~a"): "888b86f4f5ec8a7b2cb7c64c15e896ee45bd8c5b5746e745f1b4ac95c7044686",
    ("PML", "L{0/1} a"): "12ea2418589a4463f4a7c4964d39536dd2fdbd0302ccfef293016c85d564b6c2",
    ("COAL", "([C 1]a & [C 2]b) -> [C 1,2](a & b)"): "6f0950e5b4e7b64664265cba2a67619660a5a2c8f385d9fb0a496943cf735a50",
    ("K", "~~([]a -> []a)"): "8455ac6d4638c16d9dda79b7c12f647754fd6259ba31a75fa6b0e66c017c3afa",
}


# -- model checking -----------------------------------------------------------


def test_model_check_kripke():
    w = ModelWitness(
        kind="kripke",
        root=0,
        states=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset({"b"})},
        structs={0: (1, 2), 1: (), 2: ()},
    )
    assert model_check(w, 0, parse("[](a | b)"))
    assert not model_check(w, 0, parse("[]a"))
    assert model_check(w, 0, parse("~[]a & ~[]b"))
    # A dead end satisfies [] false; a serial state does not.
    assert model_check(w, 1, parse("[]false"))
    w.structs[1] = (1,)
    assert not model_check(w, 1, parse("[]false"))
    # A kripke model has no game to evaluate a coalition on.
    with pytest.raises(ValueError):
        model_check(w, 0, parse("[C 1]a", 2))


@pytest.mark.parametrize("text", ["&", "|"])
def test_model_check_takes_wide_flat_formulas(text):
    # 3,000 operands nest 3,000 left operands deep, past the default
    # recursion limit; `model` checks such a root at its model's states.
    f = parse((" %s " % text).join("a%d" % i for i in range(3000)))
    names = ["a%d" % i for i in range(3000)]
    w = ModelWitness(kind="kripke", root=0, states=[0], labels={0: frozenset(names)})
    assert model_check(w, 0, f)
    w.labels[0] = frozenset(names[:1700] + names[1701:])
    assert model_check(w, 0, f) is (text == "|")
    w.labels[0] = frozenset(names[1700:1701])
    assert model_check(w, 0, f) is (text == "|")


def test_model_check_multigraph():
    w = ModelWitness(
        kind="multigraph",
        root=0,
        states=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset()},
        structs={0: {1: 2, 2: 1}, 1: {}, 2: {}},
    )
    assert model_check(w, 0, parse("<1>a"))
    assert not model_check(w, 0, parse("<2>a"))
    assert model_check(w, 0, parse("W a"))  # 2 of 3 successors
    assert not model_check(w, 0, parse("W ~a"))
    assert model_check(w, 1, parse("W a & W ~a & ~<0>(a | ~a)"))  # no successors
    w.structs[0] = {1: 1, 2: 1}
    assert model_check(w, 0, parse("W a & W ~a"))  # a tie


def test_model_check_distribution():
    w = ModelWitness(
        kind="distribution",
        root=0,
        states=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset()},
        structs={
            0: {1: Fraction(2, 3), 2: Fraction(1, 3)},
            1: {1: Fraction(1)},
            2: {2: Fraction(1)},
        },
    )
    assert model_check(w, 0, parse("L{2/3}a"))
    assert not model_check(w, 0, parse("L{3/4}a"))
    assert model_check(w, 0, parse("L{1/3}~a"))  # mass exactly 1/3


def test_model_check_neighbourhood():
    w = ModelWitness(
        kind="neighbourhood",
        root=0,
        states=[0, 1],
        labels={0: frozenset(), 1: frozenset({"a"})},
        structs={0: (frozenset({1}),), 1: ()},
    )
    assert model_check(w, 0, parse("[]a"))
    assert not model_check(w, 0, parse("[](a | ~a)"))  # {0,1} not a member
    assert not model_check(w, 0, parse("[]false"))
    w.monotone = True
    assert model_check(w, 0, parse("[](a | ~a)"))  # superset of {1}
    assert model_check(w, 0, parse("[]a"))
    assert not model_check(w, 0, parse("[]false"))  # {} is no superset of {1}


def test_model_check_game():
    # Agent 1 picks the row: row 0 -> state 1 (a), row 1 -> state 2 (b).
    w = ModelWitness(
        kind="game",
        root=0,
        states=[0, 1, 2],
        labels={0: frozenset(), 1: frozenset({"a"}), 2: frozenset({"b"})},
        structs={
            0: ((2, 1), {(0, 0): 1, (1, 0): 2}),
            1: ((1, 1), {(0, 0): 1}),
            2: ((1, 1), {(0, 0): 2}),
        },
    )
    assert model_check(w, 0, parse("[C 1]a", 2))
    assert model_check(w, 0, parse("[C 1]b", 2))
    assert not model_check(w, 0, parse("[C 2]a", 2))
    # The grand coalition picks a whole profile.
    assert model_check(w, 0, parse("[C 1,2]b & ~[C 1,2](~a & ~b)", 2))


# -- model structure ----------------------------------------------------------

# Models that ``model_check`` alone accepts for formulas that are
# unsatisfiable in their logic, or that are not structures of the logic at
# all; each must be rejected before evaluation.
FORGED_MODELS = [
    # A dead end in KD, whatever the ``serial`` flag claims.
    (
        "KD",
        "[]false",
        ModelWitness(kind="kripke", root=0, states=[0], labels={}, serial=True, structs={0: ()}),
    ),
    # A "distribution" of mass 2.
    (
        "PML",
        "L{1/2}a & L{2/3}~a",
        ModelWitness(
            kind="distribution",
            root=0,
            states=[0, 1, 2],
            labels={1: frozenset({"a"})},
            structs={0: {1: Fraction(1), 2: Fraction(1)}, 1: {1: Fraction(1)}, 2: {2: Fraction(1)}},
        ),
    ),
    # Neighbourhoods that are not up-closed, read literally in M.
    (
        "M",
        "[](a & b) & ~[]a",
        ModelWitness(
            kind="neighbourhood",
            root=0,
            states=[0, 1],
            labels={0: frozenset({"a", "b"}), 1: frozenset({"a"})},
            structs={0: (frozenset({0}),), 1: ()},
        ),
    ),
    # A root that is not a state.
    (
        "K",
        "[]a & ~a",
        ModelWitness(kind="kripke", root=5, states=[0], labels={}, structs={0: ()}),
    ),
    # A negative weight cancels a successor.
    (
        "GML",
        "<0>a & ~<0>(a | b)",
        ModelWitness(
            kind="multigraph",
            root=0,
            states=[0, 1, 2],
            labels={1: frozenset({"a"}), 2: frozenset({"b"})},
            structs={0: {1: 1, 2: -1}},
        ),
    ),
    # A successor outside the states.
    (
        "K",
        "~[]a",
        ModelWitness(kind="kripke", root=0, states=[0], labels={}, structs={0: (3,)}),
    ),
    # A game whose outcome table misses a strategy profile.
    (
        "COAL",
        "[C 1]a",
        ModelWitness(
            kind="game",
            root=0,
            states=[0, 1],
            labels={1: frozenset({"a"})},
            structs={0: ((2, 1), {(0, 0): 1}), 1: ((1, 1), {(0, 0): 1})},
        ),
    ),
    # A Kripke model offered for a graded logic.
    (
        "GML",
        "a",
        ModelWitness(kind="kripke", root=0, states=[0], labels={0: frozenset({"a"})}),
    ),
]


@pytest.mark.parametrize("logic,text,witness", FORGED_MODELS)
def test_check_certificate_rejects_ill_formed_models(logic, text, witness):
    cfg = LogicConfig(logic=logic)
    f = parse(text, cfg.n_agents)
    ok, msg = validate_structure(witness, cfg)
    assert not ok
    assert check_certificate(witness, f, cfg) == (False, msg)
    doc = json.loads(json.dumps(model_to_json(witness)))
    assert not check_certificate(certificate_from_json(doc, cfg.n_agents), f, cfg)[0]


def test_structure_frame_conditions_come_from_the_logic():
    # An explicitly up-closed family is a monotone structure without the flag.
    w = ModelWitness(
        kind="neighbourhood",
        root=0,
        states=[0, 1],
        labels={0: frozenset({"a", "b"}), 1: frozenset({"a"})},
        structs={0: (frozenset({0}), frozenset({0, 1})), 1: ()},
    )
    assert validate_structure(w, LogicConfig(logic="M")) == (True, "ok")
    assert check_certificate(w, parse("[](a & b) & []a"), LogicConfig(logic="M"))[0]
    # Without the seriality flag a serial model is still a KD model.
    w = ModelWitness(kind="kripke", root=0, states=[0], labels={}, structs={0: (0,)})
    assert validate_structure(w, LogicConfig(logic="KD")) == (True, "ok")


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


def _dominated_forgery(f, cfg):
    """A tableau for ``f`` whose one node answers, with a satisfiable demand,
    every challenge the full clause loop asks except the maximal clauses'."""
    (valuation,) = assignments(f)
    maximal = {clause for clause, _ in challenges(valuation, cfg, set())}
    nodes, edges = [valuation], []
    for clause, cands in _mask_loop_challenges(valuation, cfg, set()):
        if clause in maximal:
            continue
        for m in cands:
            for demand in demands(m):
                if satisfiable(demand, cfg).satisfiable:
                    edges.append((0, m, len(nodes)))
                    nodes.append(next(assignments(demand)))
                    break
    return Tableau(0, nodes, edges)


@pytest.mark.parametrize(
    "spec,text,rule",
    [
        ("K", "[]a0 & []a1 & ~[](a0 & a1)", "K"),
        ("KD", "[]a0 & []a1 & ~[](a0 & a1)", "K"),
        # The COAL1 clause {~[C 1]a0, ~[C 2]a1} lies inside the COAL4 one.
        ("COAL:2", "[C 1]a0 & [C 2]a1 & ~[C 1,2](a0 & a1)", "COAL4"),
        # The clause with the grand-coalition diamond distinguished lies
        # inside the one with ~[C 1]b distinguished.
        ("COAL:2", "[C 1]a & ~[C 1]b & ~[C 1,2](a & ~b)", "COAL4"),
    ],
)
def test_tableau_rejects_answers_to_dominated_clauses_only(spec, text, rule):
    # Every clause inside the maximal one has a satisfiable demand; only the
    # maximal clause's demand, such as a0 & a1 & ~(a0 & a1), refutes the
    # node.
    cfg = parse_logic_spec(spec)
    f = parse(text, cfg.n_agents)
    assert not satisfiable(f, cfg).satisfiable
    tb = _dominated_forgery(f, cfg)
    assert len(tb.edges) >= 4
    ok, msg = check_tableau(tb, f, cfg)
    assert not ok
    assert msg == "unanswered challenge at node 0: the %s rule refutes it" % rule


OLD_STYLE_SAT = [
    "[](a | b) & ~[]a & ~[]b",
    "~[]b & []a0 & []a1 & []a2",
    "~[]b & ~[]c & []a0 & [](a1 | b) & [][]a0",
    "~[]a0 & ~[]a1 & ~[]a2 & [](a0 | a1 | a2)",
]


@pytest.mark.parametrize("logic", ["K", "KD"])
@pytest.mark.parametrize("text", OLD_STYLE_SAT)
def test_tableau_answering_every_clause_still_checks(logic, text, monkeypatch):
    # Tableaux written when every clause was a challenge answer the maximal
    # clauses too, so they keep checking.
    cfg = LogicConfig(logic=logic)
    f = parse(text)
    new = extract_tableau(satisfiable(f, cfg), cfg)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "challenges", _mask_loop_challenges)
        old = extract_tableau(satisfiable(f, cfg), cfg)
    assert len(old.edges) > len(new.edges)
    assert check_tableau(old, f, cfg) == (True, "ok")
    doc = json.loads(json.dumps(tableau_to_json(old)))
    assert check_tableau(tableau_from_json(doc, cfg.n_agents), f, cfg) == (True, "ok")


# A node whose one clause is a congruence pair that a shape schema matches
# too, and that schema's rule.
PAIR_NODES = [
    ("K", "[]a & ~[]b", "K"),
    ("KD", "[]a & ~[]b", "K"),
    ("M", "[]a & ~[]b", "M"),
    ("COAL:2", "[C 1]a & ~[C 1]b", "COAL4"),
]


def _pair_tableau(spec, text, answer_pair):
    """A tableau of the pair node with a congruence edge for its pair clause,
    to a pseudovaluation for ``~a & b``, not the shape instance's ``a & ~b``.
    Every other challenge of the node has an edge, and so does the shape
    instance on the pair when ``answer_pair`` is set."""
    cfg = parse_logic_spec(spec)
    f = parse(text, cfg.n_agents)
    valuation = next(assignments(f))
    pair = tuple((not s, a) for s, a in valuation)
    answers = [
        m
        for clause, cands in challenges(valuation, cfg, set())
        if answer_pair or clause != pair
        for m in cands
    ]
    answers += congruence_matchings(pair, cfg.logic)
    nodes, edges = [valuation], []
    for m in answers:
        demand = list(demands(m))[-1]
        edges.append((0, m, len(nodes)))
        nodes.append(next(assignments(demand)))
    return Tableau(0, nodes, edges), f, cfg


@pytest.mark.parametrize("spec,text,scheme", PAIR_NODES)
def test_tableau_rejects_congruence_edge_alone(spec, text, scheme):
    # Congruence is no challenge where the shape instance dominates it, so
    # a congruence edge answers nothing the checker asks.
    tb, f, cfg = _pair_tableau(spec, text, answer_pair=False)
    ok, msg = check_tableau(tb, f, cfg)
    assert not ok
    assert msg == "unanswered challenge at node 0: the %s rule refutes it" % scheme


@pytest.mark.parametrize("spec,text,scheme", PAIR_NODES)
def test_tableau_with_congruence_and_shape_edges_still_checks(spec, text, scheme):
    # Tableaux written when congruence was asked beside the shape instance
    # carry an edge for each; a congruence edge is still a valid edge.
    tb, f, cfg = _pair_tableau(spec, text, answer_pair=True)
    assert {m.code.scheme for _, m, _ in tb.edges} >= {"CONG", scheme}
    assert check_tableau(tb, f, cfg) == (True, "ok")
    doc = json.loads(json.dumps(tableau_to_json(tb)))
    assert check_tableau(tableau_from_json(doc, cfg.n_agents), f, cfg) == (True, "ok")


# Linear formulas whose node holds a congruence pair.  Congruence was once
# asked there beside the node's one linear system.
LINEAR_PAIR_SAT = [
    ("GML", "<1>a & ~<1>b"),
    ("MAJ", "<1>a & ~<1>b"),
    ("MAJ", "W a & ~W b & W c"),
    ("PML", "L{1/2}a & ~L{1/2}b"),
]


@pytest.mark.parametrize("logic,text", LINEAR_PAIR_SAT)
def test_linear_tableau_with_congruence_edges_still_checks(logic, text, monkeypatch):
    # A tableau written then answers each pair with a congruence edge.  The
    # checker no longer asks congruence at a linear node, but the edge is
    # still a valid one.
    cfg = LogicConfig(logic=logic)
    f = parse(text)
    new = extract_tableau(satisfiable(f, cfg), cfg)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "challenges", _congruence_and_refuter_challenges)
        old = extract_tableau(satisfiable(f, cfg), cfg)
    assert "CONG" in {m.code.scheme for _, m, _ in old.edges if m is not None}
    assert all(m is None for _, m, _ in new.edges) and len(new.edges) < len(old.edges)
    assert check_tableau(old, f, cfg) == (True, "ok")
    doc = json.loads(json.dumps(tableau_to_json(old)))
    assert check_tableau(tableau_from_json(doc, cfg.n_agents), f, cfg) == (True, "ok")


@pytest.mark.parametrize(
    "logic,text",
    [("GML", "<1>a -> <1>(a & a)"), ("MAJ", "<1>a -> <1>(a & a)"), ("PML", "L{1/2}a -> L{1/2}(a & a)")],
)
def test_linear_congruence_proof_still_checks(logic, text, monkeypatch):
    # Congruence refuted this node before its linear system was asked; the
    # proof now holds the linear instance, with one demand instead of two.
    cfg = LogicConfig(logic=logic)
    goal = parse(text)
    new = extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "challenges", _congruence_and_refuter_challenges)
        old = extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg)
    assert [m.code.scheme for m in old[goal]] == ["CONG"]
    assert [m.code.scheme for m in new[goal]] == [logic]
    assert len(json.dumps(proof_to_json(new))) < len(json.dumps(proof_to_json(old)))
    for doc in (old, new):
        assert check_proof(doc, goal, cfg) == (True, "ok")
        payload = json.loads(json.dumps(proof_to_json(doc)))
        assert check_proof(proof_from_json(payload, cfg.n_agents), goal, cfg) == (True, "ok")


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
    valuations = list(assignments(f))
    assert valuations
    for valuation in valuations:
        ok, msg = check_tableau(Tableau(0, [valuation], []), f, cfg)
        assert not ok and "refutes" in msg


@pytest.mark.parametrize("logic,text", FORGED_LINEAR)
def test_tableau_rejects_answered_linear_refuters(logic, text):
    # Claim no pattern satisfiable, then answer each refuting linear matching
    # with a rule edge to a satisfiable demand.  Each such edge is well formed,
    # but it answers only the refuter of the claimed patterns, while the
    # node's true patterns may admit another, so no edge may answer a linear
    # rule.  A refuter whose demands are all unsatisfiable stays unanswered.
    cfg = LogicConfig(logic=logic)
    f = parse(text, cfg.n_agents)
    for valuation in assignments(f):
        nodes, edges = [valuation], []
        for _, cands in challenges(valuation, cfg, set()):
            for m in cands:
                for demand in demands(m):
                    if satisfiable(demand, cfg).satisfiable:
                        edges.append((0, m, len(nodes)))
                        nodes.append(next(assignments(demand)))
                        break
        ok, msg = check_tableau(Tableau(0, nodes, edges), f, cfg)
        assert not ok
        assert ("answers a linear" if edges else "refutes") in msg, msg


def test_tableau_rejects_partial_sign_pattern():
    # A pattern edge's target fixes its sign pattern by deciding every
    # argument of the node; ``a`` alone does not say how the argument of
    # <0>b fares.
    cfg = LogicConfig(logic="GML")
    f = parse("<1>a & <0>b")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    child = len(tb.nodes)
    tb.nodes.append(((True, parse("a")),))
    tb.edges.append((tb.root, None, child))
    msg = "edge %d: target does not decide the node's arguments" % (len(tb.edges) - 1)
    assert check_tableau(tb, f, cfg) == (False, msg)


def test_tableau_rejects_rule_over_an_operator_outside_the_logic(tmp_path, capsys):
    # An extra node answers its congruence challenge over [C 1], which a K
    # rule cannot mention; every other check of the edge would pass.
    cfg = LogicConfig(logic="K")
    text = "[](a | b) & ~[]a & ~[]b"
    f = parse(text)
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    assert check_tableau(tb, f, cfg) == (True, "ok")
    m = RuleMatching(RuleCode("K", "CONG", (-1, 1), (), (), (frozenset({1}),)), (atom("a"), atom("b")))
    clause = conclusion_clause(m, cfg.n_agents)
    demand = next(demands(m))
    src = len(tb.nodes)
    tb.nodes.append(tuple((not s, a) for s, a in clause))
    tb.nodes.append(next(assignments(demand)))
    tb.edges.append((src, m, src + 1))
    msg = "edge %d: rule uses an operator outside the logic" % (len(tb.edges) - 1)
    assert check_tableau(tb, f, cfg) == (False, msg)
    cert = tmp_path / "tableau.json"
    cert.write_text(json.dumps(tableau_to_json(tb)))
    assert cli.main(["--logic", "K", "check-cert", text, "--cert", str(cert)]) == 1
    assert msg in capsys.readouterr().out


def _set_rule_substitution(payload):
    # {~[]a, []c} is no clause of the node's negated literals.
    payload["payload"]["edges"][0]["substitution"] = ["a", "c"]


def _set_rule_target(payload):
    # The congruence premise's clauses demand a & ~b or ~a & b.
    payload["payload"]["nodes"][1] = ["a", "b"]


def _extend_rule_substitution(payload):
    payload["payload"]["edges"][0]["substitution"].append("[][][] zzz")


def _shorten_rule_substitution(payload):
    # The conclusion's second literal would have no formula.
    del payload["payload"]["edges"][0]["substitution"][1]


def _set_rule_logic(payload):
    # Congruence has no side condition that names a logic, so only the
    # code's own logic field says it is an M rule.
    payload["payload"]["edges"][0]["rule"]["logic"] = "M"


def _extend_pattern_target(payload):
    # c is no atom of the pattern ~a & ~b.
    payload["payload"]["nodes"][1].append("c")


@pytest.mark.parametrize(
    "logic,text,tamper,message",
    [
        ("E", "[]a & ~[]b", _set_rule_substitution, "edge 0: rule conclusion is not built from negated node literals"),
        ("E", "[]a & ~[]b", _set_rule_target, "edge 0: target answers no premise clause"),
        ("E", "[]a & ~[]b", _extend_rule_substitution, "edge 0: substitution has 3 formulas for a rule of arity 2"),
        ("E", "[]a & ~[]b", _shorten_rule_substitution, "edge 0: substitution has 1 formulas for a rule of arity 2"),
        ("E", "[]a & ~[]b", _set_rule_logic, "edge 0: rule code is for logic 'M', not E"),
        ("GML", "<1>a & <0>b", _extend_pattern_target, "edge 0: target is not a pseudovaluation for its sign pattern"),
    ],
)
def test_check_tableau_names_the_failing_edge(logic, text, tamper, message, tmp_path, capsys):
    cfg = LogicConfig(logic=logic)
    f = parse(text)
    payload = tableau_to_json(extract_tableau(satisfiable(f, cfg), cfg))
    assert check_tableau(tableau_from_json(payload, cfg.n_agents), f, cfg) == (True, "ok")
    tamper(payload)
    assert check_tableau(tableau_from_json(payload, cfg.n_agents), f, cfg) == (False, message)
    cert = tmp_path / "tableau.json"
    cert.write_text(json.dumps(payload))
    assert cli.main(["--logic", logic, "check-cert", text, "--cert", str(cert)]) == 1
    assert capsys.readouterr().out == "tableau  INVALID: %s\n" % message


def _shared_modal_part(tb):
    """Two nodes i < j with rule edges whose proper modal literals agree and
    whose propositional literals differ, or None."""
    first = {}
    for j in sorted({src for src, m, _ in tb.edges if m is not None}):
        modal = tuple((s, a) for s, a in tb.nodes[j] if not isinstance(a.op, Atom))
        i = first.setdefault(modal, j)
        if i != j and set(tb.nodes[i]) - set(modal) != set(tb.nodes[j]) - set(modal):
            return i, j
    return None


def test_nodes_sharing_modal_literals_each_need_their_edge(tmp_path, capsys):
    # The checker asks the challenges of a modal part once, but each node
    # must still answer them with edges of its own.
    cfg = LogicConfig(logic="K")
    rng = random.Random(1)
    cert = tmp_path / "tableau.json"
    while True:
        f = conj_fold(
            [random_formula(rng, cfg, max_depth=3, size_budget=rng.randint(8, 16)) for _ in range(3)]
        )
        text = pretty(f)
        if cli.main(["--logic", "K", "solve", text, "--cert", str(cert)]) != 0:
            continue
        payload = json.loads(cert.read_text())
        pair = _shared_modal_part(tableau_from_json(payload, cfg.n_agents))
        if pair is not None:
            break
    j = pair[1]
    edges = payload["payload"]["edges"]
    edges.remove(next(e for e in edges if e["src"] == j and "rule" in e))
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["--logic", "K", "check-cert", text, "--cert", str(cert)]) == 1
    assert "INVALID: unanswered challenge at node %d:" % j in capsys.readouterr().out


def test_tableau_edges_carry_only_their_rule_instance():
    cfg = LogicConfig(logic="K")
    f = parse("[](a | b) & ~[]a & ~[]b")
    payload = tableau_to_json(extract_tableau(satisfiable(f, cfg), cfg))
    assert payload["version"] == 2
    edges = payload["payload"]["edges"]
    assert edges and all(set(e) == {"src", "dst", "rule", "substitution"} for e in edges)
    cfg = LogicConfig(logic="GML")
    f = parse("<1>a & <0>b")
    edges = tableau_to_json(extract_tableau(satisfiable(f, cfg), cfg))["payload"]["edges"]
    assert edges and all(set(e) == {"src", "dst"} for e in edges)


# An extra, unreachable node per logic, with one literal whose operator is
# outside the logic, and the rule of its first challenge.  In all but COAL
# that rule refutes the node; the GML node claims no pattern, so a GML rule
# refutes its clause {~<1>b, <0>b}.  The COAL node is asked {[C 1]b} and
# {~[C 2]c}, and no edge answers them.
FOREIGN_OPERATOR_NODES = [
    ("K", "[]a", ("[]p", "~[](p | q)", "<0>r"), "K"),
    ("KD", "[]a", ("[]p", "~[](p | q)", "<0>r"), "K"),
    ("M", "[]a", ("[]p", "~[](p | q)", "<0>r"), "M"),
    ("E", "[]a", ("[]p", "~[](p & p)", "<0>r"), "CONG"),
    ("GML", "<0>a", ("<1>b", "~<0>b", "[]p"), "GML"),
    ("COAL:2", "[C 1]a", ("[]a", "~[C 1]b", "[C 2]c"), "COAL4"),
]


@pytest.mark.parametrize(
    "spec,text,junk,rule", FOREIGN_OPERATOR_NODES, ids=[row[0] for row in FOREIGN_OPERATOR_NODES]
)
def test_challenge_leaves_out_operators_outside_the_logic(spec, text, junk, rule, tmp_path, capsys):
    # The foreign literal enters no clause.  Were it to join the node's one
    # K clause as a third literal, no rule would match that clause, the
    # node would be asked nothing and the forgery would check; a linear
    # node's one system would fit no schema either.
    cfg = parse_logic_spec(spec)
    f = parse(text, cfg.n_agents)
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    assert check_tableau(tb, f, cfg) == (True, "ok")
    tb.nodes.append(
        tuple((not t.startswith("~"), parse(t.lstrip("~"), cfg.n_agents)) for t in junk)
    )
    msg = "unanswered challenge at node %d: the %s rule refutes it" % (len(tb.nodes) - 1, rule)
    assert check_tableau(tb, f, cfg) == (False, msg)
    cert = tmp_path / "tableau.json"
    cert.write_text(json.dumps(tableau_to_json(tb)))
    assert cli.main(["--logic", spec, "check-cert", text, "--cert", str(cert)]) == 1
    assert "INVALID: " + msg in capsys.readouterr().out


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
    assert check_certificate(w, f, cfg) == (True, "ok")
    doc = model_to_json(w)
    w2 = model_from_json(json.loads(json.dumps(doc)))
    assert model_to_json(w2) == doc
    assert model_check(w2, w2.root, f)
    assert check_certificate(w2, f, cfg) == (True, "ok")


def test_kd_model_is_serial():
    cfg = LogicConfig(logic="KD")
    f = parse("[]a")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    w = tableau_to_model(tb, cfg)
    assert w is not None
    for s in w.states:
        assert w.structs.get(s), "dead end in a serial model"


def test_pml_model_mass_sums_to_one():
    cfg = LogicConfig(logic="PML")
    f = parse("L{1/2}a & L{1/3}b")
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    w = tableau_to_model(tb, cfg)
    assert w is not None
    for s in w.states:
        assert sum(w.structs[s].values()) == 1


def _linear_sat_width_family(logic, n):
    """The satisfiable width-n family of a linear logic: n literals over
    a0, ..., a(n-1) and a negated literal over their disjunction (GML, PML)
    or conjunction (MAJ)."""
    names = ["a%d" % i for i in range(n)]
    lits = {
        "GML": ["<%d>%s" % (i, a) for i, a in enumerate(names)],
        "MAJ": ["W " + a for a in names],
        "PML": ["L{1/%d}%s" % (n, a) for a in names],
    }[logic]
    last = {
        "GML": "~<%d>(%s)" % (n, " | ".join(names)),
        "MAJ": "~<0>(%s)" % " & ".join(names),
        "PML": "~L{1/1}(%s)" % " | ".join(names),
    }[logic]
    return " & ".join(lits + [last])


@pytest.mark.parametrize("logic", ARITH)
def test_linear_children_differ_on_some_argument(logic):
    # ``_build_multigraph`` weighs each child of a node on its own: a solver
    # tableau gives a linear node one child per satisfiable pattern, so no
    # two children agree on every argument of the node.
    cfg, formulas = corpus(logic, 300, seed=3030)
    formulas = [g for f in formulas for g in (f, neg_fold(f))]
    formulas += [parse(_linear_sat_width_family(logic, n)) for n in range(1, 9)]
    nodes = 0
    for f in formulas:
        verdict = satisfiable(f, cfg)
        if not verdict.satisfiable:
            continue
        tb = extract_tableau(verdict, cfg)
        children = {}
        for src, _, dst in tb.edges:
            children.setdefault(src, set()).add(dst)
        for src, kids in children.items():
            arith = proper_atoms(tb.nodes[src])
            patterns = {_pattern_of(tb.nodes[t], arith) for t in kids}
            assert len(patterns) == len(kids), (pretty(f), src)
            nodes += 1
    assert nodes >= 300, nodes


def test_children_that_agree_on_every_argument_still_get_a_model():
    # A hand-made GML tableau gives <1>(a | b) two children, a & ~b and
    # ~a & b, that both satisfy the node's one argument.
    cfg = LogicConfig(logic="GML")
    f = parse("<1>(a | b)")
    doc = tableau_to_json(extract_tableau(satisfiable(f, cfg), cfg))
    payload = doc["payload"]
    assert payload["nodes"] == [["<1> ~(~a & ~b)"], ["~a", "~b"], ["a", "~b"]]
    payload["nodes"].append(["~a", "b"])
    payload["edges"].append({"src": 0, "dst": 3})
    tb = tableau_from_json(doc, cfg.n_agents)
    assert check_tableau(tb, f, cfg) == (True, "ok")
    w = tableau_to_model(tb, cfg)
    assert w is not None
    assert check_certificate(w, f, cfg) == (True, "ok")


def _exhaustive_weights(literals, insides, blocks, cap):
    """The first child weights in lexicographic order that give every
    literal its sign."""
    for ws in itertools.product(range(cap + 1), repeat=blocks):
        weights = dict(enumerate(ws))
        if all(
            lift("multigraph", a.op, weights, inside) == s
            for (s, a), inside in zip(literals, insides)
        ):
            return weights
    return None


@pytest.mark.parametrize("logic", ("GML", "MAJ"))
def test_weight_search_matches_exhaustive(logic):
    rng = random.Random(13)
    outcomes = []
    for _ in range(150):
        blocks = rng.randrange(1, 5)
        # Caps below MAX_WEIGHT keep the exhaustive search small.
        cap = {1: MAX_WEIGHT, 2: MAX_WEIGHT, 3: 9, 4: 5}[blocks]
        literals = []
        insides = []
        for k in range(rng.randrange(1, 4)):
            if logic == "MAJ" and rng.random() < 0.5:
                op = MajW()
            else:
                op = GDiamond(rng.randrange(0, 2 * cap))
            literals.append((rng.random() < 0.5, modal(op, atom("v%d" % k))))
            insides.append({b for b in range(blocks) if rng.random() < 0.5})
        got = _weight_search(literals, insides, blocks, cap)
        assert got == _exhaustive_weights(literals, insides, blocks, cap), literals
        outcomes.append(got is not None)
    assert outcomes.count(True) >= 30 and outcomes.count(False) >= 30


def test_weight_search_walks_more_blocks_than_the_recursion_limit():
    # The root of ``gml_wide(10)`` has about 2^10 children.  Here only the
    # last of 2,000 children can make ``<0>v`` true, so the search sets
    # every child before it, past the default recursion limit of 1,000.
    blocks = 2000
    literals = [(True, modal(GDiamond(0), atom("v")))]
    insides = [{blocks - 1}]
    got = _weight_search(literals, insides, blocks, MAX_WEIGHT)
    assert got == {**dict.fromkeys(range(blocks - 1), 0), blocks - 1: 1}


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
    assert proof_within_subformulas(doc, goal)
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
    assert doc == {goal: ()}
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
    doc = extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg)
    payload = proof_to_json(doc)
    rule = payload["payload"]["proofs"][0]["rules"][0]["rule"]
    assert rule["grades"]
    rule["grades"] = [g + 5 for g in rule["grades"]]
    ok, msg = check_proof(proof_from_json(payload, cfg.n_agents), goal, cfg)
    assert not ok
    assert msg.startswith("entry '~(<1> a & ~<0> a)' rule 0: "), msg


def _k_proof_json(text):
    cfg = LogicConfig(logic="K")
    goal = parse(text)
    doc = extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg)
    return cfg, goal, proof_to_json(doc)


# The entries of the proof of ``[][](a -> b) -> ([][]a -> [][]b)``: the goal,
# the formula its K instance demands, and the propositional validity below.
_GOAL_ENTRY = "~([] [] ~(a & ~b) & ~~([] [] a & ~[] [] b))"
_INNER_ENTRY = "~([] ~(a & ~b) & [] a & ~[] b)"
_LEAF_ENTRY = "~(~(a & ~b) & a & ~b)"


def _entries(payload):
    return payload["payload"]["proofs"]


def _inner_rule(payload):
    return _entries(payload)[1]["rules"][0]


def _set_inner_ints(payload):
    _inner_rule(payload)["rule"]["ints"] = [1, -1, 1]


def _set_inner_substitution(payload):
    _inner_rule(payload)["substitution"] = ["~(a & ~b)", "a", "c"]


def _extend_inner_substitution(payload):
    # The K rule has three conclusion literals; a fourth formula stands for
    # none of them.
    _inner_rule(payload)["substitution"].append("[][][] zzz")


def _shorten_inner_substitution(payload):
    # The K rule's third conclusion literal would have no formula.
    del _inner_rule(payload)["substitution"][2]


def _set_inner_coalition_rule(payload):
    _inner_rule(payload)["rule"] = {"logic": "K", "scheme": "CONG", "ints": [-1, 1], "coalitions": [[1]]}


def _set_inner_logic(payload):
    _inner_rule(payload)["rule"]["logic"] = "PML"


def _drop_inner_rules(payload):
    _entries(payload)[1]["rules"] = []


def _repeat_inner_rule(payload):
    _entries(payload)[1]["rules"].append(_inner_rule(payload))


def _drop_root_rules(payload):
    _entries(payload)[0]["rules"] = []


def _drop_leaf_entry(payload):
    del _entries(payload)[2]


def _drop_goal_entry(payload):
    del _entries(payload)[0]


def _add_unused_entry(payload):
    # A propositional validity: its entry would check, but nothing demands it.
    _entries(payload).append({"formula": "~(p & ~p)", "rules": []})


@pytest.mark.parametrize(
    "tamper,message",
    [
        (_set_inner_ints, "entry '%s' rule 0: rule code fails its side condition" % _INNER_ENTRY),
        (_set_inner_substitution, "entry '%s' rule 0: conclusion literal '[] c' is not on a modal atom of the formula" % _INNER_ENTRY),
        (_extend_inner_substitution, "entry '%s' rule 0: substitution has 4 formulas for a rule of arity 3" % _INNER_ENTRY),
        (_shorten_inner_substitution, "entry '%s' rule 0: substitution has 2 formulas for a rule of arity 3" % _INNER_ENTRY),
        (_set_inner_coalition_rule, "entry '%s' rule 0: rule uses an operator outside the logic" % _INNER_ENTRY),
        (_set_inner_logic, "entry '%s' rule 0: rule code is for logic 'PML', not K" % _INNER_ENTRY),
        (_drop_inner_rules, "entry '%s': the rule conclusions do not entail the formula" % _INNER_ENTRY),
        (_repeat_inner_rule, "entry '%s' rule 1: repeats rule 0" % _INNER_ENTRY),
        (_drop_root_rules, "entry '%s': the rule conclusions do not entail the formula" % _GOAL_ENTRY),
        (_drop_leaf_entry, "no entry for '%s', which '%s' rule 0 demands" % (_LEAF_ENTRY, _INNER_ENTRY)),
        (_drop_goal_entry, "no entry for the goal '%s'" % _GOAL_ENTRY),
        (_add_unused_entry, "entry '~(p & ~p)' is never demanded"),
    ],
)
def test_check_proof_names_the_failing_clause(tamper, message, tmp_path, capsys):
    text = "[][](a -> b) -> ([][]a -> [][]b)"
    cfg, goal, payload = _k_proof_json(text)
    assert [e["formula"] for e in _entries(payload)] == [_GOAL_ENTRY, _INNER_ENTRY, _LEAF_ENTRY]
    assert check_proof(proof_from_json(payload, cfg.n_agents), goal, cfg) == (True, "ok")
    tamper(payload)
    assert check_proof(proof_from_json(payload, cfg.n_agents), goal, cfg) == (False, message)
    cert = tmp_path / "proof.json"
    cert.write_text(json.dumps(payload))
    assert cli.main(["--logic", "K", "check-cert", text, "--cert", str(cert)]) == 1
    assert capsys.readouterr().out == "proof  INVALID: %s\n" % message


def test_duplicate_proof_entry_is_malformed():
    # ``a -> b`` is read as ``~(a & ~b)``: one formula, two entries.
    cfg, goal, payload = _k_proof_json("[](a -> b) -> ([]a -> []b)")
    entries = _entries(payload)
    assert entries[1] == {"formula": "~(~(a & ~b) & a & ~b)", "rules": []}
    entries.append({"formula": "~((a -> b) & a & ~b)", "rules": []})
    with pytest.raises(ValueError, match="malformed certificate: .*two proof entries for '~\\(~\\(a & ~b\\) & a & ~b\\)'"):
        certificate_from_json(payload, cfg.n_agents)


def _m_validity(n):
    """``m_validity(n)`` of the benchmark corpus: ``[](a0 & ...) -> []a0 & ...``."""
    xs = ["a%d" % i for i in range(n)]
    return "[](%s) -> %s" % (" & ".join(xs), " & ".join("[]" + x for x in xs))


def test_check_proof_recomputes_each_cnf_once(monkeypatch):
    # 8 distinct formulas, which a proof written as a tree repeats 128
    # times: the entailment of each is checked once.
    goal = parse(_m_validity(7))
    cfg = LogicConfig(logic="M")
    doc = extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg)
    assert len(doc) == 8
    calls = []
    entailed = certificates._entailed

    def counted(clauses, f):
        calls.append(f)
        return entailed(clauses, f)

    monkeypatch.setattr(certificates, "_entailed", counted)
    assert check_proof(doc, goal, cfg) == (True, "ok")
    assert sorted(map(id, calls)) == sorted(map(id, doc))


@pytest.mark.parametrize("n", [2, 3, 5, 9, 15])
def test_m_validity_root_fails_once_per_width(n):
    # Each refuted pseudovaluation's conclusion ``~[]A | []a_i`` covers every
    # later one that falsifies it, so the root is refuted n times, not
    # 2^n - 1, and its proof entry lists the n monotonicity instances.
    cfg = LogicConfig(logic="M")
    goal = parse(_m_validity(n))
    verdict = satisfiable(neg_fold(goal), cfg)
    assert len(verdict.trace.failures) == n
    doc = extract_proof(verdict, goal, cfg)
    assert len(doc[goal]) == n
    assert {m.code.scheme for m in doc[goal]} == {"M"}


def test_m_validity_15_proof_is_small(tmp_path, capsys):
    # Format 2 wrote one rule per CNF maxterm: 6.4 MB at this width.
    text = _m_validity(15)
    cert = tmp_path / "proof.json"
    assert cli.main(["--logic", "M", "prove", text, "--cert", str(cert)]) == 0
    assert len(cert.read_bytes()) < 20_000
    entries = json.loads(cert.read_text())["payload"]["proofs"]
    assert len(entries) == 16
    assert len(entries[0]["rules"]) == 15
    assert cli.main(["--logic", "M", "check-cert", text, "--cert", str(cert)]) == 0
    assert capsys.readouterr().out.endswith("proof  ok: ok\n")


def _m_root_rules(payload):
    return _entries(payload)[0]["rules"]


def _drop_m_rule(payload):
    del _m_root_rules(payload)[3]


def _repeat_m_rule(payload):
    _m_root_rules(payload).insert(4, _m_root_rules(payload)[3])


def _break_m_side_condition(payload):
    _m_root_rules(payload)[3]["rule"]["ints"] = [1, 1]


def _name_another_logic(payload):
    _m_root_rules(payload)[3]["rule"]["logic"] = "K"


def _conclude_off_the_formula(payload):
    _m_root_rules(payload)[3]["substitution"][1] = "zz"


def _shorten_m_substitution(payload):
    del _m_root_rules(payload)[3]["substitution"][1]


@pytest.mark.parametrize(
    "tamper,message",
    [
        (_drop_m_rule, "entry %r: the rule conclusions do not entail the formula"),
        (_repeat_m_rule, "entry %r rule 4: repeats rule 3"),
        (_break_m_side_condition, "entry %r rule 3: rule code fails its side condition"),
        (_name_another_logic, "entry %r rule 3: rule code is for logic 'K', not M"),
        (_conclude_off_the_formula, "entry %r rule 3: conclusion literal '[] zz' is not on a modal atom of the formula"),
        (_shorten_m_substitution, "entry %r rule 3: substitution has 1 formulas for a rule of arity 2"),
    ],
)
def test_format_3_forgeries_are_rejected(tamper, message, tmp_path, capsys):
    text = _m_validity(7)
    cfg = LogicConfig(logic="M")
    goal = parse(text)
    payload = proof_to_json(extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg))
    assert len(_m_root_rules(payload)) == 7
    tamper(payload)
    message %= pretty(goal)
    assert check_proof(proof_from_json(payload, cfg.n_agents), goal, cfg) == (False, message)
    cert = tmp_path / "proof.json"
    cert.write_text(json.dumps(payload))
    assert cli.main(["--logic", "M", "check-cert", text, "--cert", str(cert)]) == 1
    assert capsys.readouterr().out == "proof  INVALID: %s\n" % message


# Per linear logic: a valid implication, the ints of its root rule, and
# ints that miss the rule's side condition by one unit.
LINEAR_SIDE_FORGERIES = [
    # lhs = 2 against rhs = 1 + 2 * 1 = 3.
    ("GML", "<1>a -> <1>(a | b)", [-1, 1, 0], [-1, 2, 0]),
    # A - t - 1 = 1 - 1 - 1 = -1.
    ("MAJ", "W a -> W (a | b)", [-1, 1, 0], [-1, 1, 1]),
    # -1/2 + 1/2 = 0 above the bound -1.
    ("PML", "L{1/2}a -> L{1/2}(a | b)", [-1, 1, 0], [-1, 1, -1]),
]


@pytest.mark.parametrize("logic,text,ints,forged", LINEAR_SIDE_FORGERIES)
def test_linear_rule_missing_its_side_condition_is_rejected(logic, text, ints, forged, tmp_path, capsys):
    cfg = LogicConfig(logic=logic)
    goal = parse(text)
    payload = proof_to_json(extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg))
    rule = _entries(payload)[0]["rules"][0]["rule"]
    assert (rule["scheme"], rule["ints"]) == (logic, ints)
    rule["ints"] = forged
    message = "entry %r rule 0: rule code fails its side condition" % pretty(goal)
    assert check_proof(proof_from_json(payload, cfg.n_agents), goal, cfg) == (False, message)
    cert = tmp_path / "proof.json"
    cert.write_text(json.dumps(payload))
    assert cli.main(["--logic", logic, "check-cert", text, "--cert", str(cert)]) == 1
    assert capsys.readouterr().out == "proof  INVALID: %s\n" % message


def test_version_2_proof_is_unsupported(tmp_path, capsys):
    # Format 2 wrote one rule per CNF maxterm under "clauses"; it has no
    # reader.
    text = "[](a & b) -> []a"
    rule = {"coalitions": [], "grades": [], "ints": [-1, 1], "logic": "M", "rationals": [], "scheme": "M"}
    entries = [
        {"formula": "~([] (a & b) & ~[] a)", "clauses": [{"rule": rule, "substitution": ["a & b", "a"]}]},
        {"formula": "~(a & b & ~a)", "clauses": []},
    ]
    cert = tmp_path / "proof.json"
    cert.write_text(json.dumps({"kind": "proof", "version": 2, "payload": {"proofs": entries}}))
    assert cli.main(["--logic", "M", "check-cert", text, "--cert", str(cert)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: unsupported certificate version 2\n")


def test_shared_sub_proofs_are_written_once(tmp_path, capsys):
    # The tree format wrote this proof in 1,002,221 bytes.
    text = _m_validity(11)
    cert = tmp_path / "proof.json"
    assert cli.main(["--logic", "M", "prove", text, "--cert", str(cert)]) == 0
    assert len(cert.read_bytes()) < 400_000
    assert len(json.loads(cert.read_text())["payload"]["proofs"]) == 12
    assert cli.main(["--logic", "M", "check-cert", text, "--cert", str(cert)]) == 0
    assert capsys.readouterr().out.endswith("proof  ok: ok\n")


# -- pinned tableau bytes -----------------------------------------------------

# The satisfiable width families of the benchmark corpus (bench/corpus.py),
# with atom prefix "a": K, KD and COAL:3 ``~L a0 & ... & L(a0 | ...)``, K
# with propositional literals beside ``~[]ab & []ac``, and the GML, MAJ and
# PML linear width families.


def _names(n):
    return ["a%d" % i for i in range(n)]


def _wide(neg_op, pos_op, n):
    xs = _names(n)
    return " & ".join(["~%s%s" % (neg_op, x) for x in xs] + ["%s(%s)" % (pos_op, " | ".join(xs))])


def _family_cases():
    cases = []
    cases += [("K", _wide("[]", "[]", n)) for n in range(2, 10)]
    cases += [("KD", _wide("[]", "[]", n)) for n in range(2, 10)]
    cases += [("COAL:3", _wide("[C 1]", "[C 1,2,3]", n)) for n in range(2, 10)]
    for n in range(2, 11):
        lits = [("" if i % 2 == 0 else "~") + x for i, x in enumerate(_names(n))]
        cases.append(("K", " & ".join(lits + ["~[]ab", "[]ac"])))
    for n in range(2, 6):
        xs = _names(n)
        parts = ["<%d>%s" % (i, x) for i, x in enumerate(xs)]
        cases.append(("GML", " & ".join(parts + ["~<%d>(%s)" % (n, " | ".join(xs))])))
    for n in range(2, 5):
        xs = _names(n)
        cases.append(("MAJ", " & ".join(["W " + x for x in xs] + ["~<0>(%s)" % " & ".join(xs)])))
    for n in range(2, 5):
        xs = _names(n)
        parts = ["L{1/%d}%s" % (n, x) for x in xs]
        cases.append(("PML", " & ".join(parts + ["~L{1/1}(%s)" % " | ".join(xs)])))
    return cases


# sha256 of each family member's tableau JSON: pins the order in which
# valuations and challenges are enumerated, byte for byte.
TABLEAU_SHA256 = {
    ("K", "~[]a0 & ~[]a1 & [](a0 | a1)"): "e9a2b902c9ff00c6a287ec1858aade88b462a6dd007a728c13f231a7d99305d3",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & [](a0 | a1 | a2)"): "7e8acf1c86aec22be8a8a811fe2aad4de82d154d47321d39f1a27d1929b496ff",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & [](a0 | a1 | a2 | a3)"): "f16279371eeebc5b578bce51d7d68ee4a8aaa8ca9221abd462b6151b7abc6169",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & [](a0 | a1 | a2 | a3 | a4)"): "62e3cf1488acc2becfeccd6b9150f06e44e55df14c471e15ff1e8098e6a33f61",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & [](a0 | a1 | a2 | a3 | a4 | a5)"): "bc953829261d90f612b63c77fb08a5095fe4465877724a1d7b3acffabc9521e7",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "1e7ee79b629db8c5998ad0e1dd7a25437c5365c4a9f1dd3a532e29bda8e8dc21",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "25efc43b5882d39c5a62a15c44bca61abd4e639ad6b779e96589a9f3b8314bab",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & ~[]a8 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "de4fe1f7bdda95c41a5517addb261df57c93a71923edee0933e07f6d7719d801",
    ("KD", "~[]a0 & ~[]a1 & [](a0 | a1)"): "0f0a928f3fac1ed59906213c65666f737f0e1d6d77768f79104b26edbb664670",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & [](a0 | a1 | a2)"): "bef92776c5f621f76a6086f3650b6b9c2426c745facb752688b88784d165d7b7",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & [](a0 | a1 | a2 | a3)"): "79c995acd5a33ec809e51e2eb6c9ce2ff51d320569e10ff6db665dd33e87879e",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & [](a0 | a1 | a2 | a3 | a4)"): "75805383d972184ec14294258c0ecf6f1ccf68be8dcbde524ca5a70d033f3507",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & [](a0 | a1 | a2 | a3 | a4 | a5)"): "3f441a2284f179a310a285cb031b2199e1a63061a22d1372bf06378b0b3f50c6",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "6582a06fd0f72d07328b58afeb9affdb7375b22c6409f592e470164d79f3287c",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "82593d87991eb8b6877a019056bb6186dcb0940f37a5c65fe32bfdc55f30d774",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & ~[]a8 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "463483195675df6e1858cbdbc5db6e394548ee5f55456690f71d8a34d2d483f1",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & [C 1,2,3](a0 | a1)"): "ac7ee443207fc487e4e2af18052445f59dbafdf0271aafa0c1cc379b410255e9",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & [C 1,2,3](a0 | a1 | a2)"): "fbeaaa2ccbae2a857aec853fa326cf3f992c7cca306b5b6d77da188115aeb2eb",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & [C 1,2,3](a0 | a1 | a2 | a3)"): "868b03be9c4daf95e01b321ae23745a15dc112e368c41a1c52505d9c0e7e53fc",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & [C 1,2,3](a0 | a1 | a2 | a3 | a4)"): "015c37d579586538d78a94a00fc66e58ca1760ae5dd33cd5a24d7c684b55e05d",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5)"): "3a1de4f09f9293c271dab263a5c01a1384f801a09e5de67da6d8dc9ab9a0efe9",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "0046cbcefab33216f0f8880d30558e145f90020c5bf418ebee201dbcb25c74df",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & ~[C 1]a7 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "2c1344b6a87653a5eaba0bc5b19a8fff6132d3b0b18cf5928bfbd1d2b84302cf",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & ~[C 1]a7 & ~[C 1]a8 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "cf9c0a3b676f40fc10582289943ed7518fc852f5a6a57cd5fa5bcd54d096dda1",
    ("K", "a0 & ~a1 & ~[]ab & []ac"): "d8372fbe223e2574fe1665e3698ea6ff3a0fb61fa5907a0650fb7835cba5bdee",
    ("K", "a0 & ~a1 & a2 & ~[]ab & []ac"): "13b940856199cd6618d555bd4fa463b2c76320302b459aa390b70c62414665ff",
    ("K", "a0 & ~a1 & a2 & ~a3 & ~[]ab & []ac"): "3c5550e92fcf64acf82312a09e77f0bc1cfa5bd3923bbcb75bcd117989004c7c",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~[]ab & []ac"): "19cbf2fb3b102ba6c31385403970957d1f08b0b168e51843f5ad602b9cf03e11",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & ~[]ab & []ac"): "e6382a6f244b55c5172e49d9ead652c6b300f8d9bf1ffdd55a0602f96958d6bc",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~[]ab & []ac"): "2979fb4604f1950c4c843f61fd172fbc7ab3c24b3c870f5cacbfa7c9ee886333",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & ~[]ab & []ac"): "2e9f2d950b7577920a490764b90e019b8a428e719f9326c39e46dce83f305b64",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & a8 & ~[]ab & []ac"): "e384127923663168ec283a94db3e1dd56a30e5d5f114a318bd2debc04be6503f",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & a8 & ~a9 & ~[]ab & []ac"): "47d1b166115ec68324455c888693956630e66e296d1319bfd7683afc613c6ed6",
    ("GML", "<0>a0 & <1>a1 & ~<2>(a0 | a1)"): "6df3e947d8fca6506142cdee0284a8ed570540664d37543ea798b8d90890f383",
    ("GML", "<0>a0 & <1>a1 & <2>a2 & ~<3>(a0 | a1 | a2)"): "fb4aba33a8b030dbcbb26ddb00306d4224f25a075e73c8f2767861260d8de738",
    ("GML", "<0>a0 & <1>a1 & <2>a2 & <3>a3 & ~<4>(a0 | a1 | a2 | a3)"): "97bf3df4eb7e01b816cc15e625b8fb66a108cbf004a2e745a96775377612c028",
    ("GML", "<0>a0 & <1>a1 & <2>a2 & <3>a3 & <4>a4 & ~<5>(a0 | a1 | a2 | a3 | a4)"): "d124de7ee821737db406540192df146ab17a2e37278a178adc02d2ecece947a7",
    ("MAJ", "W a0 & W a1 & ~<0>(a0 & a1)"): "87d16f7aa34c3ecda5ad55dfd22c1451b708ba5d101768383b9c8c08a262cb7d",
    ("MAJ", "W a0 & W a1 & W a2 & ~<0>(a0 & a1 & a2)"): "ae2331a37227fd0e5602ef27614a33c03926654fe7c80c2d6f55a76c48bc1c42",
    ("MAJ", "W a0 & W a1 & W a2 & W a3 & ~<0>(a0 & a1 & a2 & a3)"): "a7455ee2a7f602b245cd5ff5c315e67ddd6e6886a66ff518cfcec5d981eb4687",
    ("PML", "L{1/2}a0 & L{1/2}a1 & ~L{1/1}(a0 | a1)"): "298ba1f1429f4526db499e27540456f08883306746afc0d39076832aa283fb33",
    ("PML", "L{1/3}a0 & L{1/3}a1 & L{1/3}a2 & ~L{1/1}(a0 | a1 | a2)"): "58490f260a2b6dc83dada44651266c09a48e909038455276f87246a39384afd5",
    ("PML", "L{1/4}a0 & L{1/4}a1 & L{1/4}a2 & L{1/4}a3 & ~L{1/1}(a0 | a1 | a2 | a3)"): "2c0610be7aec237e6b132783cb994977a2316d32405426963a1821fed5cd341e",
}


@pytest.mark.parametrize("spec,text", _family_cases())
def test_family_tableau_bytes_pinned(spec, text):
    cfg = parse_logic_spec(spec)
    f = parse(text, cfg.n_agents)
    verdict = satisfiable(f, cfg)
    assert verdict.satisfiable
    tb = extract_tableau(verdict, cfg)
    ok, msg = check_tableau(tb, f, cfg)
    assert ok, msg
    assert tableau_sha256(tb) == TABLEAU_SHA256[(spec, text)]


def _formula_texts(doc):
    """Every formula text a tableau or proof document writes, in order."""
    payload = doc["payload"]
    if doc["kind"] == "tableau":
        texts = [t for node in payload["nodes"] for t in node]
        rules = [e for e in payload["edges"] if "rule" in e]
    else:
        texts = [e["formula"] for e in payload["proofs"]]
        rules = [r for e in payload["proofs"] for r in e["rules"]]
    return texts + [t for r in rules for t in r["substitution"]]


@pytest.mark.parametrize("spec,text", [("K", _wide("[]", "[]", 9)), ("M", _m_validity(7))])
def test_writers_print_each_distinct_formula_once(spec, text, monkeypatch):
    cfg = parse_logic_spec(spec)
    f = parse(text, cfg.n_agents)
    if spec == "K":
        cert = extract_tableau(satisfiable(f, cfg), cfg)
    else:
        cert = extract_proof(satisfiable(neg_fold(f), cfg), f, cfg)
    printed = []

    def spy(g):
        printed.append(g)
        return pretty(g)

    # The writers print through ``certificates.pretty``; a literal printed
    # by ``pretty_literal`` would go through ``formula.pretty``.
    monkeypatch.setattr(certificates, "pretty", spy)
    monkeypatch.setattr(formula, "pretty", spy)
    texts = _formula_texts(certificate_to_json(cert))
    assert len(texts) > len(set(texts))  # the certificate repeats formulas
    assert len(printed) <= len(set(texts))


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
    # JSON true equals 1 in Python, but it is not the version number.
    for version in (99, True):
        doc = {"kind": "model", "version": version, "payload": {}}
        with pytest.raises(ValueError, match="unsupported certificate version"):
            certificate_from_json(doc, 2)
