"""Certificates: tableaux, models, proofs, and their JSON round-trips."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import proof_sha256, proof_within_subformulas, tableau_sha256
from test_logics import _mask_loop_challenges
from modalsat import certificates, cli, solver
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
from modalsat.formula import GDiamond, MajW, assignments, atom, modal, neg_fold, parse, pretty
from modalsat.logics import LogicConfig, challenges, parse_logic_spec
from modalsat.onestep import (
    RuleCode,
    RuleMatching,
    conclusion_clause,
    negated_clause_instance,
    premise_cnf_clauses,
)
from modalsat.oracle import brute_force_sat
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
            for gamma in premise_cnf_clauses(m.premise()):
                demand = negated_clause_instance(gamma, m.subst)
                if satisfiable(demand, cfg).satisfiable:
                    edges.append((0, m, len(nodes)))
                    nodes.append(next(assignments(demand)))
                    break
    return Tableau(0, nodes, edges)


@pytest.mark.parametrize("logic", ["K", "KD"])
def test_tableau_rejects_answers_to_dominated_clauses_only(logic):
    # Each box argument alone leaves room for ~(a0 & a1), so every clause
    # inside the maximal one has a satisfiable demand; only the maximal
    # clause's demand a0 & a1 & ~(a0 & a1) refutes the node.
    cfg = LogicConfig(logic=logic)
    f = parse("[]a0 & []a1 & ~[](a0 & a1)")
    assert not satisfiable(f, cfg).satisfiable
    tb = _dominated_forgery(f, cfg)
    assert len(tb.edges) >= 4
    ok, msg = check_tableau(tb, f, cfg)
    assert not ok
    assert msg == "unanswered challenge at node 0: the K rule refutes it"


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
                for gamma in premise_cnf_clauses(m.premise()):
                    demand = negated_clause_instance(gamma, m.subst)
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
    gamma = next(premise_cnf_clauses(m.premise()))
    demand = negated_clause_instance(gamma, m.subst)
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


def test_linear_challenge_leaves_out_operators_outside_the_logic(tmp_path, capsys):
    # An extra, unreachable node claims no pattern, so a GML rule refutes
    # its clause {~<1>b, <0>b}.  Its box literal belongs to no GML rule; had
    # the node's one linear system taken it in, the system would fit no
    # schema, no refuter would be found, and the forgery would check.
    cfg = LogicConfig(logic="GML")
    text = "<0>a"
    f = parse(text)
    tb = extract_tableau(satisfiable(f, cfg), cfg)
    assert check_tableau(tb, f, cfg) == (True, "ok") and len(tb.nodes) == 3
    tb.nodes.append(((True, parse("<1>b")), (False, parse("<0>b")), (True, parse("[] p"))))
    msg = "unanswered challenge at node 3: the GML rule refutes it"
    assert check_tableau(tb, f, cfg) == (False, msg)
    cert = tmp_path / "tableau.json"
    cert.write_text(json.dumps(tableau_to_json(tb)))
    assert cli.main(["--logic", "GML", "check-cert", text, "--cert", str(cert)]) == 1
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


def _exhaustive_weights(literals, insides, blocks, cap):
    """The first block weights in lexicographic order that give every
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
        got = _weight_search(literals, insides, dict.fromkeys(range(blocks), 0), 0, cap)
        assert got == _exhaustive_weights(literals, insides, blocks, cap), literals
        outcomes.append(got is not None)
    assert outcomes.count(True) >= 30 and outcomes.count(False) >= 30


def test_weight_search_walks_more_blocks_than_the_recursion_limit():
    # The root of ``gml_wide(10)`` has about 2^10 blocks.  Here only the
    # last of 2,000 blocks can make ``<0>v`` true, so the search sets every
    # block before it, past the default recursion limit of 1,000.
    blocks = 2000
    literals = [(True, modal(GDiamond(0), atom("v")))]
    insides = [{blocks - 1}]
    got = _weight_search(literals, insides, dict.fromkeys(range(blocks), 0), 0, MAX_WEIGHT)
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


@pytest.mark.parametrize(
    "tamper,message",
    [
        (_drop_m_rule, "entry %r: the rule conclusions do not entail the formula"),
        (_repeat_m_rule, "entry %r rule 4: repeats rule 3"),
        (_break_m_side_condition, "entry %r rule 3: rule code fails its side condition"),
        (_name_another_logic, "entry %r rule 3: rule code is for logic 'K', not M"),
        (_conclude_off_the_formula, "entry %r rule 3: conclusion literal '[] zz' is not on a modal atom of the formula"),
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
    ("K", "~[]a0 & ~[]a1 & [](a0 | a1)"): "80c458919a45cd87326602698a8d8cbea4a00ffed1c2f042a03d1822d35dda25",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & [](a0 | a1 | a2)"): "339824414737578930ca7e80a82c72df525d269bfdb97713141631371e2113bb",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & [](a0 | a1 | a2 | a3)"): "49197158b220d3615e18c7ce4976cd02e3e54ccf0775ad5a4bf4f9998fcfd6a4",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & [](a0 | a1 | a2 | a3 | a4)"): "4a2eb2a956305605b5615c62473f0c279177fa9ea23bb4b146e6c1a072cb9885",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & [](a0 | a1 | a2 | a3 | a4 | a5)"): "c07a4145e2fc91bbd2b882ec76ab2b7d012d42fb9b59d14a5a00581a84087f25",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "e035b1130886dd4d088fbb9c1cbd70f0543bc469d92dc61630fe8860a68d2b3c",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "d58a70834d5c31bc59216319d2f30bd2eb35551ee13503f06a19b8ada98a54d7",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & ~[]a8 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "a66d41232aacfedd61a1082eaca29684ace48fca586545b4221a785cd183cfaf",
    ("KD", "~[]a0 & ~[]a1 & [](a0 | a1)"): "9305c71f3ccbf603b72647ee198884de24da3053782899065a5c51ba84e0466a",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & [](a0 | a1 | a2)"): "6750b021a560cc60b7e0baf660c73c5cb454d7dc667173ab41711318f2e09ac1",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & [](a0 | a1 | a2 | a3)"): "b2368d6f5432392c484a503a27f2a89f44e4c23fb99993abaf63da27dc0373aa",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & [](a0 | a1 | a2 | a3 | a4)"): "0a0589bf684b787435fd2af1e505edeb419faf2ad8206d5e7e9a2ddbdc7dcdc2",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & [](a0 | a1 | a2 | a3 | a4 | a5)"): "d2ae482844c438687daf96cb1c3f82708bfaae9059e53fa979af0783d31155b3",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "1b78411c3484c29f919e87bc19104c42ab6e5cc671a4af325224fbc9d4f4c44b",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "57a82b5ae75bbc91901c586dcd75cca2cda652dd052a816c545efa51ead327f7",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & ~[]a8 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "ee776db22cbeb8b22979f4f766ccae9a0d56c3c90772f5b1d7011e9dec9e0599",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & [C 1,2,3](a0 | a1)"): "ac7ee443207fc487e4e2af18052445f59dbafdf0271aafa0c1cc379b410255e9",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & [C 1,2,3](a0 | a1 | a2)"): "fbeaaa2ccbae2a857aec853fa326cf3f992c7cca306b5b6d77da188115aeb2eb",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & [C 1,2,3](a0 | a1 | a2 | a3)"): "868b03be9c4daf95e01b321ae23745a15dc112e368c41a1c52505d9c0e7e53fc",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & [C 1,2,3](a0 | a1 | a2 | a3 | a4)"): "015c37d579586538d78a94a00fc66e58ca1760ae5dd33cd5a24d7c684b55e05d",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5)"): "3a1de4f09f9293c271dab263a5c01a1384f801a09e5de67da6d8dc9ab9a0efe9",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "0046cbcefab33216f0f8880d30558e145f90020c5bf418ebee201dbcb25c74df",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & ~[C 1]a7 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "2c1344b6a87653a5eaba0bc5b19a8fff6132d3b0b18cf5928bfbd1d2b84302cf",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & ~[C 1]a7 & ~[C 1]a8 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "cf9c0a3b676f40fc10582289943ed7518fc852f5a6a57cd5fa5bcd54d096dda1",
    ("K", "a0 & ~a1 & ~[]ab & []ac"): "289194cb56fca42425611ed95f9de44749aed3417758cd0429488a18dbc7cfc5",
    ("K", "a0 & ~a1 & a2 & ~[]ab & []ac"): "5d2aa9ad1b870a721a86169822d4671076db3eb1d48731cbfd68dbba1ee07398",
    ("K", "a0 & ~a1 & a2 & ~a3 & ~[]ab & []ac"): "cc9ad75f6cb022ef4b0ecb1aed5a874378361b41b47f9ecba30acd162d9d8f12",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~[]ab & []ac"): "3d77516f8bf617d46c58a6fce0f935d397b906dab3a2e6fa3b878da397f89ec6",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & ~[]ab & []ac"): "1340e30d0702ce7f6c9e17cf82811f64b4044d364e079e5cda9c0bd21b6daacc",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~[]ab & []ac"): "7da0e12a4c5633df6ea368a9a41cc980448bd85e2ed151dd62a9172809cb4c6b",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & ~[]ab & []ac"): "9fb7de380bdb70cbfc4a5627883cdda4df89993b1b33505db9e4b7dd02c247cc",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & a8 & ~[]ab & []ac"): "90fa4dc1df72b04caa443e0cf9700bcf274bdfa9951ccef2d91f1114685eca78",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & a8 & ~a9 & ~[]ab & []ac"): "c9c8431f74382a0fa0378e165122aff20644831d55608228400da7853fa1f819",
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
