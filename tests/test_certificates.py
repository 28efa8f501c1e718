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
from modalsat.formula import GDiamond, MajW, assignments, atom, cnf_clauses, modal, neg_fold, parse
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
    ("K", "[](a -> b) -> ([]a -> []b)"): "be3199b5b9e37e779aff79893a84a0dd782d909d71faf559b14ab8db6c4bfd22",
    ("KD", "~ [] false"): "7f928203d9b0604bb17ad9794e9dd7dc3b6075e4f35155306ed757976c4b4154",
    ("E", "[]a -> []a"): "5d09356ddc0ddbeb65899d42918ba71c401d7d58a137849faff7bc26efe3ba5b",
    ("M", "[](a & b) -> []a"): "f3a7566e984d4522e5bb187ca7ccc01dad4af3588a7ad857b524355eac5c3238",
    ("GML", "<1>a -> <0>a"): "d6effa08132b098ce808359f504563c56f3b8ef8ff2da73423d10c2df2c0603f",
    ("MAJ", "W a | W ~a"): "e0eccebecc08c51f0f29a525940bb0d714b38ad4e8314d1d898813e8634c51de",
    ("PML", "L{0/1} a"): "f5a1ebbb562cab7ac0fae5e0a5d6fb7faf985981c9858a535412897cb6e4fc3a",
    ("COAL", "([C 1]a & [C 2]b) -> [C 1,2](a & b)"): "0fecd0a0d2802e5c566972c85d0b4966188158e30be2cd608352bd4bde9aec39",
    ("K", "~~([]a -> []a)"): "dedf6c4d483edfd148a77c61c392baf4af8ae28760200485622c8ae3c3761cb0",
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
    # A dead end satisfies [] false; a serial state does not.
    assert model_check(w, 1, parse("[]false"))
    w.succ[1] = (1,)
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
        weights={0: {1: 2, 2: 1}, 1: {}, 2: {}},
    )
    assert model_check(w, 0, parse("<1>a"))
    assert not model_check(w, 0, parse("<2>a"))
    assert model_check(w, 0, parse("W a"))  # 2 of 3 successors
    assert not model_check(w, 0, parse("W ~a"))
    assert model_check(w, 1, parse("W a & W ~a & ~<0>(a | ~a)"))  # no successors
    w.weights[0] = {1: 1, 2: 1}
    assert model_check(w, 0, parse("W a & W ~a"))  # a tie


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
    assert model_check(w, 0, parse("L{1/3}~a"))  # mass exactly 1/3


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
        games={
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
        ModelWitness(kind="kripke", root=0, states=[0], labels={}, serial=True, succ={0: ()}),
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
            dist={0: {1: Fraction(1), 2: Fraction(1)}, 1: {1: Fraction(1)}, 2: {2: Fraction(1)}},
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
            neigh={0: (frozenset({0}),), 1: ()},
        ),
    ),
    # A root that is not a state.
    (
        "K",
        "[]a & ~a",
        ModelWitness(kind="kripke", root=5, states=[0], labels={}, succ={0: ()}),
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
            weights={0: {1: 1, 2: -1}},
        ),
    ),
    # A successor outside the states.
    (
        "K",
        "~[]a",
        ModelWitness(kind="kripke", root=0, states=[0], labels={}, succ={0: (3,)}),
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
            games={0: ((2, 1), {(0, 0): 1}), 1: ((1, 1), {(0, 0): 1})},
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
        neigh={0: (frozenset({0}), frozenset({0, 1})), 1: ()},
    )
    assert validate_structure(w, LogicConfig(logic="M")) == (True, "ok")
    assert check_certificate(w, parse("[](a & b) & []a"), LogicConfig(logic="M"))[0]
    # Without the seriality flag a serial model is still a KD model.
    w = ModelWitness(kind="kripke", root=0, states=[0], labels={}, succ={0: (0,)})
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
                    edges.append((0, ("rule", clause, m.code, m.subst, gamma), len(nodes)))
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
        for clause, cands in challenges(valuation, cfg, set()):
            for m in cands:
                for gamma in premise_cnf_clauses(m.premise()):
                    demand = negated_clause_instance(gamma, m.subst)
                    if satisfiable(demand, cfg).satisfiable:
                        edges.append((0, ("rule", clause, m.code, m.subst, gamma), len(nodes)))
                        nodes.append(next(assignments(demand)))
                        break
        ok, msg = check_tableau(Tableau(0, nodes, edges), f, cfg)
        assert not ok
        assert ("answers a linear" if edges else "refutes") in msg, msg


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
    tb.edges.append((src, ("rule", clause, m.code, m.subst, gamma), src + 1))
    msg = "edge %d: rule uses an operator outside the logic" % (len(tb.edges) - 1)
    assert check_tableau(tb, f, cfg) == (False, msg)
    cert = tmp_path / "tableau.json"
    cert.write_text(json.dumps(tableau_to_json(tb)))
    assert cli.main(["--logic", "K", "check-cert", text, "--cert", str(cert)]) == 1
    assert msg in capsys.readouterr().out


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
    assert model_check(w2, w2.root, f)
    assert check_certificate(w2, f, cfg) == (True, "ok")


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
    rule = payload["payload"]["proofs"][0]["clauses"][0]["rule"]
    assert rule["grades"]
    rule["grades"] = [g + 5 for g in rule["grades"]]
    ok, msg = check_proof(proof_from_json(payload, cfg.n_agents), goal, cfg)
    assert not ok
    assert msg.startswith("entry '~(<1> a & ~<0> a)' clause 0: "), msg


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
    return _entries(payload)[1]["clauses"][0]


def _set_inner_ints(payload):
    _inner_rule(payload)["rule"]["ints"] = [1, -1, 1]


def _set_inner_substitution(payload):
    _inner_rule(payload)["substitution"] = ["~(a & ~b)", "a", "c"]


def _set_inner_coalition_rule(payload):
    _inner_rule(payload)["rule"] = {"logic": "K", "scheme": "CONG", "ints": [-1, 1], "coalitions": [[1]]}


def _drop_inner_rules(payload):
    _entries(payload)[1]["clauses"] = []


def _repeat_inner_rule(payload):
    _entries(payload)[1]["clauses"].append(_inner_rule(payload))


def _drop_root_rules(payload):
    _entries(payload)[0]["clauses"] = []


def _drop_leaf_entry(payload):
    del _entries(payload)[2]


def _drop_goal_entry(payload):
    del _entries(payload)[0]


def _add_unused_entry(payload):
    # A propositional validity: its entry would check, but nothing demands it.
    _entries(payload).append({"formula": "~(p & ~p)", "clauses": []})


@pytest.mark.parametrize(
    "tamper,message",
    [
        (_set_inner_ints, "entry '%s' clause 0: rule code fails its side condition" % _INNER_ENTRY),
        (_set_inner_substitution, "entry '%s' clause 0: rule conclusion does not entail the clause" % _INNER_ENTRY),
        (_set_inner_coalition_rule, "entry '%s' clause 0: rule uses an operator outside the logic" % _INNER_ENTRY),
        (_drop_inner_rules, "entry '%s': 0 rules for 1 CNF clauses" % _INNER_ENTRY),
        (_repeat_inner_rule, "entry '%s': 2 rules for 1 CNF clauses" % _INNER_ENTRY),
        (_drop_root_rules, "entry '%s': 0 rules for 1 CNF clauses" % _GOAL_ENTRY),
        (_drop_leaf_entry, "no entry for '%s', which '%s' clause 0 demands" % (_LEAF_ENTRY, _INNER_ENTRY)),
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
    assert entries[1] == {"formula": "~(~(a & ~b) & a & ~b)", "clauses": []}
    entries.append({"formula": "~((a -> b) & a & ~b)", "clauses": []})
    with pytest.raises(ValueError, match="malformed certificate: .*two proof entries for '~\\(~\\(a & ~b\\) & a & ~b\\)'"):
        certificate_from_json(payload, cfg.n_agents)


def _m_validity(n):
    """``m_validity(n)`` of the benchmark corpus: ``[](a0 & ...) -> []a0 & ...``."""
    xs = ["a%d" % i for i in range(n)]
    return "[](%s) -> %s" % (" & ".join(xs), " & ".join("[]" + x for x in xs))


def test_check_proof_recomputes_each_cnf_once(monkeypatch):
    # 8 distinct formulas, which a proof written as a tree repeats 128 times.
    goal = parse(_m_validity(7))
    cfg = LogicConfig(logic="M")
    doc = extract_proof(satisfiable(neg_fold(goal), cfg), goal, cfg)
    assert len(doc) == 8
    calls = []

    def counted(f):
        calls.append(f)
        return cnf_clauses(f)

    monkeypatch.setattr(certificates, "cnf_clauses", counted)
    assert check_proof(doc, goal, cfg) == (True, "ok")
    assert sorted(map(id, calls)) == sorted(map(id, doc))


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
    ("K", "~[]a0 & ~[]a1 & [](a0 | a1)"): "72dda3824d60d9b498edf3ce601c1b1b5f48c196c9db943f54f9b424ead433ed",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & [](a0 | a1 | a2)"): "5bd3c8e2027677c7bb4af8b4d440687314c6489bd50bfafa0d0ada81e01db642",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & [](a0 | a1 | a2 | a3)"): "50933c26a457f844da84ee161293b1a9b89144843da4de9ffe4de7e9e2af0d4f",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & [](a0 | a1 | a2 | a3 | a4)"): "dad0242d382d18fed47b600703ed9555b5849361613ce282691af682f550a172",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & [](a0 | a1 | a2 | a3 | a4 | a5)"): "7df626a7b9eef92f430340c2488af52c3d08d9715f20bc0121b32b3dcf28fc74",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "a0a2737c5d61de16f0f3f13c00559b3ea1aa2d3da7e8ac98fd51d8eac14fd6c4",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "7259a4db72d854702b8838e2c4f970cffbe4c9e5e3ece3ca8480f8acfcd4b8f4",
    ("K", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & ~[]a8 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "13537f750a6c1f80ce0fa66dece9b87ddd2a8817ddea7389094bd9f33c147362",
    ("KD", "~[]a0 & ~[]a1 & [](a0 | a1)"): "0db3359b754190c428c13358e3f1d5892488cf95b01ca4dc71cd233e2e5c1157",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & [](a0 | a1 | a2)"): "9b43330ec4abc57e7206cfaec541dc4d11c4d2338ec831e169fca9d899b15321",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & [](a0 | a1 | a2 | a3)"): "2bb7b5116737e78ce91f384332771b218b90201c35e4657b1b407fd76cbfcb63",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & [](a0 | a1 | a2 | a3 | a4)"): "c38f9a5775fa55305d54099a98901786399fa35a45fde084779c69a389188b37",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & [](a0 | a1 | a2 | a3 | a4 | a5)"): "1d4a214809d01e0db723411a5b5546b3f36a28b254b08b628f6763b888ca4277",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "c97452575b6eedba45a597cbd0a28b6e7100419a8a20624b5eb19722365a2135",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "177d0d68f4f6be23fc5a8eb44cee9291b1fb24d348a33acfb3aa4180e55e6656",
    ("KD", "~[]a0 & ~[]a1 & ~[]a2 & ~[]a3 & ~[]a4 & ~[]a5 & ~[]a6 & ~[]a7 & ~[]a8 & [](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "e6d8600a08c8a936a50391670b5fa30ef1d0b5688d1a88da03d49badfabd211d",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & [C 1,2,3](a0 | a1)"): "7c7c8bdd7ef3403311ab23f8e48c37bbf2856ea465a9d477356fcf8ba846140a",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & [C 1,2,3](a0 | a1 | a2)"): "fd0a68e3dfdaff3e4fe26d532cfe55da3971aa94250f95f49c4d6979f932e643",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & [C 1,2,3](a0 | a1 | a2 | a3)"): "4d5dc45f2b9dd06c2c9d66520d0de2538ef63a173c13e9b67a54456a0ba35d97",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & [C 1,2,3](a0 | a1 | a2 | a3 | a4)"): "f46ba5d678e5a8f5f8451b2205fa38cbae7f4e196a1f0ed44b3f70304a858427",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5)"): "3b3a28cf81d8ee3ebbb4ee3df01658d79c77edfb8c2189d327b3b7e8ebb67683",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6)"): "ba349ffa074f3dbe74974049862df16675d8fa077d72689756c3883a2c6af9a5",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & ~[C 1]a7 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7)"): "6b22f16729ff82c93a353883471355cad6890fe2cfaa233caa6dbe617ae7edcd",
    ("COAL:3", "~[C 1]a0 & ~[C 1]a1 & ~[C 1]a2 & ~[C 1]a3 & ~[C 1]a4 & ~[C 1]a5 & ~[C 1]a6 & ~[C 1]a7 & ~[C 1]a8 & [C 1,2,3](a0 | a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)"): "48f868f833c432d4c9c07058aff53249c7aef68a7185a2bbda745d785d4cdfcc",
    ("K", "a0 & ~a1 & ~[]ab & []ac"): "c643a6caf93311402bee16978f7f44e5ccc89294687d3eeb1bad6b2c7159cc6a",
    ("K", "a0 & ~a1 & a2 & ~[]ab & []ac"): "984a6f10f571f07b976fa4d640add883dfb1743c62acb895277fb1d6f9519db1",
    ("K", "a0 & ~a1 & a2 & ~a3 & ~[]ab & []ac"): "6fe28903847e5cff25c022dc2a18bb00abf6e831fc10e3ceaf62e895aa3ad6f7",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~[]ab & []ac"): "32ae36aa78af5b4cd1d1fbda4123e9eae598070363d60a625f1bd9408b833837",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & ~[]ab & []ac"): "90ad0a16bc106404b08a1ec705be5cfec4396f9a1b62aefadfed320a4e109cd4",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~[]ab & []ac"): "b3119c1d7c4aa5a2f62e93d326c5613607f402f5cddb53f662c2b7f360dc1973",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & ~[]ab & []ac"): "30ae69e363e6395050d12e190da27bd07d82458a95efc9b5aac33f34cf20230a",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & a8 & ~[]ab & []ac"): "d036cc21ec18d9b8cebceea81143df2d44156afa4d31113b939e5e1bbc5544d7",
    ("K", "a0 & ~a1 & a2 & ~a3 & a4 & ~a5 & a6 & ~a7 & a8 & ~a9 & ~[]ab & []ac"): "3adf64aad0a43a7dfdd99950889d933051de7aaa7c957b6a3f5ae1509c720950",
    ("GML", "<0>a0 & <1>a1 & ~<2>(a0 | a1)"): "6652ad5f8be88b7ed8e4cb49c77ca2acf59e93e1454585bcf9aba40b30d1b74c",
    ("GML", "<0>a0 & <1>a1 & <2>a2 & ~<3>(a0 | a1 | a2)"): "11348a789eb4a8669319c71a574da6be9f7cfa80476529552b6d04f690925baf",
    ("GML", "<0>a0 & <1>a1 & <2>a2 & <3>a3 & ~<4>(a0 | a1 | a2 | a3)"): "b37ae2f28751f9dae642d360aa0c14d491a16c3705093ffa8ee6775ea924a1c2",
    ("GML", "<0>a0 & <1>a1 & <2>a2 & <3>a3 & <4>a4 & ~<5>(a0 | a1 | a2 | a3 | a4)"): "b6a60c33e34fc8a9e87a110816631a003cc4658c680bd3423178c1026767d6f1",
    ("MAJ", "W a0 & W a1 & ~<0>(a0 & a1)"): "13b1191426ddba4450ef1db1f4043b18e7da4ac620e1af852afcdef32fe30b5c",
    ("MAJ", "W a0 & W a1 & W a2 & ~<0>(a0 & a1 & a2)"): "7013a4f4dff6476987e5b8056bfb066ecdb2bd0cdba392cd87ecc0a551fe69ea",
    ("MAJ", "W a0 & W a1 & W a2 & W a3 & ~<0>(a0 & a1 & a2 & a3)"): "ceaa38217bdac429ea66267d8eb2353c80b9db3e7e9183650d3cbe090a297f02",
    ("PML", "L{1/2}a0 & L{1/2}a1 & ~L{1/1}(a0 | a1)"): "144283d072aa1ad1312446bd99f81401d44108a9a903dee429a34e882042b1ae",
    ("PML", "L{1/3}a0 & L{1/3}a1 & L{1/3}a2 & ~L{1/1}(a0 | a1 | a2)"): "f416a6a0c3779ff8035ec3ee1c3dbd7d491cabf315e00c3fe830f3cf9edff4aa",
    ("PML", "L{1/4}a0 & L{1/4}a1 & L{1/4}a2 & L{1/4}a3 & ~L{1/1}(a0 | a1 | a2 | a3)"): "9478f7bab2b9146c09f279096beca93f6a157acd34f4b940fce310d45a5b3461",
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
