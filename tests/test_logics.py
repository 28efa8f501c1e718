"""Logic configurations, schema matchings, side conditions, and the
coefficient search for the linear logics."""

import random
from fractions import Fraction

import pytest

from conftest import ALL_LOGICS
from modalsat import certificates, linarith, logics, oracle, solver
from modalsat.certificates import check_proof, check_tableau, extract_proof, extract_tableau
from modalsat.formula import Atom, Box, FModal, conj_fold, modal, neg, parse, subformulas
from modalsat.logics import (
    LogicConfig,
    challenges,
    clause_patterns,
    matchings,
    node_refutable,
    operator_legal,
    parse_logic_spec,
    refuting_matching_exists,
    side_condition,
    validate_formula,
)
from modalsat.onestep import RuleCode, conclusion_clause, congruence_matchings
from modalsat.sampling import random_formula
from modalsat.oracle import one_step_sound
from test_solver import LINEAR_WIDTH_8


def test_parse_logic_spec():
    assert parse_logic_spec("K").logic == "K"
    cfg = parse_logic_spec("COAL:3")
    assert cfg.logic == "COAL" and cfg.n_agents == 3
    with pytest.raises(ValueError):
        parse_logic_spec("COAL:x")
    with pytest.raises(ValueError):
        parse_logic_spec("S5")


def test_operator_validation():
    with pytest.raises(ValueError):
        validate_formula(parse("<1>a", 2), LogicConfig(logic="K"))
    with pytest.raises(ValueError):
        validate_formula(parse("[]a"), LogicConfig(logic="PML"))
    validate_formula(parse("<1>a & W b"), LogicConfig(logic="MAJ"))
    with pytest.raises(ValueError):
        validate_formula(parse("[C 1,2]a & []b", 2), LogicConfig(logic="COAL"))


# -- schema matchings ---------------------------------------------------------


def _clause(texts_and_signs, n_agents=2):
    return tuple((s, parse(t, n_agents)) for (s, t) in texts_and_signs)


def test_k_matching_exactly_one_positive():
    clause = _clause([(True, "[]a"), (False, "[]b"), (False, "[]c")])
    ms = [m for m in matchings(clause, LogicConfig(logic="K")) if m.code.scheme == "K"]
    assert len(ms) == 1
    assert conclusion_clause(ms[0], 2) == clause
    # All-negative: no K matching.
    neg_clause = _clause([(False, "[]a"), (False, "[]b")])
    assert [
        m for m in matchings(neg_clause, LogicConfig(logic="K")) if m.code.scheme == "K"
    ] == []


def test_kd_matches_all_negative_clauses():
    neg_clause = _clause([(False, "[]a"), (False, "[]b")])
    schemes = {m.code.scheme for m in matchings(neg_clause, LogicConfig(logic="KD"))}
    assert "KD" in schemes


def test_m_matching_two_literals_mixed_signs():
    cfg = LogicConfig(logic="M")
    clause = _clause([(True, "[]a"), (False, "[]b")])
    schemes = {m.code.scheme for m in matchings(clause, cfg)}
    assert "M" in schemes
    same_sign = _clause([(True, "[]a"), (True, "[]b")])
    assert {m.code.scheme for m in matchings(same_sign, cfg)} <= {"CONG"}


def test_e_has_congruence_only():
    cfg = LogicConfig(logic="E")
    clause = _clause([(True, "[]a"), (False, "[]b")])
    assert {m.code.scheme for m in matchings(clause, cfg)} == {"CONG"}


def test_coal_negative_schema_needs_disjoint_coalitions():
    cfg = LogicConfig(logic="COAL")
    disjoint = _clause([(False, "[C 1]a"), (False, "[C 2]b")])
    assert any(m.code.scheme == "COAL1" for m in matchings(disjoint, cfg))
    overlapping = _clause([(False, "[C 1]a"), (False, "[C 1,2]b")])
    assert not any(m.code.scheme == "COAL1" for m in matchings(overlapping, cfg))


def test_coal_positive_schema_distinguished_and_grand():
    cfg = LogicConfig(logic="COAL")
    # One non-grand positive: it is the distinguished literal.
    clause = _clause([(True, "[C 1]a"), (False, "[C 1]b")])
    ms = [m for m in matchings(clause, cfg) if m.code.scheme == "COAL4"]
    assert len(ms) == 1
    # Two non-grand positives: no matching.
    clause2 = _clause([(True, "[C 1]a"), (True, "[C 2]b")])
    assert [m for m in matchings(clause2, cfg) if m.code.scheme == "COAL4"] == []
    # Grand-coalition extra positives are allowed.
    clause3 = _clause([(True, "[C 1]a"), (True, "[C 1,2]b"), (False, "[C 1]c")])
    assert any(m.code.scheme == "COAL4" for m in matchings(clause3, cfg))
    # Negative coalition not inside the distinguished one: no matching.
    clause4 = _clause([(True, "[C 1]a"), (False, "[C 2]b")])
    assert [m for m in matchings(clause4, cfg) if m.code.scheme == "COAL4"] == []


# -- side conditions ----------------------------------------------------------


def test_gml_side_condition():
    cfg = LogicConfig(logic="GML")
    # +<2>p with coefficient 1, -<1>q with coefficient -1:
    # negatives contribute (k+1) = 2, positives require 1 + 2 = 3 -> fails.
    bad = RuleCode("GML", "GML", (1, -1, 0), (), (2, 1), ())
    assert not side_condition(bad, cfg)
    good = RuleCode("GML", "GML", (1, -1, 0), (), (1, 1), ())
    assert side_condition(good, cfg)
    assert one_step_sound(good, cfg, max_carrier=2)
    assert not one_step_sound(bad, cfg, max_carrier=2)


def test_pml_side_condition_strictness():
    cfg = LogicConfig(logic="PML")
    half = Fraction(1, 2)
    # Two negatives with p+q > 1 (the (>1) pattern): sum r*p = -4/3 <= t
    # must hold strictly for all-negative codes.
    code = RuleCode("PML", "PML", (-1, -1, -1), (Fraction(2, 3), Fraction(2, 3)), (), ())
    assert side_condition(code, cfg)
    assert one_step_sound(code, cfg, max_carrier=2)
    # p+q = 1 fails the strict version.
    code2 = RuleCode("PML", "PML", (-1, -1, -1), (half, half), (), ())
    assert not side_condition(code2, cfg)


def test_maj_side_condition_gates_soundness():
    cfg = LogicConfig(logic="MAJ")
    # W-literal pair, one positive one negative (grade marker -1).
    code = RuleCode("MAJ", "MAJ", (1, -1, 0), (), (-1, -1), ())
    assert side_condition(code, cfg) == one_step_sound(code, cfg, max_carrier=2)


# -- refuting coefficient search ----------------------------------------------


def test_refuting_search_finds_gml_monotonicity():
    cfg = LogicConfig(logic="GML")
    clause = _clause([(True, "<1>p"), (False, "<2>p")])
    # Satisfiable argument patterns: arguments equal, so both-or-neither:
    # bits 00 and 11.
    m, caveat = refuting_matching_exists(clause, {0b00, 0b11}, cfg)
    assert m is not None and not caveat
    assert side_condition(m.code, cfg)
    assert one_step_sound(m.code, cfg, max_carrier=2)


def test_refuting_search_respects_satisfiable_patterns():
    cfg = LogicConfig(logic="GML")
    clause = _clause([(True, "<1>p"), (False, "<0>q")])
    # With all argument patterns satisfiable there is no refutation:
    # ~<1>p & <0>q is satisfiable.
    m, caveat = refuting_matching_exists(clause, {0, 1, 2, 3}, cfg)
    assert m is None and not caveat


def test_refuting_search_pml():
    cfg = LogicConfig(logic="PML")
    clause = _clause([(False, "L{2/3}p"), (False, "L{2/3}q")])
    # p and q disjoint (pattern 11 unsatisfiable): probabilities of p and q
    # cannot both reach 2/3, so the all-negative clause is refutable.
    m, caveat = refuting_matching_exists(clause, {0b00, 0b01, 0b10}, cfg)
    assert m is not None and not caveat
    assert one_step_sound(m.code, cfg, max_carrier=2)


def test_refuting_search_requires_proper_patterns():
    cfg = LogicConfig(logic="PML")
    clause = _clause([(False, "L{1/3}p"), (False, "L{1/3}q")])
    # 1/3 + 1/3 < 1: both can fail together; no refutation.
    m, caveat = refuting_matching_exists(clause, {0b01, 0b10, 0b11}, cfg)
    assert m is None and not caveat


def test_refuting_search_found_by_fallback_has_no_caveat():
    clause = _clause(
        [(False, "<0>a0"), (False, "<0>a1"), (False, "<0>a2"), (False, "<0>a3"), (True, "<0>a4")]
    )
    # Five literals are past the small search, so the exact search finds the
    # matching.  A found matching is checked, so no caveat is due.
    m, caveat = refuting_matching_exists(clause, {0, 0b11111}, LogicConfig("GML"))
    assert m is not None and m.code.ints == (-1, -1, -1, -1, 4, 0)
    assert not caveat


# -- challenge generation -----------------------------------------------------


def _mask_loop_challenges(valuation, cfg, sat_bits):
    """The challenge loop ``challenges`` replaces: every one of the 2^q
    sub-clauses, kept when a finite schema matches it or, in the linear
    logics, when it is made of proper modal atoms only and has a congruence
    matching or a refuting matching against the projected patterns."""
    proper = [a for _, a in valuation if isinstance(a, FModal) and not isinstance(a.op, Atom)]
    sat_list = sorted(sat_bits)
    # Per clause mask, every pattern projected onto the clause: the clause's
    # last literal adds one bit to the projections of the mask without it.
    projected = {0: [0] * len(sat_list)}
    out = []
    for mask in range(1, 1 << len(valuation)):
        clause = tuple(
            (not s, a) for i, (s, a) in enumerate(valuation) if mask >> i & 1
        )
        if cfg.is_arithmetic():
            if not all(a in proper for _, a in clause):
                continue
            found = congruence_matchings(clause, cfg.logic)
            top = mask.bit_length() - 1
            ai, ci = proper.index(valuation[top][1]), len(clause) - 1
            projected[mask] = [
                p | (bits >> ai & 1) << ci
                for p, bits in zip(projected[mask ^ 1 << top], sat_list)
            ]
            refuter, _ = logics.refuting_matching_exists(clause, set(projected[mask]), cfg)
            if refuter is not None:
                found.append(refuter)
        else:
            found = matchings(clause, cfg)
        if found:
            out.append((clause, found))
    return out


def _maximal_challenges(challenged):
    """The challenges whose clause no other challenge's clause strictly
    contains: the ones ``challenges`` asks in K and KD."""
    clauses = [set(clause) for clause, _ in challenged]
    return [
        (clause, found)
        for clause, found in challenged
        if not any(set(clause) < other for other in clauses)
    ]


def _fake_refuter(clause, sat_patterns, cfg):
    """A cheap stand-in for the exact search: it finds a refuter for about two
    pattern sets in three, and the refuter records its clause and patterns."""
    if sum(sat_patterns) % 3 == 0:
        return None, False
    return ("refuter", clause, frozenset(sat_patterns)), False


CHALLENGE_CONFIGS = [LogicConfig(logic=lg) for lg in ALL_LOGICS if lg != "COAL"] + [
    LogicConfig(logic="COAL", n_agents=k) for k in (1, 2, 3)
]


@pytest.mark.parametrize("cfg", CHALLENGE_CONFIGS, ids=lambda c: "%s:%d" % (c.logic, c.n_agents))
def test_challenges_match_mask_loop(cfg, monkeypatch):
    # The real search is exact but slow over thousands of clauses; both sides
    # read the same fake, so this compares enumeration and projection only.
    # The gate would answer for the real search, so it is opened everywhere.
    monkeypatch.setattr(logics, "refuting_matching_exists", _fake_refuter)
    monkeypatch.setattr(logics, "node_refutable", lambda valuation, sat_bits, cfg: True)
    rng = random.Random(4242)
    # Modal atoms at every level of random formulas, propositional ones
    # included, with every operator the sampler draws for the logic.
    pool = []
    for _ in range(40):
        f = random_formula(rng, cfg, max_depth=2, size_budget=14)
        pool += [g for g in subformulas(f) if isinstance(g, FModal) and g not in pool]
    nontrivial = 0
    for _ in range(250):
        atoms = rng.sample(pool, rng.randint(1, min(8, len(pool))))
        valuation = tuple((rng.random() < 0.5, a) for a in atoms)
        n_proper = sum(not isinstance(a.op, Atom) for a in atoms)
        sat_bits = {bits for bits in range(1 << n_proper) if rng.random() < 0.5}
        expected = _mask_loop_challenges(valuation, cfg, sat_bits)
        if cfg.logic in ("K", "KD"):
            # Every other clause is dominated; see ``challenges``.
            expected = _maximal_challenges(expected)
        assert list(challenges(valuation, cfg, sat_bits)) == expected, valuation
        nontrivial += bool(expected)
    assert nontrivial >= 50


@pytest.mark.parametrize("logic", ["K", "KD"])
def test_maximal_clauses_keep_every_verdict(logic, monkeypatch):
    # Asking only the maximal clauses decides every formula as asking every
    # clause a K or KD rule matches does, and refuted formulas still get
    # proofs that check.  Conjunctions of boxes and diamonds put several of
    # each at one node, which random formulas seldom do.
    cfg = LogicConfig(logic=logic)
    rng = random.Random(7)
    formulas = []
    for _ in range(250):
        f = random_formula(rng, cfg, max_depth=3, size_budget=rng.randint(7, 15))
        literals = [
            modal(Box(), random_formula(rng, cfg, max_depth=1, size_budget=5))
            for _ in range(rng.randint(2, 5))
        ]
        formulas += [f, neg(f), conj_fold([g if rng.random() < 0.5 else neg(g) for g in literals])]
    verdicts = [solver.satisfiable(f, cfg) for f in formulas]
    for f, verdict in zip(formulas, verdicts):
        if not verdict.satisfiable:
            doc = extract_proof(verdict, neg(f), cfg)
            assert check_proof(doc, neg(f), cfg) == (True, "ok"), f
    monkeypatch.setattr(solver, "challenges", _mask_loop_challenges)
    full = [solver.satisfiable(f, cfg) for f in formulas]
    assert [v.satisfiable for v in verdicts] == [v.satisfiable for v in full]
    assert 50 <= sum(not v.satisfiable for v in verdicts) <= 500
    # The sub-clauses left out are real work: the full loop asks more.
    assert sum(v.stats.matchings_checked for v in verdicts) < sum(
        v.stats.matchings_checked for v in full
    )


def _linear_atom(rng, cfg, name):
    if cfg.logic == "PML":
        return parse("L{%s}%s" % (rng.choice(["0/1", "1/4", "1/3", "1/2", "2/3", "3/4", "1/1"]), name))
    if cfg.logic == "MAJ" and rng.random() < 0.5:
        return parse("W " + name)
    return parse("<%d>%s" % (rng.randint(0, 3), name))


def _some_clause_refuted(valuation, sat_bits, cfg):
    """The question ``node_refutable`` answers, asked clause by clause."""
    atoms = logics.proper_atoms(valuation)
    literals = [(not s, a) for s, a in valuation if a in atoms]
    for mask in range(1, 1 << len(literals)):
        clause = tuple(lit for i, lit in enumerate(literals) if mask >> i & 1)
        patterns = clause_patterns(clause, atoms, sat_bits)
        if refuting_matching_exists(clause, patterns, cfg)[0] is not None:
            return True
    return False


@pytest.mark.parametrize("logic", ["GML", "MAJ", "PML"])
def test_node_refutable_matches_mask_loop(logic):
    cfg = LogicConfig(logic=logic)
    rng = random.Random(7070)
    seen = set()
    for trial in range(150):
        k = rng.randint(1, 5)
        valuation = [(rng.random() < 0.5, _linear_atom(rng, cfg, "p%d" % i)) for i in range(k)]
        if trial % 3 == 0:
            # Propositional atoms sit in valuations but never in clauses.
            valuation.insert(rng.randint(0, k), (rng.random() < 0.5, parse("q")))
        if trial % 10 == 0:
            # All clause literals negative: strict in PML.
            valuation = [(True, a) for _, a in valuation]
        valuation = tuple(valuation)
        density = rng.random()
        sat_bits = set() if trial % 25 == 0 else {
            bits for bits in range(1 << k) if rng.random() < density
        }
        expected = _some_clause_refuted(valuation, sat_bits, cfg)
        assert node_refutable(valuation, sat_bits, cfg) == expected, (valuation, sat_bits)
        signs = {s for s, a in valuation if a in logics.proper_atoms(valuation)}
        kind = "all-negative" if signs == {True} else "some-positive"
        seen.add((kind, not sat_bits, expected))
    assert {(kind, expected) for kind, _, expected in seen} == {
        (kind, expected) for kind in ("all-negative", "some-positive") for expected in (True, False)
    }
    assert any(empty for _, empty, _ in seen)


def _unpruned_gate(valuation, sat_bits, cfg):
    """``node_refutable``'s relaxed system with every pattern row kept."""
    clause = tuple((not s, a) for s, a in valuation if a in logics.proper_atoms(valuation))
    signs, rows, _ = logics._linear_literal_data(clause, cfg)
    xs = ["x%d" % i for i in range(len(signs))]
    variables = xs + (["t"] if cfg.logic != "GML" else [])
    for branch in logics._branches(cfg):
        cons = logics._build_constraints(signs, rows, sat_bits, cfg, branch)
        if cfg.logic == "PML":
            support = [x for x, s in zip(xs, signs) if s] or xs
            cons.append((dict.fromkeys(support, 1), -1, False))
        if linarith.feasible(cons, variables, nonneg=xs) is not None:
            return True
    return False


def _implies(signs, strong, weak):
    """Whether, with every x_i >= 0, the pattern row of ``strong`` implies
    that of ``weak``: ``strong`` has a subset of ``weak``'s clause-positive
    atoms and a superset of its clause-negative ones."""
    for i, positive in enumerate(signs):
        has_strong, has_weak = bool(strong >> i & 1), bool(weak >> i & 1)
        if positive and has_strong and not has_weak:
            return False
        if not positive and has_weak and not has_strong:
            return False
    return True


@pytest.mark.parametrize("logic", ["GML", "MAJ", "PML"])
def test_gate_drops_only_implied_rows(logic):
    cfg = LogicConfig(logic=logic)
    rng = random.Random(9191)
    answers = set()
    dropped = 0
    for trial in range(120):
        k = rng.randint(1, 7)
        valuation = [(rng.random() < 0.5, _linear_atom(rng, cfg, "p%d" % i)) for i in range(k)]
        if trial % 4 == 0:
            valuation.insert(rng.randint(0, k), (rng.random() < 0.5, parse("q")))
        valuation = tuple(valuation)
        signs = [not s for s, a in valuation if a in logics.proper_atoms(valuation)]
        density = rng.random()
        sat_bits = {bits for bits in range(1 << k) if rng.random() < density}
        kept = logics._unimplied_patterns(signs, sat_bits)
        assert kept <= sat_bits and bool(kept) == bool(sat_bits)
        for bits in sat_bits - kept:
            assert any(_implies(signs, other, bits) for other in kept), (signs, bits)
        for bits in kept:
            assert not any(_implies(signs, other, bits) for other in kept - {bits})
        dropped += len(sat_bits - kept)
        expected = _unpruned_gate(valuation, sat_bits, cfg)
        assert node_refutable(valuation, sat_bits, cfg) == expected, (valuation, sat_bits)
        answers.add(expected)
    assert answers == {True, False} and dropped > 1000


@pytest.mark.parametrize("logic,text", LINEAR_WIDTH_8)
def test_gate_rows_at_width_8_roots(logic, text, monkeypatch):
    # The root has nine proper modal atoms and 256 satisfiable patterns;
    # the unpruned gate passed 257 to 259 rows.
    original = linarith.feasible
    gate_rows = []

    def spy(constraints, variables, nonneg=()):
        if nonneg and len(variables) >= 9:
            gate_rows.append(len(constraints))
        return original(constraints, variables, nonneg)

    monkeypatch.setattr(linarith, "feasible", spy)
    assert solver.satisfiable(parse(text), LogicConfig(logic=logic)).satisfiable
    assert gate_rows and max(gate_rows) <= 16, gate_rows


def _k_prop(n, sat):
    lits = [("" if i % 2 == 0 else "~") + "p%d" % i for i in range(n)]
    return " & ".join(lits + ["~[]b", "[]c" if sat else "[](b & c)"])


@pytest.mark.parametrize("n", [2, 6, 10])
def test_no_clause_holds_a_propositional_atom(n, monkeypatch):
    cfg = LogicConfig(logic="K")
    original = logics.matchings
    seen = []

    def guarded(clause, cfg):
        assert all(
            isinstance(a, FModal) and not isinstance(a.op, Atom) for _, a in clause
        ), clause
        seen.append(clause)
        return original(clause, cfg)

    for module in (logics, solver, certificates, oracle):
        if getattr(module, "matchings", None) is original:
            monkeypatch.setattr(module, "matchings", guarded)
    sat_f = parse(_k_prop(n, True))
    verdict = solver.satisfiable(sat_f, cfg)
    assert verdict.satisfiable
    ok, msg = check_tableau(extract_tableau(verdict, cfg), sat_f, cfg)
    assert ok, msg
    unsat_f = parse(_k_prop(n, False))
    verdict = solver.satisfiable(unsat_f, cfg)
    assert not verdict.satisfiable
    goal = neg(unsat_f)
    ok, msg = check_proof(extract_proof(verdict, goal, cfg), goal, cfg)
    assert ok, msg
    assert seen
