"""Logic configurations, schema matchings, side conditions, and the
coefficient search for the linear logics."""

import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from conftest import ALL_LOGICS, reference_premise
from modalsat import certificates, linarith, logics, oracle, solver
from modalsat.certificates import check_proof, check_tableau, extract_proof, extract_tableau
from modalsat.formula import Atom, Box, Coal, FModal, conj_fold, modal, neg, parse, subformulas
from modalsat.logics import (
    LogicConfig,
    challenges,
    clause_patterns,
    matchings,
    operator_legal,
    parse_logic_spec,
    proper_literals,
    refuting_matching_exists,
    side_condition,
    validate_formula,
)
from modalsat.onestep import (
    RuleCode,
    RuleMatching,
    code_operators,
    conclusion_clause,
    congruence_matchings,
)
from modalsat.sampling import random_formula, random_operator
from modalsat.oracle import one_step_sound
from test_solver import LINEAR_WIDTH_8


def test_parse_logic_spec():
    assert parse_logic_spec("K").logic == "K"
    cfg = parse_logic_spec("COAL:3")
    assert cfg.logic == "COAL" and cfg.n_agents == 3
    assert parse_logic_spec("COAL:007").n_agents == 7
    # Only decimal digits after "COAL:"; int() alone took " 3" and "+2",
    # and the spec is echoed as typed in every JSON record.
    for spec in ("COAL:x", "COAL:", "COAL: 3", "COAL:+2", "COAL:3 ", "COAL:\u0663", "COAL3"):
        with pytest.raises(ValueError, match="^%s$" % re.escape("bad logic spec %r" % spec)):
            parse_logic_spec(spec)
    with pytest.raises(ValueError):
        parse_logic_spec("S5")


def test_coalitions_are_tested_by_range():
    cfg = parse_logic_spec("COAL:3")
    for agents, legal, grand in [
        (frozenset(), True, False),
        (frozenset({1, 3}), True, False),
        (frozenset({1, 2, 3}), True, True),
        (frozenset({0, 1, 2}), False, False),
        (frozenset({2, 3, 4}), False, False),
        (frozenset({1, 2, 3, 4}), False, False),
    ]:
        assert cfg.coalition_legal(agents) == legal, agents
        assert cfg.is_grand_coalition(agents) == grand, agents


@pytest.mark.parametrize(
    "text,sat",
    [
        ("a", True),
        ("[C 1]a & ~[C 2]b", True),
        ("[C 1]a & [C 2]b & ~[C 1,2](a & b)", False),
        ("[C 1]a & ~[C 1,999999](a | b)", False),
    ],
)
def test_solve_memory_does_not_grow_with_the_agents(text, sat):
    # A frozenset of all 1,000,000 agents took about 70 MB at the first
    # COAL node, even for the formula ``a``; coalitions are now tested by
    # range, so no set of every agent is built.
    cfg = parse_logic_spec("COAL:1000000")
    f = parse(text, cfg.n_agents)
    tracemalloc.start()
    try:
        verdict = solver.satisfiable(f, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.satisfiable == sat
    assert peak < 2_000_000, peak


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


def _reference_disjoint(sets):
    seen = set()
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return True


def _grand(cfg):
    return frozenset(range(1, cfg.n_agents + 1))


def _reference_matchings(clause, cfg):
    """``matchings`` as it was before each shape schema's condition was
    written once: every schema's sign count, disjointness test and
    grand-coalition test inline."""
    out = list(congruence_matchings(clause, cfg.logic))
    if not all(isinstance(a, FModal) and not isinstance(a.op, Atom) for _, a in clause):
        return out
    signs = tuple(s for s, _ in clause)
    ops = tuple(a.op for _, a in clause)
    args = tuple(a.arg for _, a in clause)
    sign_ints = tuple(1 if s else -1 for s in signs)
    n_pos = sum(signs)
    if cfg.logic in ("K", "KD") and all(isinstance(op, Box) for op in ops):
        if n_pos == 1:
            out.append(RuleMatching(RuleCode(cfg.logic, "K", ints=sign_ints), args))
        if cfg.logic == "KD" and n_pos == 0 and len(clause) >= 1:
            out.append(RuleMatching(RuleCode(cfg.logic, "KD", ints=sign_ints), args))
    if cfg.logic == "M" and all(isinstance(op, Box) for op in ops):
        if len(clause) == 2 and n_pos == 1:
            out.append(RuleMatching(RuleCode(cfg.logic, "M", ints=sign_ints), args))
    if cfg.logic == "COAL" and all(isinstance(op, Coal) for op in ops):
        coalitions = tuple(op.agents for op in ops)
        negatives = [i for i, s in enumerate(signs) if not s]
        positives = [i for i, s in enumerate(signs) if s]
        disjoint = _reference_disjoint([coalitions[i] for i in negatives])
        if n_pos == 0 and len(clause) >= 1 and disjoint:
            code = RuleCode(cfg.logic, "COAL1", ints=sign_ints, coalitions=coalitions)
            out.append(RuleMatching(code, args))
        if n_pos >= 1 and disjoint:
            non_grand = [i for i in positives if coalitions[i] != _grand(cfg)]
            if len(non_grand) <= 1:
                d = non_grand[0] if non_grand else positives[0]
                if all(coalitions[i] <= coalitions[d] for i in negatives):
                    code = RuleCode(
                        cfg.logic, "COAL4", ints=sign_ints + (d,), coalitions=coalitions
                    )
                    out.append(RuleMatching(code, args))
    return out


def _reference_shape_side_condition(code, cfg):
    """``side_condition``'s shape-scheme branches as they were before the
    conditions were written once."""
    scheme, arity, signs = code.scheme, code.arity(), code.signs()
    if arity < 1:
        return False
    if scheme == "K":
        return cfg.logic in ("K", "KD") and sum(signs) == 1
    if scheme == "KD":
        return cfg.logic == "KD" and sum(signs) == 0 and arity >= 1
    if scheme == "M":
        return cfg.logic == "M" and arity == 2 and sum(signs) == 1
    if scheme == "COAL1":
        if cfg.logic != "COAL" or sum(signs) != 0 or len(code.coalitions) != arity:
            return False
        return _reference_disjoint(code.coalitions)
    assert scheme == "COAL4"
    if cfg.logic != "COAL" or len(code.coalitions) != arity:
        return False
    d = code.ints[-1]
    if not (0 <= d < arity and signs[d]):
        return False
    negatives = [i for i in range(arity) if not signs[i]]
    if not _reference_disjoint([code.coalitions[i] for i in negatives]):
        return False
    if not all(code.coalitions[i] <= code.coalitions[d] for i in negatives):
        return False
    return all(
        code.coalitions[i] == _grand(cfg)
        for i in range(arity)
        if signs[i] and i != d
    )


def _reference_linear_side_condition(code, cfg):
    """``side_condition``'s linear-scheme branches as closed forms, as they
    were before the conditions were written once, as rows."""
    scheme, arity = code.scheme, code.arity()
    coeffs, bound = code.ints[:-1], code.ints[-1]
    if arity < 1 or scheme != cfg.logic or any(c == 0 for c in coeffs):
        return False
    if scheme == "GML":
        if bound != 0 or len(code.grades) != arity or any(g < 0 for g in code.grades):
            return False
        lhs = sum(-c * (k + 1) for c, k in zip(coeffs, code.grades) if c < 0)
        rhs = 1 + sum(c * k for c, k in zip(coeffs, code.grades) if c > 0)
        return lhs >= rhs
    if scheme == "MAJ":
        if len(code.grades) != arity:
            return False
        graded = [(c, k) for c, k in zip(coeffs, code.grades) if k >= 0]
        wsum = sum(c for c, k in zip(coeffs, code.grades) if k < 0)
        wpos = sum(c for c, k in zip(coeffs, code.grades) if k < 0 and c > 0)
        lhs = sum(-c * (k + 1) for c, k in graded if c < 0)
        lhs -= sum(c * k for c, k in graded if c > 0)
        if lhs - 1 + wpos - max(bound, 0) < 0:
            return False
        return 2 * bound - wsum >= 0
    assert scheme == "PML"
    if len(code.rationals) != arity or any(not 0 <= p <= 1 for p in code.rationals):
        return False
    total = sum(Fraction(c) * p for c, p in zip(coeffs, code.rationals))
    if all(c < 0 for c in coeffs):
        return total < bound
    return total <= bound


REFERENCE_CONFIGS = [LogicConfig(logic=lg) for lg in ALL_LOGICS if lg != "COAL"] + [
    LogicConfig(logic="COAL", n_agents=k) for k in (1, 2, 3)
]


def test_matchings_match_the_reference_on_random_clauses():
    # The empty clause, and 10,000 clauses per logic, E to PML and COAL:1-3,
    # of one to four literals drawn from a pool of proper modal atoms with
    # the logic's operators: the clauses ``challenges`` builds.
    rng = random.Random(2626)
    args = [parse(t) for t in ("p", "q", "r", "~p", "p & q", "false")]
    compared = {}
    for cfg in REFERENCE_CONFIGS:
        pool = [modal(random_operator(rng, cfg), rng.choice(args)) for _ in range(200)]
        assert all(operator_legal(a.op, cfg) for a in pool)
        assert matchings((), cfg) == _reference_matchings((), cfg) == []
        shapes = 0
        for _ in range(10000):
            clause = tuple((rng.random() < 0.5, rng.choice(pool)) for _ in range(rng.randint(1, 4)))
            got = matchings(clause, cfg)
            assert got == _reference_matchings(clause, cfg), (cfg, clause)
            shapes += any(m.code.scheme != "CONG" for m in got)
        compared[cfg.logic, cfg.n_agents] = shapes
    # Every finite logic's shape schemes were proposed, and often.
    for (logic, _), shapes in compared.items():
        assert (shapes >= 1000) == (logic in ("K", "KD", "M", "COAL")), compared


def test_challenges_leave_out_a_foreign_coalition_operator():
    # A coalition operator over another number of agents is in no formula
    # of the logic (``validate_formula``), so no clause holds it, and it
    # keeps no other literal out of one: the node's own box is asked alone.
    cfg = LogicConfig(logic="COAL", n_agents=2)
    foreign = modal(Coal(frozenset({1}), 3), parse("p"))
    own = parse("[C 2]q", 2)
    asked = list(challenges(((True, foreign), (True, own)), cfg, set()))
    assert [(clause, [m.code.scheme for m in found]) for clause, found in asked] == [
        (((False, own),), ["COAL1"])
    ]


def test_side_condition_matches_the_reference_on_random_shape_codes():
    rng = random.Random(2627)
    # Random signs, coalitions (some with an agent outside the logic's) and
    # distinguished literal, for all five shape schemes, mostly in a logic
    # with the scheme; now and then the coalitions' count is off.
    logics_with = {"K": "K KD", "KD": "KD", "M": "M", "COAL1": "COAL", "COAL4": "COAL"}
    accepted = dict.fromkeys(logics_with, 0)
    for _ in range(40000):
        scheme = rng.choice(tuple(accepted))
        cfg = rng.choice(
            [c for c in REFERENCE_CONFIGS if c.logic in logics_with[scheme].split()]
            if rng.random() < 0.8
            else REFERENCE_CONFIGS
        )
        arity = rng.randint(0, 4)
        # Now and then a sign written as 0, which ``signs`` reads as negative.
        ints = tuple(rng.choice((-1, 1) if rng.random() < 0.95 else (0,)) for _ in range(arity))
        if scheme == "COAL4":
            ints += (rng.randint(-1, arity),)
        n_agents = cfg.n_agents if cfg.logic == "COAL" else rng.randint(1, 3)
        coalitions = ()
        if scheme.startswith("COAL") or rng.random() < 0.1:
            width = arity if rng.random() < 0.9 else rng.randint(0, 4)
            coalitions = tuple(
                frozenset(a for a in range(1, n_agents + 2) if rng.random() < 0.5)
                for _ in range(width)
            )
        logic = cfg.logic if rng.random() < 0.9 else "K"
        code = RuleCode(logic, scheme, ints=ints, coalitions=coalitions)
        want = _reference_shape_side_condition(code, cfg)
        assert side_condition(code, cfg) == want, (code, cfg)
        accepted[scheme] += want
    assert min(accepted.values()) >= 200, accepted


def _random_linear_code(rng):
    """A random GML, MAJ or PML rule code, now and then malformed: a zero
    coefficient, a GML bound other than 0, a field whose length is not the
    arity, a negative GML grade or a probability outside [0, 1]."""
    scheme = rng.choice(("GML", "MAJ", "PML"))
    arity = rng.randint(0, 4)
    coeffs = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(arity))
    if arity and rng.random() < 0.03:
        i = rng.randrange(arity)
        coeffs = coeffs[:i] + (0,) + coeffs[i + 1:]
    bound = {"GML": 0, "MAJ": rng.randint(-4, 4), "PML": rng.randint(-3, 3)}[scheme]
    if rng.random() < 0.03:
        bound = rng.randint(-2, 2)
    width = arity if rng.random() < 0.95 else rng.randint(0, 5)
    grades = rationals = ()
    if scheme == "PML":
        probs = [Fraction(n, d) for d in range(1, 5) for n in range(d + 1)]
        probs += [Fraction(-1, 2), Fraction(3, 2)] if rng.random() < 0.05 else []
        rationals = tuple(rng.choice(probs) for _ in range(width))
    else:
        low = -2 if scheme == "MAJ" or rng.random() < 0.05 else 0
        grades = tuple(rng.randint(low, 3) for _ in range(width))
    return RuleCode(scheme, scheme, ints=coeffs + (bound,), rationals=rationals, grades=grades)


# Boundary and malformed linear codes, with their verdicts.
LINEAR_BOUNDARY_CODES = [
    # GML: -1 on <1>a, +1 on <1>b: lhs = 2 = rhs.
    (RuleCode("GML", "GML", (-1, 1, 0), grades=(1, 1)), True),
    # -1 on <0>a, +1 on <1>b: lhs = 1 = rhs - 1.
    (RuleCode("GML", "GML", (-1, 1, 0), grades=(0, 1)), False),
    (RuleCode("GML", "GML", (-2, 1, 0), grades=(1, 3)), True),
    (RuleCode("GML", "GML", (-2, 1, 0), grades=(1, 4)), False),
    # MAJ, bound > 0: A - t - 1 >= 0 is the row that binds.  +1 on W a,
    # -1 on <0>b: A = 2.
    (RuleCode("MAJ", "MAJ", (1, -1, 1), grades=(-1, 0)), True),
    (RuleCode("MAJ", "MAJ", (1, -1, 2), grades=(-1, 0)), False),
    # 2t - (signed sum of W coefficients) = 0.
    (RuleCode("MAJ", "MAJ", (2, -1, 1), grades=(-1, 0)), True),
    (RuleCode("MAJ", "MAJ", (3, -2, 1), grades=(-1, 0)), False),
    # MAJ, bound < 0: A - 1 >= 0 is the row that binds.  -2 on W a, -1 on
    # <0>b gives A = 1; +1 on <0>b gives A = 0.
    (RuleCode("MAJ", "MAJ", (-2, -1, -1), grades=(-1, 0)), True),
    (RuleCode("MAJ", "MAJ", (-2, 1, -1), grades=(-1, 0)), False),
    # PML, all negative: the total must lie strictly below the bound.
    (RuleCode("PML", "PML", (-1, -1, -1), rationals=(Fraction(2, 3),) * 2), True),
    (RuleCode("PML", "PML", (-1, -1, -1), rationals=(Fraction(1, 2),) * 2), False),
    # PML, mixed signs: a total equal to the bound suffices.
    (RuleCode("PML", "PML", (1, -1, 0), rationals=(Fraction(1, 2),) * 2), True),
    (RuleCode("PML", "PML", (1, -1, -1), rationals=(Fraction(1, 2),) * 2), False),
    # Malformed: a code of another logic, a zero coefficient, a GML bound
    # other than 0, a field shorter or longer than the arity, a negative
    # GML grade, a probability outside [0, 1], no literal at all.
    (RuleCode("GML", "GML", (-1, 1, 0), grades=(1, 1)), "MAJ"),
    (RuleCode("MAJ", "MAJ", (-1, 1, 0), grades=(1, 1)), "GML"),
    (RuleCode("PML", "PML", (-1, 1, 0), rationals=(Fraction(1, 2),) * 2), "K"),
    (RuleCode("GML", "GML", (-1, 0, 1, 0), grades=(1, 1, 0)), False),
    (RuleCode("GML", "GML", (-1, 1, -1), grades=(1, 1)), False),
    (RuleCode("GML", "GML", (-1, 1, 0), grades=(1,)), False),
    (RuleCode("MAJ", "MAJ", (-1, 1, 0), grades=(1, 1, 1)), False),
    (RuleCode("PML", "PML", (-1, 1, 0), rationals=(Fraction(1, 2),)), False),
    (RuleCode("GML", "GML", (-1, 1, 0), grades=(1, -1)), False),
    (RuleCode("PML", "PML", (-1, 1, 0), rationals=(Fraction(3, 2), Fraction(1, 2))), False),
    (RuleCode("PML", "PML", (-1, 1, 0), rationals=(Fraction(1, 2), Fraction(-1, 2))), False),
    (RuleCode("GML", "GML", (0,)), False),
]


@pytest.mark.parametrize("code,verdict", LINEAR_BOUNDARY_CODES)
def test_linear_side_condition_on_boundary_codes(code, verdict):
    # A string names a logic other than the code's, where it is no rule.
    cfg = LogicConfig(logic=verdict if isinstance(verdict, str) else code.logic)
    want = verdict is True
    assert _reference_linear_side_condition(code, cfg) == want
    assert side_condition(code, cfg) == want


def test_side_condition_matches_the_reference_on_random_linear_codes():
    # 30,000 random GML, MAJ and PML codes, one in ten asked in another
    # logic, against the closed forms.
    rng = random.Random(2630)
    accepted = dict.fromkeys(("GML", "MAJ", "PML"), 0)
    rejected = dict(accepted)
    for _ in range(30000):
        code = _random_linear_code(rng)
        cfg = LogicConfig(logic=code.scheme if rng.random() < 0.9 else rng.choice(ALL_LOGICS))
        want = _reference_linear_side_condition(code, cfg)
        assert side_condition(code, cfg) == want, (code, cfg)
        (accepted if want else rejected)[code.scheme] += 1
    assert min(accepted.values()) >= 500, accepted
    assert min(rejected.values()) >= 500, rejected


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


def _unit_pair_codes():
    """The linear instance on a congruence pair ``{~La, Lb}`` of each operator:
    coefficients -1 and +1, bound 0, in both literal orders."""
    ops = [("GML", (k, k), ()) for k in range(4)]
    ops += [("MAJ", (k, k), ()) for k in range(4)] + [("MAJ", (-1, -1), ())]
    probs = sorted({Fraction(n, d) for d in range(1, 7) for n in range(d + 1)})
    ops += [("PML", (), (p, p)) for p in probs]
    return [
        RuleCode(logic, logic, ints, rationals, grades, ())
        for logic, grades, rationals in ops
        for ints in ((-1, 1, 0), (1, -1, 0))
    ]


def _unit_pair_id(code):
    order = "negative-first" if code.ints[0] < 0 else "positive-first"
    return "%s %s %s" % (code.logic, code_operators(code, 2)[0].render(), order)


@pytest.mark.parametrize("code", _unit_pair_codes(), ids=_unit_pair_id)
def test_unit_pair_instance_is_a_sound_linear_rule(code):
    # A linear node asks no congruence pair: where congruence on {~La, Lb}
    # would refute it, this instance of the node's own schema does, and
    # ``challenges`` rests on its being a rule.
    cfg = LogicConfig(logic=code.logic)
    assert side_condition(code, cfg)
    assert one_step_sound(code, cfg)


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


def test_refuting_search_names_the_refuted_sub_clause():
    cfg = LogicConfig("GML")
    clause = _clause(
        [(False, "<0>a0"), (False, "<0>a1"), (False, "<0>a2"), (False, "<0>a3"), (True, "<0>a4")]
    )
    # Every argument true or every one false: <0>a0 -> <0>a4 alone is
    # refuted, and the small search gives its coefficients.
    m, caveat = refuting_matching_exists(clause, {0, 0b11111}, cfg)
    assert m is not None and not caveat
    assert conclusion_clause(m, cfg.n_agents) == (clause[0], clause[4])
    assert m.code.ints == (-1, 1, 0)


def test_refuting_search_past_small_search_scales_the_solution():
    cfg = LogicConfig("GML")
    clause = _clause(
        [(False, "<0>(a0 | a1 | a2 | a3)"), (True, "<0>a0"), (True, "<0>a1"), (True, "<0>a2"), (True, "<0>a3")]
    )
    # The disjunction is true exactly when some a_i is: only the whole
    # clause is refuted, and five literals are past the small search, so
    # the relaxed solution is scaled to integers.  A found matching is
    # checked, so no caveat is due.
    patterns = {bits for bits in range(1 << 5) if (bits & 1) == (bits > 1)}
    m, caveat = refuting_matching_exists(clause, patterns, cfg)
    assert m is not None and not caveat
    assert conclusion_clause(m, cfg.n_agents) == clause
    assert m.code.ints == (-1, 1, 1, 1, 1, 0)


# -- challenge generation -----------------------------------------------------


def _clause_refuter(clause, patterns, cfg):
    """The per-clause search ``challenges`` no longer runs: a linear
    matching whose conclusion is ``clause`` itself, from the clause's system
    with every magnitude x_i >= 1 and every pattern row, or None."""
    signs, rows, args = logics._linear_literal_data(clause)
    xs = ["x%d" % i for i in range(len(signs))]
    variables = xs + (["t"] if cfg.logic != "GML" else [])
    cons = [({x: 1}, -1, False) for x in xs]
    cons += logics._build_constraints(signs, rows, patterns, cfg)
    point = linarith.feasible(cons, variables)
    if point is None:
        return None
    point = logics._scale_to_integers(point)
    ints = tuple(point[x] if s else -point[x] for x, s in zip(xs, signs))
    ints += (point.get("t", 0),)
    if cfg.logic == "PML":
        code = RuleCode("PML", "PML", ints, tuple(p for _, p in rows), (), ())
    else:
        grades = tuple(k if kind == "g" else -1 for kind, k in rows)
        code = RuleCode(cfg.logic, cfg.logic, ints, (), grades, ())
    return RuleMatching(code, args)


def _mask_loop_challenges(valuation, cfg, sat_bits, refuter=_clause_refuter):
    """The challenge loop ``challenges`` replaces: every one of the 2^q
    sub-clauses, kept when a finite schema matches it or, in the linear
    logics, when it is made of proper modal atoms only and has a congruence
    matching or a ``refuter`` of its own against the projected patterns."""
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
            m = refuter(clause, set(projected[mask]), cfg)
            if m is not None:
                found.append(m)
        else:
            found = matchings(clause, cfg)
        if found:
            out.append((clause, found))
    return out


def _one_refuter_challenges(literals, cfg, sat_bits):
    """What ``challenges`` asks in a linear logic: the clause of the matching
    that ``refuting_matching_exists`` finds for the node's proper modal
    ``literals`` in the logic, against the patterns projected onto them,
    with that matching as its one candidate; or nothing."""
    atoms = [a for _, a in literals]
    node = tuple((not s, a) for s, a in literals if operator_legal(a.op, cfg))
    positions = [atoms.index(a) for _, a in node]
    patterns = {sum((bits >> ai & 1) << j for j, ai in enumerate(positions)) for bits in sat_bits}
    refuter = refuting_matching_exists(node, patterns, cfg)[0] if node else None
    if refuter is None:
        return []
    refuted = conclusion_clause(refuter, cfg.n_agents)
    assert set(refuted) <= set(node), (node, refuted)
    return [(refuted, [refuter])]


def _congruence_and_refuter_challenges(valuation, cfg, sat_bits):
    """The linear challenges asked before a node's one system stood alone:
    the congruence pairs of the mask loop, with the refuter's clause among
    them and the refuter as that clause's last candidate."""
    out = dict(_mask_loop_challenges(valuation, cfg, sat_bits, refuter=lambda *args: None))
    for refuted, found in _one_refuter_challenges(valuation, cfg, sat_bits):
        out.setdefault(refuted, []).extend(found)
    index = {a: i for i, (_, a) in enumerate(valuation)}
    return sorted(out.items(), key=lambda item: sum(1 << index[a] for _, a in item[0]))


def _without_congruence(found):
    """The candidates of a clause with its congruence matching dropped when
    a shape schema matches the clause too."""
    if len(found) == 1:
        return found
    return [m for m in found if m.code.scheme != "CONG"]


def _maximal_challenges(challenged):
    """The challenges whose clause no other challenge's clause strictly
    contains: the ones ``challenges`` asks in every shape logic."""
    clauses = [set(clause) for clause, _ in challenged]
    return [
        (clause, found)
        for clause, found in challenged
        if not any(set(clause) < other for other in clauses)
    ]


CHALLENGE_CONFIGS = [LogicConfig(logic=lg) for lg in ALL_LOGICS if lg != "COAL"] + [
    LogicConfig(logic="COAL", n_agents=k) for k in (1, 2, 3)
]


@pytest.mark.parametrize("cfg", CHALLENGE_CONFIGS, ids=lambda c: "%s:%d" % (c.logic, c.n_agents))
def test_challenges_match_mask_loop(cfg):
    rng = random.Random(4242)
    # Modal atoms at every level of random formulas, propositional ones
    # included, with every operator the sampler draws for the logic; a node
    # is the proper ones of a pseudovaluation over some of them.  The linear
    # logics also get boxes, which no linear rule mentions and no clause
    # holds.
    pool = [parse("[]p"), parse("[]q")] if cfg.is_arithmetic() else []
    for _ in range(40):
        f = random_formula(rng, cfg, max_depth=2, size_budget=14)
        pool += [g for g in subformulas(f) if isinstance(g, FModal) and g not in pool]
    nontrivial = 0
    # A linear node has a challenge only when its system refutes it, so
    # those logics draw more nodes.
    for _ in range(500 if cfg.is_arithmetic() else 250):
        atoms = rng.sample(pool, rng.randint(1, min(8, len(pool))))
        valuation = tuple((rng.random() < 0.5, a) for a in atoms)
        node = proper_literals(valuation)
        sat_bits = {bits for bits in range(1 << len(node)) if rng.random() < 0.5}
        if cfg.is_arithmetic():
            expected = _one_refuter_challenges(node, cfg, sat_bits)
        else:
            # The mask loop over the node's literals in the logic.
            legal = tuple((s, a) for s, a in node if operator_legal(a.op, cfg))
            expected = _mask_loop_challenges(legal, cfg, sat_bits)
            # A shape instance on a congruence pair demands what congruence
            # demands first; see ``challenges``.
            expected = [(clause, _without_congruence(found)) for clause, found in expected]
            # Every other clause is dominated; see ``challenges``.
            expected = _maximal_challenges(expected)
        assert list(challenges(node, cfg, sat_bits)) == expected, valuation
        nontrivial += bool(expected)
    assert nontrivial >= 50


@pytest.mark.parametrize(
    "spec", ["E", "M", "K", "KD", "COAL:1", "COAL:2", "COAL:3", "GML", "MAJ", "PML"]
)
def test_maximal_clauses_keep_every_verdict(spec, monkeypatch):
    # Asking only the maximal clauses, and no congruence matching that a
    # shape instance of the same clause dominates, decides every formula as
    # asking every clause a rule matches does, with every matching, and
    # refuted formulas still get proofs that check.  In the linear logics
    # the reference asks every congruence pair beside the node's one
    # system.  Conjunctions of modal literals put several of each sign at
    # one node, which random formulas seldom do; in the linear logics they
    # reuse two operators, so that a node holds congruence pairs.
    cfg = parse_logic_spec(spec)
    reference = (
        _congruence_and_refuter_challenges if cfg.is_arithmetic() else _mask_loop_challenges
    )
    rng = random.Random(7)
    formulas = []
    for _ in range(250):
        f = random_formula(rng, cfg, max_depth=3, size_budget=rng.randint(7, 15))
        literals = [
            modal(random_operator(rng, cfg), random_formula(rng, cfg, max_depth=1, size_budget=5))
            for _ in range(rng.randint(2, 5))
        ]
        if cfg.is_arithmetic():
            literals = [modal(literals[i % 2].op, g.arg) for i, g in enumerate(literals)]
        formulas += [f, neg(f), conj_fold([g if rng.random() < 0.5 else neg(g) for g in literals])]
    verdicts = [solver.satisfiable(f, cfg) for f in formulas]
    for f, verdict in zip(formulas, verdicts):
        if not verdict.satisfiable:
            doc = extract_proof(verdict, neg(f), cfg)
            assert check_proof(doc, neg(f), cfg) == (True, "ok"), f
    monkeypatch.setattr(solver, "challenges", reference)
    full = [solver.satisfiable(f, cfg) for f in formulas]
    assert [v.satisfiable for v in verdicts] == [v.satisfiable for v in full]
    assert 50 <= sum(not v.satisfiable for v in verdicts) <= 500
    # The sub-clauses left out are real work: the full loop asks more.  In E
    # every clause is a congruence pair and none lies inside another, so
    # nothing is left out.
    asked = sum(v.stats.matchings_checked for v in verdicts)
    asked_by_full = sum(v.stats.matchings_checked for v in full)
    assert asked == asked_by_full if spec == "E" else asked < asked_by_full


def _linear_atom(rng, cfg, name):
    if cfg.logic == "PML":
        return parse("L{%s}%s" % (rng.choice(["0/1", "1/4", "1/3", "1/2", "2/3", "3/4", "1/1"]), name))
    if cfg.logic == "MAJ" and rng.random() < 0.5:
        return parse("W " + name)
    return parse("<%d>%s" % (rng.randint(0, 3), name))


def _refuted_sub_clauses(clause, sat_patterns, cfg):
    """Every sub-clause of ``clause`` that ``_clause_refuter`` refutes against
    its projected patterns."""
    atoms = [a for _, a in clause]
    refuted = []
    for mask in range(1, 1 << len(clause)):
        sub = tuple(lit for i, lit in enumerate(clause) if mask >> i & 1)
        if _clause_refuter(sub, clause_patterns(sub, atoms, sat_patterns), cfg) is not None:
            refuted.append(sub)
    return refuted


@pytest.mark.parametrize("logic", ["GML", "MAJ", "PML"])
def test_refuter_matches_per_clause_search(logic):
    # The relaxed system finds a refuter exactly when some sub-clause has
    # one of its own, and the one it names is such a sub-clause.
    cfg = LogicConfig(logic=logic)
    rng = random.Random(7070)
    seen = set()
    for trial in range(150):
        k = rng.randint(1, 5)
        clause = [(rng.random() < 0.5, _linear_atom(rng, cfg, "p%d" % i)) for i in range(k)]
        if trial % 10 == 0:
            # All literals negative: strict in PML.
            clause = [(False, a) for _, a in clause]
        clause = tuple(clause)
        density = rng.random()
        sat_bits = set() if trial % 25 == 0 else {
            bits for bits in range(1 << k) if rng.random() < density
        }
        expected = _refuted_sub_clauses(clause, sat_bits, cfg)
        m, caveat = refuting_matching_exists(clause, sat_bits, cfg)
        assert not caveat
        assert (m is not None) == bool(expected), (clause, sat_bits)
        if m is not None:
            assert conclusion_clause(m, cfg.n_agents) in expected, (clause, sat_bits)
        kind = "all-negative" if not any(s for s, _ in clause) else "some-positive"
        seen.add((kind, not sat_bits, bool(expected)))
    assert {(kind, expected) for kind, _, expected in seen} == {
        (kind, expected) for kind in ("all-negative", "some-positive") for expected in (True, False)
    }
    assert any(empty for _, empty, _ in seen)


@pytest.mark.parametrize("logic", ["GML", "MAJ", "PML"])
def test_refuter_is_a_sound_rule_over_a_sub_clause(logic):
    cfg = LogicConfig(logic=logic)
    rng = random.Random(5151)
    found = 0
    for _ in range(200):
        k = rng.randint(1, 6)
        clause = tuple((rng.random() < 0.5, _linear_atom(rng, cfg, "p%d" % i)) for i in range(k))
        density = rng.random()
        sat_bits = {bits for bits in range(1 << k) if rng.random() < density}
        m, _ = refuting_matching_exists(clause, sat_bits, cfg)
        if m is None:
            continue
        found += 1
        positions = [clause.index(lit) for lit in conclusion_clause(m, cfg.n_agents)]
        assert positions == sorted(positions)
        assert side_condition(m.code, cfg)
        # The premise holds under every satisfiable pattern of the sub-clause.
        for bits in sat_bits:
            values = [bool(bits >> i & 1) for i in positions]
            assert reference_premise(m.code, values), (clause, sat_bits)
        if found % 4 == 0:
            assert one_step_sound(m.code, cfg, max_carrier=2), m.code
    assert found >= 40


def _unpruned_relaxed(clause, sat_bits, cfg):
    """Whether the relaxed system of ``refuting_matching_exists``, with every
    pattern row kept, is feasible."""
    signs, rows, _ = logics._linear_literal_data(clause)
    xs = ["x%d" % i for i in range(len(signs))]
    variables = xs + (["t"] if cfg.logic != "GML" else [])
    cons = logics._build_constraints(signs, rows, sat_bits, cfg)
    if cfg.logic == "PML":
        support = [x for x, s in zip(xs, signs) if s] or xs
        cons.append((dict.fromkeys(support, 1), -1, False))
    return linarith.feasible(cons, variables, nonneg=xs) is not None


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
def test_pruning_drops_only_implied_rows(logic):
    cfg = LogicConfig(logic=logic)
    rng = random.Random(9191)
    answers = set()
    dropped = 0
    for trial in range(120):
        k = rng.randint(1, 7)
        clause = tuple((rng.random() < 0.5, _linear_atom(rng, cfg, "p%d" % i)) for i in range(k))
        signs = [s for s, _ in clause]
        density = rng.random()
        sat_bits = {bits for bits in range(1 << k) if rng.random() < density}
        kept = logics._unimplied_patterns(signs, sat_bits)
        assert kept <= sat_bits and bool(kept) == bool(sat_bits)
        for bits in sat_bits - kept:
            assert any(_implies(signs, other, bits) for other in kept), (signs, bits)
        for bits in kept:
            assert not any(_implies(signs, other, bits) for other in kept - {bits})
        dropped += len(sat_bits - kept)
        expected = _unpruned_relaxed(clause, sat_bits, cfg)
        m, _ = refuting_matching_exists(clause, sat_bits, cfg)
        assert (m is not None) == expected, (clause, sat_bits)
        answers.add(expected)
    assert answers == {True, False} and dropped > 1000


@pytest.mark.parametrize("logic,text", LINEAR_WIDTH_8)
def test_pruned_rows_at_width_8_roots(logic, text, monkeypatch):
    # The root has nine proper modal atoms and 256 satisfiable patterns;
    # the unpruned relaxed system has 257 to 259 rows.
    original = linarith.feasible
    relaxed_rows = []

    def spy(constraints, variables, nonneg=()):
        if nonneg and len(variables) >= 9:
            relaxed_rows.append(len(constraints))
        return original(constraints, variables, nonneg)

    monkeypatch.setattr(linarith, "feasible", spy)
    assert solver.satisfiable(parse(text), LogicConfig(logic=logic)).satisfiable
    assert relaxed_rows and max(relaxed_rows) <= 16, relaxed_rows


def _width_family(logic, n):
    """An unsatisfiable conjunction of n linear literals over a0, ..., a(n-1)
    with the negated literal over their disjunction: every a_i is refuted
    together with the disjunction alone."""
    names = ["a%d" % i for i in range(n)]
    op = {"GML": "<0>", "MAJ": "W ", "PML": "L{1/2}"}[logic]
    return " & ".join([op + a for a in names] + ["~%s(%s)" % (op, " | ".join(names))])


@pytest.mark.parametrize("logic", ["GML", "MAJ", "PML"])
def test_width_10_root_is_one_system(logic, monkeypatch):
    # The first refuted clause in mask order holds a0 and the disjunction,
    # the 1,025th of the root's 2,047 clauses; one system names it.
    cfg = LogicConfig(logic=logic)
    f = parse(_width_family(logic, 10))
    original = linarith.feasible
    calls = []

    def spy(constraints, variables, nonneg=()):
        calls.append(len(variables))
        return original(constraints, variables, nonneg)

    monkeypatch.setattr(linarith, "feasible", spy)
    verdict = solver.satisfiable(f, cfg)
    assert not verdict.satisfiable
    # Every other node is propositional, so every system is the root's.
    assert len(calls) == 1, calls
    goal = neg(f)
    assert check_proof(extract_proof(verdict, goal, cfg), goal, cfg) == (True, "ok")


def test_maj_side_condition_is_one_system():
    # MAJ's side condition A - 1 - max(t, 0) >= 0 is the two rows A - 1 >= 0
    # and A - t - 1 >= 0, so a rule code meets its closed form exactly when
    # its magnitudes and bound satisfy the premise rows of the node's system.
    cfg = LogicConfig(logic="MAJ")
    rng = random.Random(2626)
    held = set()
    for _ in range(3000):
        arity = rng.randint(1, 4)
        coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(arity))
        grades = tuple(rng.randint(-1, 3) for _ in range(arity))
        bound = rng.randint(-4, 4)
        code = RuleCode("MAJ", "MAJ", ints=coeffs + (bound,), grades=grades)
        signs = [c > 0 for c in coeffs]
        rows = [logics._linear_row(op) for op in code_operators(code, 2)]
        cons = logics._build_constraints(signs, rows, set(), cfg)
        point = {"x%d" % i: abs(c) for i, c in enumerate(coeffs)}
        point["t"] = bound
        holds = _reference_linear_side_condition(code, cfg)
        assert logics._check_point(cons, point) == holds, code
        held.add((holds, bound < 0))
    assert held == {(h, n) for h in (True, False) for n in (True, False)}


@pytest.mark.parametrize("text", ["W a & W ~a", "W a & ~W b", "<1>a & ~<2>a"])
def test_maj_node_solves_one_system(text, monkeypatch):
    # One system per MAJ node, as in GML and PML: the sign of the premise
    # bound is no longer split into two systems.
    original = linarith.feasible
    calls = []

    def spy(constraints, variables, nonneg=()):
        calls.append(len(variables))
        return original(constraints, variables, nonneg)

    monkeypatch.setattr(linarith, "feasible", spy)
    assert solver.satisfiable(parse(text), LogicConfig(logic="MAJ")).satisfiable
    assert len(calls) == 1, calls


@pytest.mark.parametrize("logic", ["GML", "MAJ", "PML"])
def test_one_refuter_per_node_keeps_every_verdict(logic, monkeypatch):
    # One refuter per node decides every formula as a refuter per clause
    # does, and refuted formulas still get proofs that check.  Conjunctions
    # of linear literals put several at one node, which random formulas
    # seldom do.
    cfg = LogicConfig(logic=logic)
    rng = random.Random(5)
    formulas = []
    for _ in range(100):
        f = random_formula(rng, cfg, max_depth=3, size_budget=rng.randint(7, 15))
        literals = [
            modal(random_operator(rng, cfg), random_formula(rng, cfg, max_depth=1, size_budget=5))
            for _ in range(rng.randint(2, 5))
        ]
        formulas += [f, neg(f), conj_fold([g if rng.random() < 0.5 else neg(g) for g in literals])]
    original = linarith.feasible
    calls = []

    def spy(constraints, variables, nonneg=()):
        calls.append(len(variables))
        return original(constraints, variables, nonneg)

    monkeypatch.setattr(linarith, "feasible", spy)
    verdicts = [solver.satisfiable(f, cfg) for f in formulas]
    one_system = len(calls)
    for f, verdict in zip(formulas, verdicts):
        if not verdict.satisfiable:
            doc = extract_proof(verdict, neg(f), cfg)
            assert check_proof(doc, neg(f), cfg) == (True, "ok"), f
    monkeypatch.setattr(solver, "challenges", _mask_loop_challenges)
    del calls[:]
    full = [solver.satisfiable(f, cfg) for f in formulas]
    assert [v.satisfiable for v in verdicts] == [v.satisfiable for v in full]
    assert 30 <= sum(not v.satisfiable for v in verdicts) <= 200
    # The clauses left out are real work: a system per clause asks more.
    assert one_system < len(calls)


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
