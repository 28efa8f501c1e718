"""The semantic oracle: one-step soundness, brute-force models, resolution,
and the completeness probe."""

import random
from fractions import Fraction

import pytest

from modalsat.formula import Box, Coal, GDiamond, LProb, MajW, parse
from modalsat.logics import LogicConfig, side_condition
from modalsat.onestep import RuleCode
from modalsat.oracle import (
    backend_for,
    brute_force_sat,
    clause_valid_on,
    one_step_sound,
    resolve_rules,
    strict_completeness_probe,
)
from modalsat.certificates import model_check
from modalsat.sampling import sample_matchings
from modalsat.semantics import lift

from conftest import ALL_LOGICS, model_sha256


# -- backends -----------------------------------------------------------------


def test_powerset_backend_serial():
    assert list(backend_for(LogicConfig(logic="K")).structures(0)) == [frozenset()]
    assert list(backend_for(LogicConfig(logic="KD")).structures(0)) == []
    assert len(list(backend_for(LogicConfig(logic="K")).structures(2))) == 4
    assert len(list(backend_for(LogicConfig(logic="KD")).structures(2))) == 3
    # Relational K has a dead end, where [] false holds; serial KD has none.
    nothing = frozenset()
    assert lift("kripke", Box(), frozenset(), nothing)
    for struct in backend_for(LogicConfig(logic="KD")).structures(2):
        assert not lift("kripke", Box(), struct, nothing)
    assert lift("kripke", Box(), frozenset({0, 1}), frozenset({0, 1}))
    assert not lift("kripke", Box(), frozenset({0, 1}), frozenset({0}))


def test_neighbourhood_backend_monotone_upclosed():
    mono = backend_for(LogicConfig(logic="M"))
    for alpha in mono.structures(2):
        if alpha:
            # Every up-closed non-empty collection contains the full carrier.
            assert frozenset({0, 1}) in alpha
    # The empty collection and the full powerset are both up-closed.
    collections = list(mono.structures(1))
    assert frozenset() in collections
    assert frozenset({frozenset(), frozenset({0})}) in collections
    # A collection holding only the empty set is not up-closed over 1 state.
    assert frozenset({frozenset()}) not in collections
    # Read as generators, {{0}} also holds {0, 1}; read exactly, it does not.
    hoods = (frozenset({0}),)
    assert lift("neighbourhood", Box(), hoods, frozenset({0}))
    assert not lift("neighbourhood", Box(), hoods, frozenset({0, 1}))
    assert lift("neighbourhood", Box(), hoods, frozenset({0, 1}), monotone=True)
    assert not lift("neighbourhood", Box(), hoods, frozenset({1}), monotone=True)
    # On an up-closed collection both readings agree.
    subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    for alpha in mono.structures(2):
        for inside in subsets:
            assert lift("neighbourhood", Box(), alpha, inside) == lift(
                "neighbourhood", Box(), alpha, inside, monotone=True
            )


def test_multiset_lift():
    struct = {0: 2, 1: 1}  # multiplicities for states 0 and 1
    assert lift("multigraph", GDiamond(2), struct, frozenset({0, 1}))
    assert not lift("multigraph", GDiamond(2), struct, frozenset({0}))
    assert lift("multigraph", MajW(), struct, frozenset({0}))
    assert not lift("multigraph", MajW(), struct, frozenset({1}))
    # W is weak majority: a tie satisfies both sides, and so does no mass.
    tie = {0: 1, 1: 1}
    assert lift("multigraph", MajW(), tie, frozenset({0}))
    assert lift("multigraph", MajW(), tie, frozenset({1}))
    assert lift("multigraph", MajW(), {}, frozenset())
    assert not lift("multigraph", GDiamond(0), {}, frozenset())


def test_distribution_lift():
    struct = {0: Fraction(2, 3), 1: Fraction(1, 3)}
    assert lift("distribution", LProb(Fraction(1, 2)), struct, frozenset({0}))
    assert not lift("distribution", LProb(Fraction(1, 2)), struct, frozenset({1}))
    # L{p} holds at mass exactly p.
    assert lift("distribution", LProb(Fraction(2, 3)), struct, frozenset({0}))
    assert lift("distribution", LProb(Fraction(1, 3)), struct, frozenset({1}))
    assert not lift("distribution", LProb(Fraction(2, 3)), struct, frozenset({1}))


def test_game_lift_monotone_in_coalition():
    sizes = (2, 1)
    table = {(0, 0): 0, (1, 0): 1}
    # Agent 1 alone can force either state.
    assert lift("game", Coal(frozenset({1}), 2), (sizes, table), frozenset({0}))
    assert lift("game", Coal(frozenset({1}), 2), (sizes, table), frozenset({1}))
    # Agent 2 alone can force neither.
    assert not lift("game", Coal(frozenset({2}), 2), (sizes, table), frozenset({0}))
    # The grand coalition forces any reachable outcome, and nothing else.
    grand = Coal(frozenset({1, 2}), 2)
    assert lift("game", grand, (sizes, table), frozenset({0}))
    assert lift("game", grand, (sizes, table), frozenset({1}))
    assert not lift("game", grand, (sizes, table), frozenset({2}))


# -- one-step soundness -------------------------------------------------------


def test_k_rule_sound_and_broken_variant_unsound():
    cfg = LogicConfig(logic="K")
    good = RuleCode("K", "K", (1, -1, -1), (), (), ())
    assert one_step_sound(good, cfg)
    # Two positives is not an instance of the schema; build a code that
    # would correspond to it and verify the semantics rejects it.
    bad = RuleCode("K", "K", (1, 1, -1), (), (), ())
    assert not one_step_sound(bad, cfg)


def test_kd_all_negative_rule_sound_only_when_serial():
    code = RuleCode("KD", "KD", (-1, -1), (), (), ())
    assert one_step_sound(code, LogicConfig(logic="KD"))
    assert not one_step_sound(code, LogicConfig(logic="K"))


def test_m_rule_sound_in_m_not_in_e():
    code = RuleCode("M", "M", (1, -1), (), (), ())
    assert one_step_sound(code, LogicConfig(logic="M"))
    assert not one_step_sound(code, LogicConfig(logic="E"))


def test_congruence_sound_everywhere():
    for logic in ALL_LOGICS:
        cfg = LogicConfig(logic=logic)
        rng = random.Random(3)
        ms = [
            m
            for m in sample_matchings(rng, cfg, 40)
            if m.code.scheme == "CONG"
        ]
        for m in ms[:5]:
            assert one_step_sound(m.code, cfg, max_carrier=2)


def test_gml_side_condition_boundary():
    cfg = LogicConfig(logic="GML")
    # <k> monotonicity instances: sound exactly when target grade <= source.
    for k_pos, k_neg, sound in [(0, 0, True), (0, 1, True), (1, 0, False)]:
        code = RuleCode("GML", "GML", (1, -1, 0), (), (k_pos, k_neg), ())
        assert one_step_sound(code, cfg, max_carrier=2) == sound
        assert side_condition(code, cfg) == sound


# -- brute force --------------------------------------------------------------


BF_CASES = [
    ("K", "[](a | b) & ~[]a", True),
    ("K", "[]a & ~[]a", False),
    ("KD", "[]false", False),
    ("E", "[]a & ~[]b & [](b | ~b)", True),
    ("M", "[](a & b) & ~[]a", False),
    ("GML", "<1>a & ~<2>a", True),
    ("GML", "<1>a & ~<0>a", False),
    ("MAJ", "W a & W ~a", True),
    ("PML", "L{1/2}a & L{2/3}~a", False),
    ("PML", "L{1/3}a & L{1/3}b & L{1/3}(~a & ~b)", True),
    ("COAL", "[C 1]a & [C 2]~a", False),
    ("COAL", "[C 1]a & ~[C 2]a", True),
]


# sha256 of each satisfiable BF_CASES witness's JSON: pins the order of the
# brute-force search.
BF_MODEL_SHA256 = {
    ("K", "[](a | b) & ~[]a"): "5e0931836bd802bcfbdeaf021c7cd8026f899f652eb7aaf376ccd61cf101cb83",
    ("E", "[]a & ~[]b & [](b | ~b)"): "b058686a2ea778b24e8647d9ed7a1653cd2e05ea49f1c39fd9dce75bbca3ef90",
    ("GML", "<1>a & ~<2>a"): "35646e847b2801544abaad2ecef19d7618fa4a38ad690a70d7161a4f35192077",
    ("MAJ", "W a & W ~a"): "f0183d31c2fd8344c20467f554432ce1a2dc45036a24e903953cd1e5c93182ad",
    ("PML", "L{1/3}a & L{1/3}b & L{1/3}(~a & ~b)"): "3b7a1ee60d2ccc9ca77897e08adeaf005d96295d69c96de628814ff751bd2876",
    ("COAL", "[C 1]a & ~[C 2]a"): "c4059bbf2c7f4652055c462cea9d3d80327b79d1d7e9fa5db8dcdf6cf1a91dbe",
}


@pytest.mark.parametrize("logic,text,expected", BF_CASES)
def test_brute_force_known_cases(logic, text, expected):
    cfg = LogicConfig(logic=logic)
    f = parse(text, cfg.n_agents)
    w = brute_force_sat(f, cfg)
    assert (w is not None) == expected
    if w is not None:
        assert model_check(w, w.root, f)
        assert model_sha256(w) == BF_MODEL_SHA256[(logic, text)]


# -- resolution ---------------------------------------------------------------


def _unit_linear_codes(rng, cfg, count):
    """Sound unit-coefficient codes with at least one positive and one
    negative literal."""
    out = []
    while len(out) < count:
        q = rng.randrange(2, 4)
        ints = tuple(rng.choice((1, -1)) for _ in range(q))
        if 1 not in ints or -1 not in ints:
            continue
        if cfg.logic == "GML":
            code = RuleCode(
                "GML",
                "GML",
                ints + (0,),
                (),
                tuple(rng.randrange(0, 3) for _ in range(q)),
                (),
            )
        elif cfg.logic == "MAJ":
            grades = tuple(
                -1 if rng.random() < 0.5 else rng.randrange(0, 3) for _ in range(q)
            )
            code = RuleCode("MAJ", "MAJ", ints + (rng.choice((-1, 0, 1)),), (), grades, ())
        else:
            rationals = tuple(
                Fraction(rng.randrange(0, 4), rng.randrange(1, 4)) for _ in range(q)
            )
            rationals = tuple(min(r, Fraction(1)) for r in rationals)
            code = RuleCode("PML", "PML", ints + (rng.choice((-1, 0, 1)),), rationals, (), ())
        if side_condition(code, cfg):
            out.append(code)
    return out


def _resolvable(c1, c2):
    pairs = []
    for i, r in enumerate(c1.ints[:-1]):
        if r != 1:
            continue
        for j, r2 in enumerate(c2.ints[:-1]):
            if r2 != -1:
                continue
            if c1.scheme == "PML":
                if c1.rationals[i] == c2.rationals[j]:
                    pairs.append((i, j))
            elif c1.grades[i] == c2.grades[j]:
                pairs.append((i, j))
    return pairs


@pytest.mark.parametrize("logic", ("GML", "MAJ", "PML"))
def test_resolvents_of_sound_rules_are_sound(logic):
    cfg = LogicConfig(logic=logic)
    rng = random.Random(11)
    checked = 0
    codes = _unit_linear_codes(rng, cfg, 120)
    for c1 in codes:
        for c2 in codes:
            for i, j in _resolvable(c1, c2):
                r = resolve_rules(c1, c2, i, j)
                assert r is not None
                assert side_condition(r, cfg), (c1, c2, r)
                assert one_step_sound(r, cfg, max_carrier=2), (c1, c2, r)
                checked += 1
                break
            if checked >= 50:
                break
        if checked >= 50:
            break
    assert checked >= 50


def test_resolve_rules_rejects_mismatched_pivot():
    cfg = LogicConfig(logic="GML")
    c1 = RuleCode("GML", "GML", (1, -1, 0), (), (1, 1), ())
    c2 = RuleCode("GML", "GML", (1, -1, 0), (), (1, 2), ())
    # c2's negative literal has grade 2, c1's positive pivot grade 1.
    assert resolve_rules(c1, c2, 0, 1) is None
    # Wrong polarity.
    assert resolve_rules(c1, c2, 1, 0) is None


# -- completeness probe -------------------------------------------------------


def test_probe_finds_k_matching():
    cfg = LogicConfig(logic="K")
    chi = ((True, Box()), (False, Box()))
    tau = (frozenset({0, 1}), frozenset({0}))
    assert clause_valid_on(chi, tau, 2, cfg)
    assert strict_completeness_probe(chi, tau, 2, cfg) is not None


def test_probe_finds_congruence_for_e():
    cfg = LogicConfig(logic="E")
    chi = ((False, Box()), (True, Box()))
    tau = (frozenset({0}), frozenset({0}))
    assert clause_valid_on(chi, tau, 2, cfg)
    assert strict_completeness_probe(chi, tau, 2, cfg) is not None


def test_probe_random_valid_clauses():
    rng = random.Random(17)
    from modalsat.sampling import random_operator

    for logic in ALL_LOGICS:
        cfg = LogicConfig(logic=logic)
        found = 0
        tried = 0
        attempts = 0
        while found < 8 and attempts < 4000:
            attempts += 1
            n = rng.randrange(0, 3)
            q = rng.randrange(1, 3)
            chi = tuple(
                (rng.random() < 0.5, random_operator(rng, cfg)) for _ in range(q)
            )
            tau = tuple(
                frozenset(x for x in range(n) if rng.random() < 0.5)
                for _ in range(q)
            )
            if not clause_valid_on(chi, tau, n, cfg):
                continue
            tried += 1
            m = strict_completeness_probe(chi, tau, n, cfg)
            if m is not None:
                assert one_step_sound(m.code, cfg, max_carrier=2)
                found += 1
        assert tried > 0, logic
        assert found > 0, logic
