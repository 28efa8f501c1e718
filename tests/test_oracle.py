"""The semantic oracle: one-step soundness, brute-force models, and two
properties of the rule sets checked against it: linear rule instances are
closed under resolution, and the strict completeness probe finds a rule
instance for a clause valid over a concrete argument assignment."""

import itertools
import random
from fractions import Fraction

import pytest

from modalsat import cli, oracle
from modalsat.formula import Box, Coal, GDiamond, LProb, MajW, atom, modal, neg_fold, parse
from modalsat.logics import LogicConfig, challenges, parse_logic_spec, side_condition
from modalsat.onestep import RuleCode, code_operators
from modalsat.oracle import (
    BRANCH_BOUND,
    MAX_DENOMINATOR,
    MAX_MULTIPLICITY,
    MAX_STRATEGIES,
    _SOUNDNESS_CACHE,
    _canonical,
    _canonical_structures,
    _compositions,
    _counterexample,
    _one_step_sound,
    _point_patterns,
    _prefix_levels,
    _TreeEnumerator,
    brute_force_sat,
    one_step_sound,
    structures,
)
from modalsat.certificates import (
    ModelWitness,
    model_check,
    model_to_json,
    validate_structure,
)
from modalsat.sampling import random_formula, random_operator, sample_matchings
from modalsat.semantics import MODEL_KINDS, lift, lifting, relabel

from conftest import ALL_LOGICS, model_sha256, reference_premise, reference_premise_on
from test_logics import _mask_loop_challenges


# -- one-step structures ------------------------------------------------------


def test_powerset_backend_serial():
    assert list(structures(LogicConfig(logic="K"), 0)) == [frozenset()]
    assert list(structures(LogicConfig(logic="KD"), 0)) == []
    assert len(list(structures(LogicConfig(logic="K"), 2))) == 4
    assert len(list(structures(LogicConfig(logic="KD"), 2))) == 3
    # Relational K has a dead end, where [] false holds; serial KD has none.
    nothing = frozenset()
    assert lift("kripke", Box(), frozenset(), nothing)
    for struct in structures(LogicConfig(logic="KD"), 2):
        assert not lift("kripke", Box(), struct, nothing)
    assert lift("kripke", Box(), frozenset({0, 1}), frozenset({0, 1}))
    assert not lift("kripke", Box(), frozenset({0, 1}), frozenset({0}))


def test_neighbourhood_backend_monotone_upclosed():
    mono = LogicConfig(logic="M")
    for alpha in structures(mono, 2):
        if alpha:
            # Every up-closed non-empty collection contains the full carrier.
            assert frozenset({0, 1}) in alpha
    # The empty collection and the full powerset are both up-closed.
    collections = list(structures(mono, 1))
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
    for alpha in structures(mono, 2):
        for inside in subsets:
            assert lift("neighbourhood", Box(), alpha, inside) == lift(
                "neighbourhood", Box(), alpha, inside, monotone=True
            )


def test_distribution_backend_yields_each_distribution_once():
    for n in range(1, 4):
        seen = set()
        want = []
        for den in range(1, MAX_DENOMINATOR + 1):
            for parts in _compositions(den, n):
                dist = tuple(Fraction(p, den) for p in parts)
                if dist not in seen:
                    seen.add(dist)
                    want.append(dict(enumerate(dist)))
        assert list(structures(LogicConfig(logic="PML"), n)) == want


def test_compositions_of_zero_parts():
    assert list(_compositions(0, 0)) == [()]
    assert list(_compositions(2, 0)) == []
    assert list(_compositions(-1, 2)) == []


# Structures over carriers 0 to 3, and full ones over 1 to 4 children.
STRUCTURE_COUNTS = {
    "K": (1, 2, 4, 8),
    "KD": (0, 1, 3, 7),
    "E": (2, 4, 16, 256),
    "M": (2, 3, 6, 20),
    "GML": (1, 5, 25, 125),
    "MAJ": (1, 5, 25, 125),
    "PML": (0, 1, 47, 334),
    "COAL:2": (0, 4, 26, 102),
}
FULL_COUNTS = {"GML": (4, 16, 64, 256), "PML": (1, 45, 196, 479)}


@pytest.mark.parametrize("spec", sorted(STRUCTURE_COUNTS))
def test_structure_counts_pinned(spec):
    cfg = parse_logic_spec(spec)
    counts = tuple(sum(1 for _ in structures(cfg, n)) for n in range(4))
    assert counts == STRUCTURE_COUNTS[spec]
    if spec in FULL_COUNTS:
        full = tuple(sum(1 for _ in structures(cfg, n, True)) for n in range(1, 5))
        assert full == FULL_COUNTS[spec]


@pytest.mark.parametrize(
    "spec", ["E", "M", "K", "KD", "GML", "MAJ", "PML", "COAL:1", "COAL:2", "COAL:3"]
)
def test_structures_pass_the_validator(spec):
    # The validator's frame conditions (KD seriality, M up-closure, PML sums,
    # COAL totality) come from the logic, not from the witness's flags.
    cfg = parse_logic_spec(spec)
    for n in range(1, 4):
        for full in (False, True):
            for struct in structures(cfg, n, full):
                w = ModelWitness(
                    kind=MODEL_KINDS[cfg.logic],
                    root=0,
                    states=list(range(n)),
                    labels={s: frozenset() for s in range(n)},
                    monotone=False,
                )
                w.structs.update(dict.fromkeys(range(n), struct))
                assert validate_structure(w, cfg) == (True, "ok"), (n, struct)


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


def _reference_one_step_sound(code, cfg, max_carrier):
    """One-step soundness checked assignment by assignment: every structure,
    every premise-validating argument assignment, one ``lift`` per literal."""
    q = code.arity()
    ops = code_operators(code, cfg.n_agents)
    signs = code.signs()
    kind = MODEL_KINDS[cfg.logic]
    for n in range(max_carrier + 1):
        subsets = [
            frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)
        ]
        taus = [
            tau
            for tau in itertools.product(subsets, repeat=q)
            if reference_premise_on(code, tau, n)
        ]
        if not taus:
            continue
        for struct in structures(cfg, n):
            for tau in taus:
                if not any(
                    lift(kind, ops[i], struct, tau[i], cfg.logic == "M") == signs[i]
                    for i in range(q)
                ):
                    return False
    return True


def _flip_first(code):
    """``code`` with its first conclusion literal's sign flipped, which
    usually makes it unsound."""
    return RuleCode(
        code.logic,
        code.scheme,
        (-code.ints[0],) + code.ints[1:],
        code.rationals,
        code.grades,
        code.coalitions,
    )


def _assert_matches_reference(cfg, count, max_carrier):
    rng = random.Random(29)
    verdicts = []
    for m in sample_matchings(rng, cfg, count):
        for code in (m.code, _flip_first(m.code)):
            got = _one_step_sound(code, cfg, max_carrier)
            assert got == _reference_one_step_sound(code, cfg, max_carrier), code
            verdicts.append(got)
    assert True in verdicts and False in verdicts, cfg


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_one_step_sound_matches_per_assignment_reference(logic):
    max_carrier = 2 if logic in ("PML", "COAL") else 3
    _assert_matches_reference(LogicConfig(logic=logic), 12, max_carrier)


def test_one_step_sound_matches_reference_for_three_agents():
    # Three-agent games meet the pruned search at carrier 2.
    _assert_matches_reference(parse_logic_spec("COAL:3"), 6, 2)


@pytest.mark.parametrize("logic", ["PML", "COAL"])
def test_one_step_sound_matches_reference_at_carrier_3(logic):
    # The reference is slow at carrier 3 for these two, so the sample is
    # smaller than above.
    _assert_matches_reference(LogicConfig(logic=logic), 3, 3)


def test_one_step_sound_shares_one_cache_across_logics():
    # Each pair shares operators or structures: K and KD share Box over
    # different structures, E and M share Box but differ in monotonicity, and
    # COAL:2 and COAL:3 differ in their agents (their operators carry the
    # agent count, their games do not).  The pair's codes are interleaved
    # without emptying the cache, so a table keyed without the logic or the
    # agents would be read by the other logic of its pair.
    _SOUNDNESS_CACHE.clear()
    for pair, count in ((("K", "KD"), 8), (("E", "M"), 8), (("COAL:2", "COAL:3"), 4)):
        cfgs = [parse_logic_spec(spec) for spec in pair]
        batches = [
            [
                code
                for m in sample_matchings(random.Random(41), cfg, count)
                for code in (m.code, _flip_first(m.code))
            ]
            for cfg in cfgs
        ]
        for codes in zip(*batches):
            for cfg, code in zip(cfgs, codes):
                got = _one_step_sound(code, cfg, 2)
                assert got == _reference_one_step_sound(code, cfg, 2), (cfg, code)


def test_selftest_prepares_each_operator_once_per_structure(monkeypatch, capsys):
    # K has one operator, and 1, 2, 3 and 4 representatives over 0 to 3
    # points: 1 + 2 + 3 + 4 = 10 liftings for the whole batch, each read for
    # every argument set, where lifting anew for every rule made 768 lifts.
    calls = []

    def spy(*args):
        calls.append(args)
        return lifting(*args)

    monkeypatch.setattr(oracle, "lifting", spy)
    _SOUNDNESS_CACHE.clear()
    argv = ["--logic", "K", "selftest-rules", "--count", "25", "--seed", "1"]
    assert cli.main(argv) == 0
    assert "checked 25 sampled rule instances: all sound" in capsys.readouterr().out
    assert 0 < len(calls) <= 1 + 2 + 3 + 4


def test_pml_representatives_match_the_orbit_filter():
    cfg = LogicConfig(logic="PML")
    _SOUNDNESS_CACHE.clear()
    for n in range(4):
        want = [
            t
            for t in structures(cfg, n)
            if _canonical("distribution", t)
        ]
        assert _canonical_structures(cfg, n) == want
    assert len(want) == 68


def _orbit_errors(kind, n, structures, keep):
    """What is wrong with ``keep`` as a choice of one representative per
    orbit of ``structures`` under permutations of the carrier ``0 .. n - 1``:
    the kept structures that relabel to each other, and the structures that
    no kept one relabels to."""

    def key(struct):
        if kind == "kripke":
            return frozenset(struct)
        if kind == "game":
            return (struct[0], tuple(sorted(struct[1].items())))
        return tuple(sorted(struct.items()))

    errors = []
    covered = set()
    for struct in structures:
        if not keep(struct):
            continue
        orbit = {
            key(relabel(kind, struct, perm.__getitem__))
            for perm in itertools.permutations(range(n))
        }
        if orbit & covered:
            errors.append(("duplicate", key(struct)))
        covered |= orbit
    everything = {key(t) for t in structures}
    errors.extend(("missed", k) for k in everything - covered)
    errors.extend(("stray", k) for k in covered - everything)
    return errors


@pytest.mark.parametrize(
    "spec", ["K", "KD", "GML", "MAJ", "PML", "COAL:1", "COAL:2", "COAL:3"]
)
def test_canonical_structures_cover_each_orbit_once(spec):
    cfg = parse_logic_spec(spec)
    kind = MODEL_KINDS[cfg.logic]
    for n in range(4):
        every = list(structures(cfg, n))
        assert _orbit_errors(kind, n, every, lambda t: _canonical(kind, t)) == []


def test_orbit_check_rejects_wrong_representatives():
    every = list(structures(LogicConfig(logic="GML"), 3))

    def decreasing(struct):
        ws = list(struct.values())
        return all(a > b for a, b in zip(ws, ws[1:]))

    # Strictly decreasing weights miss every orbit with a repeated weight;
    # keeping everything keeps each orbit more than once.
    assert ("missed", ((0, 1), (1, 1), (2, 0))) in _orbit_errors(
        "multigraph", 3, every, decreasing
    )
    assert ("duplicate", ((0, 0), (1, 1), (2, 0))) in _orbit_errors(
        "multigraph", 3, every, lambda t: True
    )


@pytest.mark.parametrize("spec", ALL_LOGICS + ("COAL:3",))
def test_point_patterns_are_the_reference_single_point_patterns(spec):
    # The oracle reads its per-point patterns off the premise CNF clauses
    # that the solver demands; they are exactly the sign patterns under
    # which the semantic premise holds at one point.
    cfg = parse_logic_spec(spec)
    for m in sample_matchings(random.Random(23), cfg, 60):
        q = m.code.arity()
        want = [
            bits
            for bits in range(1 << q)
            if reference_premise(m.code, [bool(bits >> i & 1) for i in range(q)])
        ]
        assert _point_patterns(m.code) == want, m.code


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_pruned_search_reaches_exactly_the_premise_assignments(logic):
    # Clause premises (E, M, K, KD, COAL) and linear ones (GML, MAJ, PML):
    # give one representative and, per literal, a failure table that holds
    # at one argument set only.  The search over one point's patterns finds
    # a counterexample exactly when those argument sets pass the premise
    # check over the whole carrier.
    cfg = LogicConfig(logic=logic)
    rejected = 0
    for m in sample_matchings(random.Random(31), cfg, 6):
        q = m.code.arity()
        patterns = _point_patterns(m.code)
        for n in range(4):
            subsets = [
                frozenset(x for x in range(n) if mask >> x & 1)
                for mask in range(1 << n)
            ]
            for tau in itertools.product(range(1 << n), repeat=q):
                levels = [
                    _prefix_levels([int(mask == t) for mask in range(1 << n)], n)
                    for t in tau
                ]
                want = reference_premise_on(m.code, [subsets[t] for t in tau], n)
                assert _counterexample(levels, patterns, n, 1) == want, (m.code, tau)
                rejected += not want
    assert rejected, logic


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


def resolve_rules(code1: RuleCode, code2: RuleCode, i: int, j: int):
    """Cut two unit-coefficient linear rule instances on a pivot: literal
    ``i`` of the first (must be positive, coefficient +1) against literal
    ``j`` of the second (negative, coefficient -1) over the same operator.
    Returns the combined instance, or None when the pivot does not line up."""
    if code1.scheme != code2.scheme or code1.scheme not in ("GML", "MAJ", "PML"):
        return None
    if any(abs(r) != 1 for r in code1.ints[:-1] + code2.ints[:-1]):
        return None
    q1, q2 = code1.arity(), code2.arity()
    if not (0 <= i < q1 and 0 <= j < q2):
        return None
    if code1.ints[i] != 1 or code2.ints[j] != -1:
        return None

    def op_key(code, k):
        if code.scheme in ("GML", "MAJ"):
            return code.grades[k]
        return code.rationals[k]

    if op_key(code1, i) != op_key(code2, j):
        return None
    ints = (
        tuple(r for k, r in enumerate(code1.ints[:-1]) if k != i)
        + tuple(r for k, r in enumerate(code2.ints[:-1]) if k != j)
        + (code1.ints[-1] + code2.ints[-1],)
    )
    grades = tuple(g for k, g in enumerate(code1.grades) if k != i) + tuple(
        g for k, g in enumerate(code2.grades) if k != j
    )
    rationals = tuple(r for k, r in enumerate(code1.rationals) if k != i) + tuple(
        r for k, r in enumerate(code2.rationals) if k != j
    )
    return RuleCode(code1.logic, code1.scheme, ints, rationals, grades, ())


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


def clause_valid_on(chi, tau, n: int, cfg: LogicConfig) -> bool:
    """Is the abstract clause ``chi`` (pairs of sign and operator) true under
    every structure, given the argument subsets ``tau``?"""
    kind = MODEL_KINDS[cfg.logic]
    for struct in structures(cfg, n):
        if not any(
            lift(kind, op, struct, tau[i], cfg.logic == "M") == s
            for i, (s, op) in enumerate(chi)
        ):
            return False
    return True


def strict_completeness_probe(chi, tau, n: int, cfg: LogicConfig, challenges=challenges):
    """Given a clause of signed operators valid over ``tau``, find a rule
    instance whose conclusion is a subclause and whose premise holds pointwise
    on the carrier, among the candidates ``challenges`` offers.  Returns None
    when no instance is found."""
    lits = tuple((s, modal(op, atom("v%d" % i))) for i, (s, op) in enumerate(chi))
    position = {a: i for i, (_, a) in enumerate(lits)}
    # The argument sign pattern of each carrier point, over all literals.
    sat_bits = {sum(1 << k for k in range(len(lits)) if x in tau[k]) for x in range(n)}
    for sub, cands in challenges(tuple((not s, a) for s, a in lits), cfg, sat_bits):
        sub_tau = tuple(tau[position[a]] for _, a in sub)
        for m in cands:
            if reference_premise_on(m.code, sub_tau, n):
                return m
    return None


def test_probe_finds_k_matching():
    cfg = LogicConfig(logic="K")
    chi = ((True, Box()), (False, Box()))
    tau = (frozenset({0, 1}), frozenset({0}))
    assert clause_valid_on(chi, tau, 2, cfg)
    assert strict_completeness_probe(chi, tau, 2, cfg) is not None


def test_probe_prefers_the_k_instance_to_congruence():
    # Both arguments hold on the same points, so congruence's premise holds
    # too; its first demand is the K instance's, and only the K instance is
    # offered.
    cfg = LogicConfig(logic="K")
    chi = ((False, Box()), (True, Box()))
    tau = (frozenset({0}), frozenset({0}))
    assert clause_valid_on(chi, tau, 2, cfg)
    assert strict_completeness_probe(chi, tau, 2, cfg).code.scheme == "K"


def test_probe_finds_congruence_for_e():
    cfg = LogicConfig(logic="E")
    chi = ((False, Box()), (True, Box()))
    tau = (frozenset({0}), frozenset({0}))
    assert clause_valid_on(chi, tau, 2, cfg)
    assert strict_completeness_probe(chi, tau, 2, cfg) is not None


def _three_pairs_clause():
    """The root clause of ``THREE_PAIRS`` in test_solver.py over the carrier
    {ab, ac, bc}: its negated literals, with the points where each argument
    holds."""
    ab_ac, ab_bc, ac_bc = frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})
    chi = ((False, GDiamond(0)), (True, GDiamond(1))) * 3 + ((True, GDiamond(0)),) * 4
    tau = (ab_ac, ab_ac, ab_bc, ab_bc, ac_bc, ac_bc) + (frozenset(),) * 4
    return chi, tau


def test_three_pairs_clause_is_valid_over_the_pairs():
    chi, tau = _three_pairs_clause()
    assert clause_valid_on(chi, tau, 3, LogicConfig(logic="GML"))


@pytest.mark.xfail(strict=True, reason="known GML incompleteness: no rule instance found")
def test_probe_finds_a_gml_rule_for_the_three_pairs_clause():
    chi, tau = _three_pairs_clause()
    assert strict_completeness_probe(chi, tau, 3, LogicConfig(logic="GML")) is not None


def _valid_clauses(rng, cfg, max_width=2, attempts=4000):
    """Random clauses of up to ``max_width`` signed operators over carriers
    of at most two points, each with argument sets that make it valid."""
    for _ in range(attempts):
        n = rng.randrange(0, 3)
        q = rng.randrange(1, max_width + 1)
        chi = tuple((rng.random() < 0.5, random_operator(rng, cfg)) for _ in range(q))
        tau = tuple(
            frozenset(x for x in range(n) if rng.random() < 0.5) for _ in range(q)
        )
        if clause_valid_on(chi, tau, n, cfg):
            yield chi, tau, n


def _random_probes():
    """Per logic, the valid clauses ``test_probe_random_valid_clauses``
    probes, each with the probe's answer, until eight answers are found."""
    rng = random.Random(17)
    out = {}
    for logic in ALL_LOGICS:
        cfg = LogicConfig(logic=logic)
        probes = out[logic] = []
        for chi, tau, n in _valid_clauses(rng, cfg):
            probes.append((chi, tau, n, strict_completeness_probe(chi, tau, n, cfg)))
            if sum(m is not None for *_, m in probes) == 8:
                break
    return out


def test_probe_random_valid_clauses():
    for logic, probes in _random_probes().items():
        cfg = LogicConfig(logic=logic)
        found = [m for *_, m in probes if m is not None]
        assert probes, logic
        assert found, logic
        for m in found:
            assert one_step_sound(m.code, cfg, max_carrier=2)


@pytest.mark.parametrize("logic", ["K", "KD"])
def test_probe_finds_what_the_full_clause_loop_finds(logic):
    # K and KD challenge only maximal clauses.  The probe must still find an
    # instance wherever asking every clause a rule matches finds one: on the
    # clauses probed above, on the K clause probed by hand, and on wider
    # random clauses, where the maximal clauses leave most sub-clauses out.
    cfg = LogicConfig(logic=logic)
    clauses = [(chi, tau, n) for chi, tau, n, _ in _random_probes()[logic]]
    clauses.append((((True, Box()), (False, Box())), (frozenset({0, 1}), frozenset({0})), 2))
    clauses += itertools.islice(_valid_clauses(random.Random(23), cfg, max_width=4), 80)
    maximal = [strict_completeness_probe(chi, tau, n, cfg) for chi, tau, n in clauses]
    full = [
        strict_completeness_probe(chi, tau, n, cfg, _mask_loop_challenges)
        for chi, tau, n in clauses
    ]
    assert [m is None for m in maximal] == [m is None for m in full]
    assert sum(m is not None for m in maximal) >= 20
    for m in maximal:
        if m is not None:
            assert one_step_sound(m.code, cfg, max_carrier=2)


# -- the tree search against its candidate-by-candidate form -------------------


def _reference_child_structs(enum, children):
    """The structures over a fixed non-empty tuple of child protos."""
    kind = enum.kind
    if kind == "kripke":
        yield children
    elif kind == "multigraph":
        for ws in itertools.product(range(1, MAX_MULTIPLICITY + 1), repeat=len(children)):
            yield dict(zip(children, ws))
    elif kind == "distribution":
        seen = set()
        for den in range(len(children), MAX_DENOMINATOR + 1):
            for parts in _compositions(den - len(children), len(children)):
                probs = tuple(Fraction(p + 1, den) for p in parts)
                if probs in seen:
                    continue
                seen.add(probs)
                yield dict(zip(children, probs))
    elif kind == "game":
        for sizes in itertools.product(
            range(1, MAX_STRATEGIES + 1), repeat=enum.cfg.n_agents
        ):
            profiles = list(itertools.product(*(range(s) for s in sizes)))
            for outs in itertools.product(children, repeat=len(profiles)):
                yield (sizes, dict(zip(profiles, outs)))


@pytest.mark.parametrize("spec", ("K", "KD", "COAL:1", "COAL:2", "GML", "PML"))
def test_child_structs_match_reference(spec):
    cfg = parse_logic_spec(spec)
    enum = _TreeEnumerator(parse("a", cfg.n_agents), cfg)
    for size in range(1, BRANCH_BOUND + 1):
        children = tuple("c%d" % i for i in range(size))
        got = [
            relabel(enum.kind, t, children.__getitem__)
            for t in structures(cfg, size, full=True)
        ]
        assert got == list(_reference_child_structs(enum, children)), size


# The structure of a state with no real children; ``None`` is the state
# itself.
TERMINAL = {
    "K": (),
    "KD": (None,),
    "GML": {},
    "MAJ": {},
    "PML": {None: Fraction(1)},
    "COAL:1": ((1,), {(0,): None}),
    "COAL:2": ((1, 1), {(0, 0): None}),
    "COAL:3": ((1, 1, 1), {(0, 0, 0): None}),
    "COAL:5": ((1, 1, 1, 1, 1), {(0, 0, 0, 0, 0): None}),
}


def _spec(cfg):
    return "COAL:%d" % cfg.n_agents if cfg.logic == "COAL" else cfg.logic


@pytest.mark.parametrize("spec", sorted(TERMINAL))
def test_terminal_structure_pinned(spec):
    cfg = parse_logic_spec(spec)
    terminal = _TreeEnumerator(parse("a", cfg.n_agents), cfg).terminal
    assert terminal == TERMINAL[spec]
    assert type(terminal) is type(TERMINAL[spec])


class _OverBudget(Exception):
    pass


# Protos the reference may build before it gives up on a formula.
REFERENCE_PROTOS = 5000


def _reference_search(enum, depth_bound):
    """The tree search with every candidate built as a proto and every
    tracked formula evaluated on it, in the order (size, children, label,
    structure)."""
    level = []
    vectors = set()

    def make(label, struct):
        w = enum.w
        if len(w.states) >= REFERENCE_PROTOS:
            raise _OverBudget()
        proto = len(w.states)
        w.states.append(proto)
        w.labels[proto] = label
        w.structs[proto] = relabel(
            enum.kind, struct, lambda t: proto if t is None else t
        )
        return proto

    def tracked(d):
        names = tuple(enum.prop_names)
        return names, tuple(g for g in enum.args if g.depth <= d)

    def vec(proto, d):
        names, gs = tracked(d)
        return (
            tuple(nm in enum.w.labels[proto] for nm in names),
            tuple(enum.check(proto, g) for g in gs),
        )

    def add(proto, d, pool):
        v = vec(proto, d)
        if v not in vectors:
            vectors.add(v)
            pool.append(proto)

    terminal = TERMINAL[_spec(enum.cfg)]

    def candidates(pool):
        for label in enum._labels():
            yield make(label, terminal)
        for size in range(1, BRANCH_BOUND + 1):
            for children in itertools.combinations(pool, size):
                for label in enum._labels():
                    for struct in _reference_child_structs(enum, children):
                        yield make(label, struct)

    if depth_bound == 0:
        for label in enum._labels():
            proto = make(label, terminal)
            if enum.check(proto, enum.f):
                return proto
        return None

    for d in range(depth_bound):
        new_pool = []
        vectors = set()
        for proto in level:
            add(proto, d, new_pool)
        if d == 0:
            for label in enum._labels():
                add(make(label, terminal), d, new_pool)
        else:
            for proto in candidates(level):
                add(proto, d, new_pool)
        level = new_pool
    for proto in candidates(level):
        if enum.check(proto, enum.f):
            return proto
    return None


def _witness_json(enum, root):
    return None if root is None else model_to_json(enum.materialize(root))


@pytest.mark.parametrize("spec", ("K", "KD", "COAL:2", "COAL:3", "GML", "MAJ", "PML"))
def test_tree_search_matches_reference(spec):
    cfg = parse_logic_spec(spec)
    rng = random.Random(41)
    outcomes = []
    for _ in range(60):
        f = random_formula(rng, cfg, max_depth=2, size_budget=9)
        for g in (f, neg_fold(f)):
            ref = _TreeEnumerator(g, cfg)
            try:
                want = _witness_json(ref, _reference_search(ref, g.depth))
            except _OverBudget:
                continue
            enum = _TreeEnumerator(g, cfg)
            assert _witness_json(enum, enum.search(g.depth)) == want, g
            outcomes.append(want is not None)
    assert outcomes.count(True) >= 20 and outcomes.count(False) >= 5, spec


def test_tree_search_wide_coalitions_match_reference():
    # Two distinct successors under five agents: two children have 2^32
    # game tables, so the root must walk them lazily and stop at its hit.
    cfg = parse_logic_spec("COAL:5")
    f = parse("[C 1,2,3,4,5]a & [C 1,2,3,4,5]~a", cfg.n_agents)
    ref = _TreeEnumerator(f, cfg)
    want = _witness_json(ref, _reference_search(ref, f.depth))
    assert want is not None
    enum = _TreeEnumerator(f, cfg)
    assert _witness_json(enum, enum.search(f.depth)) == want


def test_tree_search_finds_three_successors_under_four_agents():
    # Three successors under four agents: three children have 3^16 game
    # tables per choice of children.  The reference would build about 1.6
    # million candidates over two children first, so the witness is written
    # out instead: no two children can satisfy the three pairwise exclusive
    # arguments, the first combination of three (labels {}, {a}, {b}) can,
    # and the first game over it reaching all three is strategy counts
    # (1, 1, 2, 2) with outcomes 0, 0, 1, 2 in profile order.
    cfg = parse_logic_spec("COAL:4")
    f = parse(
        "[C 1,2,3,4](~a & ~b) & [C 1,2,3,4](a & ~b) & [C 1,2,3,4](~a & b)",
        cfg.n_agents,
    )
    enum = _TreeEnumerator(f, cfg)
    root = enum.search(f.depth)
    assert root is not None
    want = ModelWitness(
        kind="game",
        root=0,
        states=[0, 1, 2, 3],
        labels={
            0: frozenset(),
            1: frozenset(),
            2: frozenset({"a"}),
            3: frozenset({"b"}),
        },
        structs={
            0: (
                (1, 1, 2, 2),
                {(0, 0, 0, 0): 1, (0, 0, 0, 1): 1, (0, 0, 1, 0): 2, (0, 0, 1, 1): 3},
            ),
            **{s: ((1, 1, 1, 1), {(0, 0, 0, 0): s}) for s in (1, 2, 3)},
        },
    )
    assert model_check(want, 0, f)
    assert _witness_json(enum, root) == model_to_json(want)


# Two crosscheck formulas on which the candidate-by-candidate search built
# 176155 and 366209 protos; each is pinned by its witness digest and by a
# bound on the protos built.
HEAVY_CASES = [
    (
        "GML",
        "<2> <0> q & <0> ~(n & ~b)",
        "1f320a539f0799df420fca5a2efc4dc1c260156ec29ecb5b50eb9c1643fed2a6",
        40,
    ),
    (
        "PML",
        "L{1/2} L{0/1} ~(~~(y & ~m) & ~~(m & ~r))",
        "c6c1f906c7fd7abeefe69e0e11b437406df6f26a1a5e3202c3b9c9824ebff892",
        20,
    ),
]


@pytest.mark.parametrize("logic,text,digest,max_protos", HEAVY_CASES)
def test_tree_search_builds_few_protos(logic, text, digest, max_protos):
    cfg = LogicConfig(logic=logic)
    f = parse(text, cfg.n_agents)
    enum = _TreeEnumerator(f, cfg)
    root = enum.search(f.depth)
    assert root is not None
    assert len(enum.w.states) <= max_protos
    assert model_sha256(enum.materialize(root)) == digest
