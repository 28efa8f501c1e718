"""End-to-end acceptance checks: a hand-picked validity corpus, certificate
soundness on random corpora, brute-force oracle agreement, rule-set
soundness under sampling and resolution, structural bounds, and
determinism of all JSON artifacts."""

import json
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    ALL_LOGICS,
    ARITH,
    config_for,
    corpus,
    max_atoms_per_level,
    model_sha256,
    proof_sha256,
    proof_within_subformulas,
)
from modalsat.certificates import (
    certificate_to_json,
    check_proof,
    check_tableau,
    extract_proof,
    extract_tableau,
    model_check,
    tableau_to_model,
    validate_structure,
)
from modalsat.formula import neg, neg_fold, parse
from modalsat.logics import LogicConfig, side_condition
from modalsat.onestep import RuleCode
from modalsat.oracle import brute_force_sat, one_step_sound, resolve_rules
from modalsat.sampling import sample_matchings
from modalsat.solver import satisfiable

# ---------------------------------------------------------------------------
# 1. Validity corpus
# ---------------------------------------------------------------------------


def bang(n: int, body: str) -> str:
    """Exactly-n counting abbreviation over the graded diamond."""
    if n == 0:
        return "~<0>(%s)" % body
    return "(<%d>(%s) & ~<%d>(%s))" % (n - 1, body, n, body)


def gbox(body: str) -> str:
    """Graded box: no successor falsifies the body."""
    return "~<0>~(%s)" % body


VALID = [
    ("K", "[](a -> b) -> ([]a -> []b)"),
    ("KD", "[](a -> b) -> ([]a -> []b)"),
    ("KD", "~[]false"),
    ("E", "(a -> a)"),
    ("M", "[](a & b) -> []a"),
    # Graded: diamond antitone in the grade.
    ("GML", "<1>a -> <0>a"),
    ("GML", "<2>a -> <1>a"),
    ("GML", "<3>a -> <2>a"),
    # Graded: box distributes over implication at every grade.
    ("GML", "%s -> (<0>a -> <0>b)" % gbox("a -> b")),
    ("GML", "%s -> (<1>a -> <1>b)" % gbox("a -> b")),
    ("GML", "%s -> (<2>a -> <2>b)" % gbox("a -> b")),
    # Graded: exact counts of disjoint sets add.
    ("GML", "%s -> ((%s & %s) -> %s)" % (bang(0, "a & b"), bang(0, "a"), bang(0, "b"), bang(0, "a | b"))),
    ("GML", "%s -> ((%s & %s) -> %s)" % (bang(0, "a & b"), bang(1, "a"), bang(0, "b"), bang(1, "a | b"))),
    ("GML", "%s -> ((%s & %s) -> %s)" % (bang(0, "a & b"), bang(1, "a"), bang(1, "b"), bang(2, "a | b"))),
    ("GML", "%s -> ((%s & %s) -> %s)" % (bang(0, "a & b"), bang(2, "a"), bang(1, "b"), bang(3, "a | b"))),
    # Graded: the box holds of the constant truth.
    ("GML", gbox("true")),
    # Majority: two weak majorities overlap.
    ("MAJ", "M a & M b -> <0>(a & b)"),
    ("MAJ", "M a & %s -> M b" % gbox("a -> b")),
    ("MAJ", "W a & W b & <0>(~a & ~b) -> <0>(a & b)"),
    ("MAJ", "W a & W b & <1>(~a & ~b) -> <1>(a & b)"),
    ("MAJ", "W a & M b & <0>(~a & ~b) -> <1>(a & b)"),
    ("MAJ", "W a & M b & <1>(~a & ~b) -> <2>(a & b)"),
    # Probabilistic: trivial bounds, total mass, and additivity boundaries.
    ("PML", "L{0/1}a"),
    ("PML", "L{1/1}true"),
    ("PML", "~L{2/3}a | ~L{2/3}~a"),
    ("PML", "~L{1/1}a | ~L{1/2}~a"),
    ("PML", "L{1/2}a | L{1/2}~a"),
    ("PML", "L{2/3}a | L{1/3}~a"),
    # Coalitions: monotone, superadditive, and jointly consistent.
    ("COAL:2", "[C 1]a -> [C 1,2]a"),
    ("COAL:2", "[C 1]a & [C 2]b -> [C 1,2](a & b)"),
    ("COAL:2", "~([C 1]a & [C 2]~a)"),
    ("COAL:2", "[C 1,2](a | ~a)"),
]

# sha256 of each VALID formula's proof JSON, in VALID order: pins the bytes
# of every proof the solver's refutation yields.
VALID_PROOF_SHA256 = dict(
    zip(
        VALID,
        [
            "be3199b5b9e37e779aff79893a84a0dd782d909d71faf559b14ab8db6c4bfd22",
            "4d2d88f78049b5fab38791c09aa40b14d42132865b8ebc3a58c906bb52c03f05",
            "7f928203d9b0604bb17ad9794e9dd7dc3b6075e4f35155306ed757976c4b4154",
            "ba3159c9e3ad17c87bcc5a2141fd8276510d71bd6f7a77f2839cdff74ab67bfb",
            "f3a7566e984d4522e5bb187ca7ccc01dad4af3588a7ad857b524355eac5c3238",
            "d6effa08132b098ce808359f504563c56f3b8ef8ff2da73423d10c2df2c0603f",
            "d472fd1334bec79ffb35ed1484a39cefa167aa71e26aa18f933b862f388c2adf",
            "c38308d3e1e3fff2aa616e1183b4f47074e941a67bccdb2aa9fa64e5aba4f974",
            "bce46a9f5e80b437b5b0dc59590ab6d1c62aca9ee11f5b4936b00f7bb898a504",
            "f456c03cff728e59e506c8c5bb7dac593cc10fcb4064701786aecb5bf708a8bc",
            "ae193f8c5deaba8c79ed7b2f1b6abcc975b1f4096a748e8fc77f29a08349e80f",
            "6dad17582134a9e493af2ea531dd51423ab5404e9fc16400cf254c92ed50c1a9",
            "bbfd701ffabed0f606ff9b58fce178ec9ef67f48240221cbca0d415d7637d57f",
            "9a6beae9acafae31bea8696996de6c843b67187d684def8a1145c351347e2943",
            "f2bb630b5798804959a62ae9029ed33599eb96ea61622a299f8654b2bece7cf8",
            "3397d26d2cf3779c712ee452799b6bbc76b768a8ddd6b5c8cf7ea3439e9d7e7f",
            "66483464832dc8b549044cbe32d64f0d2e2d8c60a2b4f847fa100638f10558d4",
            "d933ac1e1cfbf84c3105fb3fbf099395d5818046a5a2adfa17cb45a27aad32ac",
            "e963273329cd8a2ff20c5a475cd67168079c1ef58c8f412a9c287d5e03ace083",
            "7e8d3bf2e6ce744115de7838c68c67946e43688178992e874bbeb3616a688231",
            "4b197d415995e150df2f6ab2200c02198d5e2b166869b6d36ad1377572692643",
            "ad4745bba16bbc133e5407f7eca16817da032810cf575f21bfabba661513802c",
            "f5a1ebbb562cab7ac0fae5e0a5d6fb7faf985981c9858a535412897cb6e4fc3a",
            "18b390ec019314300f34f0efd0d90aad115bf4ec7ea1150f15c72cc51abd884f",
            "8ca5b8d5b35273c2ad5fcd323636549a232008dcb5061ccac3322dfac452e7a3",
            "2e5941a1ffaaca9633ca998fac3d74cc926ef766c0d236df57752e9091d1378e",
            "c7195249d0cea22d35f7bc92cc67194e8354627d36711d13a0b14aef79683b9c",
            "bb0a4f106fb360ff60c013a36d6aa20ef84d0d3870ecab5db96c32ce66475a6d",
            "0d9e97a562aabd122beb8b38090e847b75dce407e4680ea3aba49b371443864c",
            "0fecd0a0d2802e5c566972c85d0b4966188158e30be2cd608352bd4bde9aec39",
            "178a02b01dbc7d84ca0324c3cc8e72a4312df4c2d7191c7cff9fc6904767bcc0",
            "e1030a0716a91e0906ee7f9e4f8a0310381282f206cf7c8420cc3a6438d8f4b3",
        ],
    )
)

INVALID = [
    ("K", "[](a | b) -> ([]a | []b)"),
    ("PML", "L{1/2}(a | b) -> (L{1/2}a | L{1/2}b)"),
    ("E", "[](a & b) -> []a"),
    ("GML", "<0>a -> <1>a"),
    ("MAJ", "W a -> M a"),
    ("COAL:2", "[C 1,2]a -> [C 1]a"),
]


def _cfg(spec: str) -> LogicConfig:
    if ":" in spec:
        logic, n = spec.split(":")
        return LogicConfig(logic=logic, n_agents=int(n))
    return LogicConfig(logic=spec)


@pytest.mark.parametrize("spec,text", VALID)
def test_validity_corpus_valid(spec, text):
    cfg = _cfg(spec)
    f = parse(text, cfg.n_agents)
    start = time.monotonic()
    verdict = satisfiable(neg_fold(f), cfg)
    elapsed = time.monotonic() - start
    assert not verdict.satisfiable, text
    assert elapsed < 5.0
    doc = extract_proof(verdict, f, cfg)
    ok, msg = check_proof(doc, f, cfg)
    assert ok, (text, msg)
    assert proof_sha256(doc) == VALID_PROOF_SHA256[(spec, text)], text


@pytest.mark.parametrize("spec,text", INVALID)
def test_validity_corpus_invalid(spec, text):
    cfg = _cfg(spec)
    f = parse(text, cfg.n_agents)
    start = time.monotonic()
    verdict = satisfiable(neg_fold(f), cfg)
    elapsed = time.monotonic() - start
    assert verdict.satisfiable, text
    assert elapsed < 5.0
    # A countermodel exists within the brute-force bounds.
    w = brute_force_sat(neg_fold(f), _cfg(spec))
    assert w is not None, text


# ---------------------------------------------------------------------------
# 2 + 5. Certificate soundness loop with structural assertions
# ---------------------------------------------------------------------------

CORPUS_SIZE = 500

# sha256 of every model the loop below builds, in corpus order, per logic
# (coalition logic synthesizes none): pins model synthesis byte for byte.
LOOP_MODELS_SHA256 = {
    "E": "7baf7fc125afb47429b9cb0747eec3e2cfdfe888844c3da07883efdb37ce9d61",
    "M": "af75a04c7a4345d2021978954c70d0df4a8962fd985daeee99c3a8d79c8dc062",
    "K": "3084441638144fb37c1f0b774864b0b5a7ac4a7b8c3475b8ba0304dd67c426d2",
    "KD": "a45b3086a2d3abd13ff4e791b9918aa9ab7187b0bcb2f2824cd28702fb076f2c",
    "COAL": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "GML": "270e66abdebe5ef874fe1e2f15f8ccf762576d58c4a698a2c860a87f8599654b",
    "MAJ": "572eb3fe72a77c2e1f0b1ff4f59470b7ebcd54c9a3be889ca7a6aaf18aee215c",
    "PML": "ee72c7cd622c4328b86641dd514eaa7756beb17a46cb929ac634c6d4da2f759d",
}


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_certificate_loop(logic):
    cfg, formulas = corpus(logic, CORPUS_SIZE, seed=2024)
    models = []
    for f in formulas:
        verdict = satisfiable(f, cfg)
        assert verdict.stats.recursion_peak <= f.depth
        if verdict.satisfiable:
            tb = extract_tableau(verdict, cfg)
            ok, msg = check_tableau(tb, f, cfg)
            assert ok, (logic, msg)
            if logic == "COAL":
                continue
            w = tableau_to_model(tb, cfg)
            if w is None:
                w = brute_force_sat(f, cfg)
            assert w is not None, logic
            assert model_check(w, w.root, f)
            assert validate_structure(w, cfg) == (True, "ok"), logic
            models.append(w)
        else:
            goal = neg(f)
            doc = extract_proof(verdict, goal, cfg)
            ok, msg = check_proof(doc, goal, cfg)
            assert ok, (logic, msg)
            assert proof_within_subformulas(doc, goal)
    assert model_sha256(*models) == LOOP_MODELS_SHA256[logic]


# ---------------------------------------------------------------------------
# 3. Brute-force oracle agreement
# ---------------------------------------------------------------------------

ORACLE_BUDGET = {"GML": 60, "MAJ": 80, "PML": 40, "COAL": 60}

# sha256 of every witness the oracle finds below, in corpus order, per logic.
ORACLE_MODELS_SHA256 = {
    "E": "c36ffcc410e1258028b5bd2ccc6acabbff0169666170c879cd8406fa3d96b633",
    "M": "bf5c2811bd668d4e8d06f31a5f6adddce467f4e43bbc921c894b438fddc78c2a",
    "K": "000d0fae282afa447383623675b60674c1e44b43a53c825ec7f18ac935633749",
    "KD": "55daa2e1d16f3bb7f798679037a865d0ba02da8585614a300c82932fe9c8224d",
    "COAL": "f957898c032af3e9906a519c8de626bc1192d8ecb36e91144fb2d40f767ef687",
    "GML": "2b87cd137f0bf6fe584f5f935ecaa785ba8e47c5799ba10b290d34bde5c02f1f",
    "MAJ": "ece281055a406cd1e843505bf5bc258d28ae9020bdfecc89c12434dec11a549d",
    "PML": "9ea4d657126c495f07e925bbb8ecee417e244cacb6494a8e483888c70c7da112",
}


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_oracle_agreement(logic):
    budget = ORACLE_BUDGET.get(logic, 120)
    cfg, formulas = corpus(logic, CORPUS_SIZE, seed=2024)
    checked = exact = 0
    models = []
    for f in formulas:
        if checked >= budget:
            break
        if f.depth > 2:
            continue
        checked += 1
        verdict = satisfiable(f, cfg)
        w = brute_force_sat(f, cfg)
        if w is not None:
            # Any witness the oracle finds must be confirmed by the solver.
            assert verdict.satisfiable, (logic, f)
            models.append(w)
        if max_atoms_per_level(f) <= 2:
            # Here bounded tree search is exhaustive: exact agreement.
            exact += 1
            assert verdict.satisfiable == (w is not None), (logic, f)
    assert checked >= 30
    assert exact >= 10
    assert model_sha256(*models) == ORACLE_MODELS_SHA256[logic]


# ---------------------------------------------------------------------------
# 4. Rule-set validation
# ---------------------------------------------------------------------------

MATCHING_SAMPLES = 1000


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_sampled_matchings_sound(logic):
    cfg = config_for(logic)
    rng = random.Random(77)
    ms = sample_matchings(rng, cfg, MATCHING_SAMPLES)
    assert len(ms) == MATCHING_SAMPLES
    # PML stays at carrier 2: at the default 3, its 422 distinct instances
    # take about 4 s on a 2-vCPU host.
    carrier = 2 if logic == "PML" else None
    for code in sorted({m.code for m in ms}, key=repr):
        assert side_condition(code, cfg), (logic, code)
        assert one_step_sound(code, cfg, max_carrier=carrier), (logic, code)


def _unit_linear_codes(rng, cfg, count):
    out = []
    while len(out) < count:
        q = rng.randrange(2, 4)
        ints = tuple(rng.choice((1, -1)) for _ in range(q))
        if 1 not in ints or -1 not in ints:
            continue
        if cfg.logic == "GML":
            code = RuleCode("GML", "GML", ints + (0,), (),
                            tuple(rng.randrange(0, 3) for _ in range(q)), ())
        elif cfg.logic == "MAJ":
            grades = tuple(
                -1 if rng.random() < 0.5 else rng.randrange(0, 3) for _ in range(q)
            )
            code = RuleCode("MAJ", "MAJ", ints + (rng.choice((-1, 0, 1)),), (), grades, ())
        else:
            rationals = tuple(
                min(Fraction(rng.randrange(0, 4), rng.randrange(1, 4)), Fraction(1))
                for _ in range(q)
            )
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


@pytest.mark.parametrize("logic", ARITH)
def test_resolvent_closure(logic):
    cfg = config_for(logic)
    rng = random.Random(2024)
    codes = _unit_linear_codes(rng, cfg, 200)
    checked = 0
    for c1 in codes:
        for c2 in codes:
            for i, j in _resolvable(c1, c2):
                r = resolve_rules(c1, c2, i, j)
                assert r is not None
                assert side_condition(r, cfg), (c1, c2)
                assert one_step_sound(r, cfg, max_carrier=2), (c1, c2)
                checked += 1
                break
            if checked >= 200:
                break
        if checked >= 200:
            break
    assert checked >= 200


# ---------------------------------------------------------------------------
# 6. Determinism of JSON artifacts
# ---------------------------------------------------------------------------


def _pipeline_report(logic):
    cfg, formulas = corpus(logic, 40, seed=99, max_depth=2, size_budget=7)
    records = []
    for f in formulas:
        verdict = satisfiable(f, cfg)
        if verdict.satisfiable:
            tb = extract_tableau(verdict, cfg)
            cert = certificate_to_json(tb)
            w = None if logic == "COAL" else tableau_to_model(tb, cfg)
            model = None if w is None else certificate_to_json(w)
        else:
            doc = extract_proof(verdict, neg(f), cfg)
            cert = certificate_to_json(doc)
            model = None
        records.append(
            {
                "satisfiable": verdict.satisfiable,
                "certificate": cert,
                "model": model,
            }
        )
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("logic", ALL_LOGICS)
def test_byte_identical_reports(logic):
    assert _pipeline_report(logic) == _pipeline_report(logic)
