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
)
from modalsat.certificates import (
    audit_proof_subformulas,
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
            "414cff09808b335746ba58ee2d4a05b49dceb9836ef1aaf1b1f66dc7e7523526",
            "28387a70726a08684459323a19a5a05c2644dfa45c508c8a67f77ade59b1efad",
            "9140d96f61238d45243dc2be91ce9d0e7eccdc0877a81b97e10767d864d2fb1b",
            "bde6796b2ac5af87a5b01debb9ca711e961f9af82a14d9d82facb988cc74607c",
            "6db442177e4671eefc2d4d362e393061c18e9eae41608a9c11b5518a49897d11",
            "7dea78732304effb5c03cbe06676c41a313b900c73e38e657e148cae44951118",
            "72182fa8ecfa0abd0f64b88a70b7d6b5d35c6f067370b30ca296887b797b3a2b",
            "7574afd8676e01f4555764ca5ce90a75197dc1d294092f14051991d1dd0b431f",
            "950bdb7b3b25cc0336f569f5d65452ff007578351be8637a20c4239b2daaf244",
            "ee7e82a79bafcf82736078cb5bfb8951df0f5037e9b0115d00dbcf5dd549c1b5",
            "0170f2ce5d2a00fc33169eae216bce9fa0e9e12ee3363be59902a312fe46aee7",
            "57e5ab8633a94be106fe17d7202f9ca75be48d6a3be9d32d6293643ab4cc6c0e",
            "b5d95e89d85dcb86020f830238121e2c31cf0b545158e67b294dc28931e0be77",
            "75c3ddf3d2b9db0a496efdee8fab423c94bf3035c1a977e0d2a3a5384aa1e934",
            "d0826ad14bcdc4d739b13a471f6e18ec00cfc860e1ebc2beccddac9f8bac049b",
            "9ade33aba5f17609a4763d90af65cc3730c6866d2146603d31d4c93854482319",
            "00028c4a16e748597b67990fed57008920caa1f1f72ca9f61ef5cf2b8b4e3ee2",
            "92d214deb57781cdcda37eabd42a44fb8f9d3454aec34f4aa9db578b9b12a9fe",
            "ea579d5191321891e5ae432202996f81baea6ff6507f32b691ebe882f85f0e80",
            "08e446436461ee7a8c16ce3219a5171c6e6397f955b62fff0abd74a59710f003",
            "91dc63fb4c42a85b88796d5bc59c1ce3ffefe813247c5eb9299eb8126ca509a7",
            "fef2164948d2a2445e57e3055e52866d9c443d06fc3b739bb09497bfc69b72d8",
            "45c67a20e7d7695857877bf96588f63effd92987e1e35e46e0e94097ec5d8dec",
            "3a4254456f5e77318c28e4b5b537e377f9f3fc2d2903c82397b02129393306cd",
            "efa1d8152896ee9956ade871224111c054a6fc687f200224d46f45c9f58ccb6d",
            "c6e0c31077dfc47d21dc51924d311c8cafb00852d08272ea81e6a79a5c5a081b",
            "53a0147bb76fa2b1146b5f5b12fc9886d3eb28ecb6c82a4a0fb509269122f089",
            "fc87887a55cab0096b073b34b767b54e6f9a0f7264ceedd0fe853b8e29ba9a64",
            "05c33c4230db4f8fbee0bcf1408c4f420cd0c146c68504905a1e3d6dc1edc753",
            "581fa45d87aef5244306fb82a5fc05aeeb2f4ce9b889063102a88d56bbd1e5e2",
            "eadde38bb72c76f1f6ac43e1b4d8e51020fc4292b137d0b9ce98452900de1a53",
            "067ec2b1000e4d4ebac904a34cdd22e1470f6efc49564e4dff72b75c60a0dca9",
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
            assert audit_proof_subformulas(doc, goal)
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
