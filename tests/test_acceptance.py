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
from modalsat.oracle import brute_force_sat, one_step_sound
from modalsat.sampling import sample_matchings
from modalsat.solver import satisfiable
from test_oracle import resolve_rules

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
            "547344e4b21551f57453e64efffa54e611b1413d6649276711cce28e86677cf8",
            "d1671ea97a136b676dac3f6608becc5cdffd1bf8f93ed76d6b6ffa99efac7bd9",
            "0bd6b5ebf4fcfe23509bc8efd383cb572a1839a205defc9b00c1896985f49b42",
            "4060b6ac415f109aeedbf743d012325aeddf81d8d33f65dc178417735952e0cb",
            "a1cf96783c1fc503d4684bc20eec29a82864a62c50946cc5981afdf03abe102e",
            "a8771692cdfe6b34a8917ba5281064b31bcde954e9d511cbf5ea230c8a2d2530",
            "e8b15a2402e6adb0ab8c35e0ec3fdef298c7c534a69d3578751405c3634c9c64",
            "5fe87c39d55c6ea9f057757cc0de095cd16fff9ff870a1739f28514e7c7f9604",
            "bbbb15a5509cbf74176f94c638320da1075297b9c32d05bc31e248809b23d384",
            "c85480141744da3f258af581ef4c52098695584e5bab662809a90ff0bfbc3f0f",
            "53454c516468bab6cbac20e317f9faa15322f52e00fbdc3f8c877081ee79cfea",
            "e66a036c110a7d98d7791ad6719114b0bd96db5a9e8d6527d49d767128d34c8d",
            "5217892ee4938bd53bbd5506a2b08d8aecb04a1410d5c39dfeb1db707a6cf1d5",
            "137157198680e47e4ef4865ef4f15c25d9b22c92cb8c8c9b90ee7de5f340d293",
            "ad6e6287925276a716fb10d07fa50e63ab2f78f3541bd8384a839b5ab4439117",
            "27341c48f90ac68a7d07eeeab2dea4f1e891270c45a4e910f3eacabfd98aacbb",
            "ba261b6d87d4a244a1be5bd1044234915e66afddd0b1044c83f25ca7722dde22",
            "9e7936d359b0c5a921934afeb63250fb03cb82bb70a4116e2ff926f2e7364f28",
            "b20723bc326fe9a3a3c98682688f319df40ee961be3dd832ac971b4b8a367502",
            "cce195e6d2a4212e4296cf91ffa7fb0e5bd258a02caa03aff74e092fd2c38337",
            "6047e1fcd44884dd5732f5ca408180f28b6494a6568fb76ab1249f7062630c7a",
            "98ae723d41546e80e2ba161310e3c693032fd13a6d189051a99020cf6bd5aca2",
            "12ea2418589a4463f4a7c4964d39536dd2fdbd0302ccfef293016c85d564b6c2",
            "f14e43ea61c559619d5bc5c142421f926f2e0dd366cc2950164418c34e77922c",
            "36470c21d643c2bb3ca69a7a77bd052e5acc9e24b7abcefe2d5ac56b3c1152a8",
            "b8afa32a223c0ab027d16e40f38abd2c91b8c75230f4fcb960c43c0d82b93b57",
            "24d6c9ae21d9b647fc600881fc17c914fc7ad5a913c480c380b3e6500d72b7f0",
            "e475799e8cca69ef86b4e305f3969a6086bca9ac25b2089d7cb575f7a785b110",
            "2737f6741f2e1f37e228a2f92cede7bf81323abb6efed066ece0adc62144f137",
            "6f0950e5b4e7b64664265cba2a67619660a5a2c8f385d9fb0a496943cf735a50",
            "e1ae37a81672807c76b5677abdc32266d1aa28a4925c464c26e43248caf1c0fe",
            "8c908f61887f9b90738f9a116244a1ca8d63b97fadb6fabe81a4dce92e92e039",
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
    "M": "caa719ffe2910a9160c00f1d10a08ee2a837acdd3e78f7a96939e3109c41d723",
    "K": "e493b2dd7645fa7e853bf92482cced95ff8aa52215d16a40b65ce1d774f0c5df",
    "KD": "8d75e53a25f1d8f1340a783b581c6ef3356e89354d70eb0d7e088de4b194f0dd",
    "COAL": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "GML": "2be92837189b02bf9c5d91f5b95453029ff5990879fe5629c4a48fa651bd529b",
    "MAJ": "e132db622e11995400386bf07643eb4e4301a064d4f5eaffbc69f91ec55188c0",
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
