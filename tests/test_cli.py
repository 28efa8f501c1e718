"""Command-line interface: subcommands, exit codes, determinism."""

import json

import pytest

from modalsat import cli, oracle
from modalsat.certificates import check_certificate, model_from_json
from modalsat.cli import main
from modalsat.formula import parse
from modalsat.logics import LogicConfig
from test_certificates import LINEAR_PAIR_SAT
from test_solver import THREE_PAIRS, box_family


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_sat_exit_zero(capsys):
    code, out, _ = run(capsys, "--logic", "K", "solve", "[]a & ~[]b")
    assert code == 0
    assert "satisfiable" in out


def test_solve_unsat_exit_one(capsys):
    code, out, _ = run(capsys, "--logic", "K", "solve", "[]a & ~[]a")
    assert code == 1
    assert "unsatisfiable" in out


def test_parse_error_exit_two(capsys):
    code, _, err = run(capsys, "--logic", "K", "solve", "[](a")
    assert code == 2
    assert "error" in err


def test_wrong_operator_exit_two(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    batch = tmp_path / "batch.txt"
    batch.write_text("[]a\n<1>a\n")
    for argv in (
        ["solve", "<1>a"],
        ["solve", "<1>a", "--cert", str(cert)],
        ["solve", "<1>a", "--oracle-check"],
        ["solve", "--batch", str(batch)],
        ["prove", "<1>a", "--cert", str(cert)],
        ["model", "<1>a", "--cert", str(cert)],
        # The certificate does not exist: the operator is reported first.
        ["check-cert", "<1>a", "--cert", str(cert)],
    ):
        code, _, err = run(capsys, "--logic", "K", *argv)
        assert code == 2, argv
        assert err == "error: operator <1> is not part of logic K\n", argv
        assert not cert.exists(), argv


def test_prove_valid_and_invalid(capsys):
    code, _, _ = run(capsys, "--logic", "K", "prove", "[](a -> b) -> ([]a -> []b)")
    assert code == 0
    code, _, _ = run(capsys, "--logic", "K", "prove", "[](a | b) -> ([]a | []b)")
    assert code == 1


def test_prove_writes_checkable_cert(tmp_path, capsys):
    cert = tmp_path / "proof.json"
    code, _, _ = run(
        capsys, "--logic", "GML", "prove", "<1>a -> <0>a", "--cert", str(cert)
    )
    assert code == 0
    code, out, _ = run(
        capsys, "--logic", "GML", "check-cert", "<1>a -> <0>a", "--cert", str(cert)
    )
    assert code == 0
    # A different formula fails the check.
    code, _, _ = run(
        capsys, "--logic", "GML", "check-cert", "<0>a -> <1>a", "--cert", str(cert)
    )
    assert code == 1


def test_model_roundtrip(tmp_path, capsys):
    cert = tmp_path / "model.json"
    code, _, _ = run(
        capsys, "--logic", "PML", "model", "L{1/2}a & L{1/2}~a", "--cert", str(cert)
    )
    assert code == 0
    doc = json.loads(cert.read_text())
    assert doc["kind"] == "model"
    code, _, _ = run(
        capsys,
        "--logic",
        "PML",
        "check-cert",
        "L{1/2}a & L{1/2}~a",
        "--cert",
        str(cert),
    )
    assert code == 0


def test_solve_with_tableau_cert(tmp_path, capsys):
    cert = tmp_path / "tab.json"
    code, _, _ = run(
        capsys, "--logic", "COAL:2", "solve", "[C 1]a & [C 2]b", "--cert", str(cert)
    )
    assert code == 0
    code, _, _ = run(
        capsys, "--logic", "COAL:2", "check-cert", "[C 1]a & [C 2]b", "--cert", str(cert)
    )
    assert code == 0


def test_batch(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("[]a -> []a  # tautology\n\n# a comment line\n[]a & ~[]a\n")
    code, out, _ = run(capsys, "--logic", "K", "solve", "--batch", str(batch))
    assert code == 1  # worst verdict: unsat
    assert out.count("\n") == 2


def test_batch_rejects_a_formula_and_a_cert(tmp_path, capsys):
    # One --cert path would hold only the last satisfiable line's tableau,
    # and a formula beside --batch would go unread.
    batch = tmp_path / "batch.txt"
    batch.write_text("[]a\n~[]b & []c\n")
    cert = tmp_path / "tab.json"
    for extra in (["--cert", str(cert)], ["p & ~p"]):
        code, out, err = run(capsys, "--logic", "K", "solve", "--batch", str(batch), *extra)
        assert (code, out) == (2, "")
        assert err == "error: --batch takes neither a formula nor --cert\n"
    assert not cert.exists()


def test_oracle_check_flag(capsys):
    code, out, _ = run(
        capsys, "--logic", "K", "--format", "json", "solve", "[]a", "--oracle-check"
    )
    assert code == 0
    record = json.loads(out)
    assert record["oracle_model_found"] is True


def test_json_output_byte_identical(capsys):
    args = ["--logic", "MAJ", "--format", "json", "solve", "W a & ~W b"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_selftest_rules(capsys):
    for logic in ("K", "GML", "PML", "COAL:2"):
        code, out, _ = run(capsys, "--logic", logic, "selftest-rules", "--count", "8")
        assert code == 0
        assert "all sound" in out


# A version-1 proof of ``[](a -> b) -> ([]a -> []b)`` under K: a tree of
# nested sub-proofs, each clause and premise part written out.
V1_PROOF = (
    '{"kind":"proof","payload":{"clauses":[{"clause":["~[] ~(a & ~b)","~[] a","[] b"],'
    '"parts":[{"gamma":[[false,0],[false,1],[true,2]],"sub":{"clauses":[],'
    '"formula":"~(~(a & ~b) & a & ~b)"}}],"rule":{"coalitions":[],"grades":[],'
    '"ints":[-1,-1,1],"logic":"K","rationals":[],"scheme":"K"},'
    '"substitution":["~(a & ~b)","a","b"],"type":"rule"}],'
    '"formula":"~([] ~(a & ~b) & ~~([] a & ~[] b))"},"version":1}'
)


def test_version_1_proof_is_unsupported(tmp_path, capsys):
    text = "[](a -> b) -> ([]a -> []b)"
    cert = tmp_path / "proof.json"
    cert.write_text(V1_PROOF)
    code, out, err = run(capsys, "--logic", "K", "check-cert", text, "--cert", str(cert))
    assert (code, out) == (2, "")
    assert err == "error: unsupported certificate version 1\n"
    # The same proof as the table ``prove --cert`` writes now.
    code, _, _ = run(capsys, "--logic", "K", "prove", text, "--cert", str(cert))
    assert code == 0
    assert json.loads(cert.read_text())["version"] == 3
    code, out, _ = run(capsys, "--logic", "K", "check-cert", text, "--cert", str(cert))
    assert (code, out) == (0, "proof  ok: ok\n")


def test_selftest_rules_rejects_empty_count(capsys):
    # A count below 1 checks nothing, so it must not report "all sound".
    for count in ("0", "-3"):
        code, out, err = run(capsys, "--logic", "K", "selftest-rules", "--count", count)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


def test_selftest_rules_rejects_empty_sample(capsys):
    # Under E and M, seed 32 samples no instance in its 40 attempts; a batch
    # of nothing must not report "all sound" either.
    for logic in ("E", "M"):
        code, out, err = run(
            capsys, "--logic", logic, "selftest-rules", "--count", "1", "--seed", "32"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: no rule instance was sampled")
    code, out, _ = run(
        capsys, "--logic", "E", "selftest-rules", "--count", "2", "--seed", "32"
    )
    assert code == 0
    assert "all sound" in out


def test_internal_errors_exit_two(tmp_path, capsys):
    # Exit 1 means "unsatisfiable / invalid / rejected"; a crash must not.
    # This input still overflows Python's recursion limit in the solver.
    code, _, err = run(capsys, "--logic", "K", "solve", "~[]~" * 1000 + "a")
    assert code == 2
    assert err.startswith("error:")
    cert = tmp_path / "bad.json"
    cert.write_text('{"kind":"proof","version":3}')
    code, _, err = run(capsys, "--logic", "K", "check-cert", "a", "--cert", str(cert))
    assert code == 2
    assert err.startswith("error:")


def test_deep_formula_decides_and_prints(capsys):
    # 1,200 nested boxes: the printer needs no recursion, and its text
    # parses back to the formula.
    text = "[]" * 1200 + "a"
    code, out, err = run(capsys, "--logic", "K", "--format", "json", "solve", text)
    assert (code, err) == (0, "")
    record = json.loads(out)
    assert record["satisfiable"] is True
    assert parse(record["formula"]) == parse(text)


def test_malformed_certificates_exit_two(tmp_path, capsys):
    # A certificate file is outside input: a missing or ill-typed field is
    # reported as such, not as an internal error.
    docs = [
        {"kind": "proof", "version": 3},
        {
            "kind": "tableau",
            "version": 2,
            "payload": {"root": 0, "nodes": [["a"]], "edges": [{"src": 0}]},
        },
        {
            "kind": "model",
            "version": 1,
            "payload": {
                "model_kind": "kripke",
                "root": "zero",
                "states": [0],
                "labels": {"0": ["a"]},
                "succ": {"0": []},
            },
        },
        {
            "kind": "model",
            "version": 1,
            "payload": {
                "model_kind": "kripke",
                "root": 0,
                "states": [0],
                "labels": {"0": ["a"]},
                "succ": {"0": [[0]]},
            },
        },
        {
            "kind": "model",
            "version": 1,
            "payload": {
                "model_kind": "distribution",
                "root": 0,
                "states": [0],
                "labels": {"0": ["a"]},
                "dist": {"0": {"0": "1/0"}},
            },
        },
        {
            "kind": "proof",
            "version": 3,
            "payload": {
                "proofs": [
                    {
                        "formula": "a",
                        "rules": [
                            {
                                "rule": {"logic": "PML", "scheme": "PML", "ints": [1, 0], "rationals": ["2/0"]},
                                "substitution": ["a"],
                            }
                        ],
                    }
                ],
            },
        },
    ]
    # Ill-typed values that int(), bool() or iteration would coerce into a
    # different certificate: a float root or weight (read as 0 and 1, the
    # model would pass), an integer flag, a label that is a string, a string
    # edge endpoint, a node or a substitution that is a string and a float
    # rule coefficient.
    graded = {
        "model_kind": "multigraph",
        "root": 0,
        "states": [0, 1],
        "labels": {"0": [], "1": ["a"]},
        "weights": {"0": {"1": 1}, "1": {}},
    }
    for field, value in [("root", 0.7), ("weights", {"0": {"1": 1.9}, "1": {}}),
                         ("serial", 1), ("labels", {"0": [], "1": "a"})]:
        docs.append({"kind": "model", "version": 1, "payload": {**graded, field: value}})
    docs.append(
        {
            "kind": "tableau",
            "version": 2,
            "payload": {"root": 0, "nodes": [["a"]], "edges": [{"src": "0", "dst": 0}]},
        }
    )
    docs.append({"kind": "tableau", "version": 2, "payload": {"root": 0, "nodes": ["a"], "edges": []}})
    rule = {"logic": "K", "scheme": "K", "ints": [1, 0], "grades": [], "coalitions": []}
    edge = {"src": 0, "dst": 1, "rule": rule, "substitution": "a"}
    docs.append(
        {
            "kind": "tableau",
            "version": 2,
            "payload": {"root": 0, "nodes": [["~[] a"], ["~a"]], "edges": [edge]},
        }
    )
    clause = {"rule": {**rule, "ints": [1.0, 0]}, "substitution": ["a"]}
    docs.append(
        {
            "kind": "proof",
            "version": 3,
            "payload": {"proofs": [{"formula": "[]a", "rules": [clause]}, {"formula": "a", "rules": []}]},
        }
    )
    cases = [("a", json.dumps(doc)) for doc in docs]
    # A key that spells a state or strategy profile other than as its
    # decimal text collides with the key that does, and so does a key that
    # a JSON object repeats; reading the later one as state 1's label made
    # these models pass ``[]a``.
    kripke = '{"kind": "model", "version": 1, "payload": {"model_kind": "kripke", ' \
        '"root": 0, "states": [0, 1], "succ": {"0": [1], "1": []}, "labels": %s}}'
    for spelling in ("01", " 1", "+1", "1"):
        cases.append(("[]a", kripke % ('{"0": [], "1": [], "%s": ["a"]}' % spelling)))
    game = {"sizes": [1, 2], "table": {"0,0": 0, "0,1": 0, "00,1": 0}}
    payload = {"model_kind": "game", "root": 0, "states": [0], "labels": {"0": []}, "games": {"0": game}}
    cases.append(("a", json.dumps({"kind": "model", "version": 1, "payload": payload})))
    # Two proof entries for one formula, spelled two ways: one of them would
    # go unchecked.
    payload = {"proofs": [{"formula": "a -> b", "rules": []}, {"formula": "~(a & ~b)", "rules": []}]}
    cases.append(("a -> b", json.dumps({"kind": "proof", "version": 3, "payload": payload})))
    # A rule code's logic and scheme are JSON strings, not whatever str()
    # would turn into one.
    for key, value in (("logic", ["K"]), ("scheme", 5)):
        rule = {"logic": "K", "scheme": "K", "ints": [1]}
        rule[key] = value
        payload = {"proofs": [{"formula": "[]a", "rules": [{"rule": rule, "substitution": ["a"]}]}]}
        cases.append(("[]a", json.dumps({"kind": "proof", "version": 3, "payload": payload})))
    for formula, text in cases:
        cert = tmp_path / "bad.json"
        cert.write_text(text)
        code, out, err = run(capsys, "--logic", "K", "check-cert", formula, "--cert", str(cert))
        assert code == 2
        assert err.startswith("error: malformed certificate")
        assert "Traceback" not in err and out == ""


def test_version_1_tableau_is_unsupported(tmp_path, capsys):
    # Version 1 wrote each rule edge's clause and premise clause, and each
    # pattern edge's formula; it has no reader.
    rule = {"logic": "K", "scheme": "K", "ints": [1, 0], "grades": [], "coalitions": []}
    label = {"kind": "rule", "clause": ["[] a"], "code": rule, "substitution": ["a"], "gamma": [[True, 0]]}
    payload = {"root": 0, "nodes": [["~[] a"], ["~a"]], "edges": [{"src": 0, "dst": 1, "label": label}]}
    cert = tmp_path / "v1.json"
    cert.write_text(json.dumps({"kind": "tableau", "version": 1, "payload": payload}))
    code, out, err = run(capsys, "--logic", "K", "check-cert", "~[]a", "--cert", str(cert))
    assert (code, out, err) == (2, "", "error: unsupported certificate version 1\n")


def test_box_family_at_width_20_decides_and_checks(tmp_path, capsys):
    # Under K and KD: solve --cert, model, and check-cert on both
    # certificates.  With a challenge per subset of the 20 boxes this would
    # not finish.
    text = box_family(20)
    for logic in ("K", "KD"):
        tableau = tmp_path / ("%s-tableau.json" % logic)
        model = tmp_path / ("%s-model.json" % logic)
        for argv in (
            ("solve", text, "--cert", str(tableau)),
            ("check-cert", text, "--cert", str(tableau)),
            ("model", text, "--cert", str(model)),
            ("check-cert", text, "--cert", str(model)),
        ):
            code, _, err = run(capsys, "--logic", logic, *argv)
            assert code == 0, (logic, argv[0], err)


@pytest.mark.parametrize("logic,text", LINEAR_PAIR_SAT)
def test_solve_cert_writes_no_rule_edge_in_linear_logics(logic, text, tmp_path, capsys):
    # The node's one linear system answers for every congruence pair, so
    # the tableau has pattern edges only.
    cert = tmp_path / "tableau.json"
    code, _, _ = run(capsys, "--logic", logic, "solve", text, "--cert", str(cert))
    assert code == 0
    edges = json.loads(cert.read_text())["payload"]["edges"]
    assert edges and all(set(e) == {"src", "dst"} for e in edges)
    code, out, _ = run(capsys, "--logic", logic, "check-cert", text, "--cert", str(cert))
    assert (code, out) == (0, "tableau  ok: ok\n")


# -- paths of the CLI that no other test reaches ------------------------------


def test_model_of_unsatisfiable_formula(capsys):
    code, out, _ = run(capsys, "--logic", "K", "model", "[]a & ~[]a")
    assert (code, out) == (1, "[] a & ~[] a  unsatisfiable: no model\n")


def test_model_without_cert_is_printed_inline(capsys):
    text = "[](a | b) & ~[]a & ~[]b"
    code, out, _ = run(capsys, "--logic", "K", "model", text)
    assert code == 0
    shown, inline = out.rstrip("\n").split("  satisfiable; model: ")
    assert parse(shown) == parse(text)
    witness = model_from_json(json.loads(inline))
    assert check_certificate(witness, parse(text), LogicConfig("K")) == (True, "ok")


@pytest.mark.parametrize(
    "spec,text",
    [
        # No game synthesis: coalition logic models come from the oracle.
        ("COAL:2", "[C 1]a & [C 2]b"),
        # Neighbourhood synthesis fails on this one.
        ("E", "[] [] p"),
    ],
)
def test_model_falls_back_to_the_oracle(spec, text, tmp_path, capsys, monkeypatch):
    found = []
    original = oracle.brute_force_sat

    def spy(f, cfg):
        found.append(original(f, cfg))
        return found[-1]

    monkeypatch.setattr(oracle, "brute_force_sat", spy)
    cert = tmp_path / "model.json"
    code, _, _ = run(capsys, "--logic", spec, "model", text, "--cert", str(cert))
    assert code == 0
    assert len(found) == 1 and found[0] is not None
    code, out, _ = run(capsys, "--logic", spec, "check-cert", text, "--cert", str(cert))
    assert (code, out) == (0, "model  ok: ok\n")


@pytest.mark.parametrize(
    "spec,text",
    [
        # Decided satisfiable, but only rational weights satisfy the root
        # (docs/certificates.md, "Known limitation").
        ("GML", THREE_PAIRS),
        ("MAJ", THREE_PAIRS),
        # Agent 1 needs three choices; the oracle's game tables allow two.
        ("COAL:2", "[C 1]a & [C 1]b & [C 1]c & ~[C 1](a & b) & ~[C 1](a & c) & ~[C 1](b & c)"),
    ],
)
def test_model_exits_three_when_synthesis_fails(spec, text, capsys):
    # Satisfiable, but no model is found within the bounds.  Integer-exact
    # linear nodes and game synthesis (ROADMAP items 1 and 4) will turn the
    # GML and MAJ cases into unsatisfiable verdicts and the COAL one into a
    # model, on purpose.
    code, out, _ = run(capsys, "--logic", spec, "--format", "json", "model", text)
    assert code == 3
    record = json.loads(out)
    assert record["satisfiable"] is True and record["model"] is None
    code, out, _ = run(capsys, "--logic", spec, "model", text)
    assert code == 3
    assert out.endswith("  satisfiable, but model synthesis failed within bounds\n")


@pytest.mark.parametrize(
    "spec,text,weights",
    [
        ("GML", "<20>a", [21]),
        ("MAJ", "<20>a", [21]),
        ("GML", "<16>a & ~<17>a", [17]),
        ("MAJ", "<16>a & ~<17>a", [17]),
        ("MAJ", "W a & <17>~a", [18, 18]),
    ],
)
def test_model_weights_reach_past_the_largest_grade(spec, text, weights, tmp_path, capsys):
    # The root's block weight cap is its largest grade + 1 once that passes
    # MAX_WEIGHT = 16; these models once exited 3.
    cert = tmp_path / "model.json"
    code, _, _ = run(capsys, "--logic", spec, "model", text, "--cert", str(cert))
    assert code == 0
    witness = model_from_json(json.loads(cert.read_text()))
    assert sorted(witness.structs[witness.root].values()) == weights
    code, out, _ = run(capsys, "--logic", spec, "check-cert", text, "--cert", str(cert))
    assert (code, out) == (0, "model  ok: ok\n")


def test_solve_cert_of_unsatisfiable_formula_writes_nothing(tmp_path, capsys):
    cert = tmp_path / "tableau.json"
    code, out, _ = run(capsys, "--logic", "K", "solve", "[]a & ~[]a", "--cert", str(cert))
    assert code == 1
    assert out == "[] a & ~[] a  unsatisfiable  [no tableau: formula is unsatisfiable]\n"
    assert not cert.exists()


def test_oracle_disagreement_exits_two(tmp_path, capsys, monkeypatch):
    # An oracle witness for an unsatisfiable formula is reported, and a
    # batch stops at that line.
    monkeypatch.setattr(oracle, "brute_force_sat", lambda f, cfg: object())
    code, out, _ = run(
        capsys, "--logic", "K", "--format", "json", "solve", "[]a & ~[]a", "--oracle-check"
    )
    assert code == 2
    record = json.loads(out)
    assert record["oracle_disagrees"] is True and record["satisfiable"] is False
    batch = tmp_path / "batch.txt"
    batch.write_text("[]a\n[]a & ~[]a\n~[]b\n")
    code, out, _ = run(
        capsys, "--logic", "K", "--format", "json", "solve", "--batch", str(batch), "--oracle-check"
    )
    assert code == 2
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["formula"] for r in records] == ["[] a", "[] a & ~[] a"]
    assert records[-1]["oracle_disagrees"] is True


def test_selftest_rules_reports_unsound_rules(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "one_step_sound", lambda code, cfg: False)
    code, out, _ = run(capsys, "--logic", "K", "selftest-rules", "--count", "5")
    assert code == 1
    assert out.startswith("checked ") and out.endswith(" UNSOUND\n")


def test_solve_needs_a_formula_or_a_batch(capsys):
    code, out, err = run(capsys, "--logic", "K", "solve")
    assert (code, out) == (2, "")
    assert err == "error: a formula or --batch is required\n"


# -- the argv grammar ---------------------------------------------------------


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--bogus", "solve", "a"], "unknown option '--bogus'"),
        (["solve", "a", "--bogus"], "unknown option '--bogus' for solve"),
        # No prefix of an option stands for it.
        (["--log", "K", "solve", "a"], "unknown option '--log'"),
        (["solve", "a", "--oracle"], "unknown option '--oracle' for solve"),
        (["bogus", "a"], "unknown subcommand 'bogus'"),
        ([], "a subcommand is required: solve, prove, model, check-cert, selftest-rules"),
        (["--logic", "K"], "a subcommand is required: solve, prove, model, check-cert, selftest-rules"),
        (["prove"], "prove needs a formula"),
        (["model", "--cert", "m.json"], "model needs a formula"),
        (["check-cert", "--cert", "c.json"], "check-cert needs a formula"),
        (["check-cert", "a"], "check-cert needs --cert"),
        (["check-cert", "a", "--cert"], "--cert needs a value"),
        (["solve", "a", "--cert"], "--cert needs a value"),
        (["solve", "--cert", "--oracle-check", "a"], "--cert needs a value"),
        (["solve", "a", "--oracle-check=yes"], "--oracle-check takes no value"),
        (["--format", "xml", "solve", "a"], "bad value 'xml' for --format"),
        (["selftest-rules", "--count", "x"], "bad value 'x' for --count"),
        (["selftest-rules", "--seed=1.5"], "bad value '1.5' for --seed"),
        (["solve", "a", "b"], "unexpected word 'b'"),
        (["check-cert", "a", "--cert", "c.json", "b"], "unexpected word 'b'"),
        (["selftest-rules", "a"], "unexpected word 'a'"),
        # Global flags go before the subcommand.
        (["solve", "a", "--format", "json"], "unknown option '--format' for solve"),
        (["prove", "--logic", "K", "a"], "unknown option '--logic' for prove"),
        (["--logic", "COAL: 3", "solve", "a"], "bad logic spec 'COAL: 3'"),
    ],
)
def test_usage_errors_exit_two(argv, message, tmp_path, capsys, monkeypatch):
    # main returns 2 with one error line; it raises no SystemExit.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["--help"],
        ["--logic", "GML", "-h"],
        ["solve", "--help"],
        ["check-cert", "a", "-h"],
        ["selftest-rules", "--count", "3", "--help"],
    ],
)
def test_help_prints_the_module_docstring(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, cli.__doc__, "")
    names = list(cli._GLOBALS)
    for name, command in cli._COMMANDS.items():
        names += [name] + list(command.options)
    for name in names:
        assert " %s " % name in out, name


def test_option_spelling_and_place_give_identical_output(tmp_path, capsys, monkeypatch):
    # --cert=PATH and --cert PATH, before or after the formula: the same
    # records and certificate bytes.
    monkeypatch.chdir(tmp_path)
    cases = [
        ("K", "solve", "[](a | b) & ~[]a & ~[]b", ["--oracle-check"]),
        ("GML", "prove", "<1>a -> <0>a", []),
        ("PML", "model", "L{1/2}a & L{1/2}~a", []),
    ]
    for logic, command, text, flags in cases:
        spellings = [
            [command, text, "--cert", "c.json"] + flags,
            [command] + flags + ["--cert", "c.json", text],
            [command, "--cert=c.json", text] + flags,
            # The last repeat of an option wins.
            [command, "--cert", "other.json", text, "--cert", "c.json"] + flags,
        ]
        seen = set()
        for argv in spellings:
            code, out, _ = run(capsys, "--format", "human", "--logic", logic, "--format=json", *argv)
            assert code == 0, argv
            cert = (tmp_path / "c.json").read_bytes()
            checks = [
                run(capsys, "--logic", logic, "check-cert", text, "--cert", "c.json"),
                run(capsys, "--logic", logic, "check-cert", "--cert=c.json", text),
            ]
            seen.add((out, cert, tuple(checks)))
            (tmp_path / "c.json").unlink()
        assert len(seen) == 1, command
        (_, _, checks), = seen
        assert [check[0] for check in checks] == [0, 0]
        assert not (tmp_path / "other.json").exists()


def test_negative_count_is_a_value(capsys):
    # A word that looks like a negative number is an option's value, and
    # selftest-rules rejects it itself.
    for argv in (["--count", "-3"], ["--count=-3"]):
        code, out, err = run(capsys, "--logic", "K", "selftest-rules", *argv)
        assert (code, out, err) == (2, "", "error: --count must be at least 1\n")
