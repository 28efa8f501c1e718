"""Command-line interface.

Subcommands:
  solve          decide satisfiability of a formula
  prove          decide provability (validity) and optionally emit a proof
  model          find a concrete model and emit it
  check-cert     validate a certificate file against a formula
  selftest-rules sample rule instances and check them semantically

Exit codes: 0 positive answer (sat / valid / certificate ok / rules sound),
1 negative answer, 2 usage, input or internal error, 3 only from ``model``:
the formula is satisfiable but model synthesis failed within its bounds.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback

from . import certificates, oracle, sampling
from .formula import ParseError, neg_fold, parse, pretty
from .logics import LogicConfig, parse_logic_spec, validate_formula
from .solver import satisfiable

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_CAVEAT = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="modalsat",
        description="Satisfiability and provability for rank-1 modal logics.",
    )
    p.add_argument(
        "--logic",
        default="K",
        help="one of E, M, K, KD, COAL:n, GML, MAJ, PML (default K)",
    )
    p.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="decide satisfiability")
    sp.add_argument("formula", nargs="?", help="formula text")
    sp.add_argument(
        "--batch",
        help="file with one formula per line (# comments); no formula or --cert with it",
    )
    sp.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-check the verdict against the brute-force oracle",
    )
    sp.add_argument("--cert", help="write a tableau certificate to this file")

    pp = sub.add_parser("prove", help="decide provability")
    pp.add_argument("formula")
    pp.add_argument("--cert", help="write a proof certificate to this file")

    mp = sub.add_parser("model", help="find a concrete model")
    mp.add_argument("formula")
    mp.add_argument("--cert", help="write the model to this file")

    cp = sub.add_parser("check-cert", help="validate a certificate file")
    cp.add_argument("formula")
    cp.add_argument("--cert", required=True, help="certificate file to check")

    tp = sub.add_parser("selftest-rules", help="semantically check sampled rules")
    tp.add_argument("--count", type=int, default=25)
    tp.add_argument("--seed", type=int, default=0)
    return p


_PARSER = _build_parser()


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, record, human_line):
    if args.format == "json":
        print(_dump(record))
    else:
        print(human_line)


def _write_cert(path: str, doc: dict):
    with open(path, "w") as fh:
        fh.write(_dump(doc))
        fh.write("\n")


def _solve_one(text: str, args, cfg: LogicConfig) -> int:
    f = parse(text, cfg.n_agents)
    verdict = satisfiable(f, cfg)
    shown = pretty(f)
    record = {
        "formula": shown,
        "logic": args.logic,
        "satisfiable": verdict.satisfiable,
        "caveat": False,
    }
    status = "satisfiable" if verdict.satisfiable else "unsatisfiable"
    notes = []
    if args.oracle_check:
        witness = oracle.brute_force_sat(f, cfg)
        if witness is not None and not verdict.satisfiable:
            record["oracle_disagrees"] = True
            _emit(args, record, "%s  %s  ORACLE DISAGREES" % (shown, status))
            return EXIT_ERROR
        record["oracle_model_found"] = witness is not None
        notes.append("oracle model found" if witness is not None else "no oracle model within bounds")
    if args.cert:
        if verdict.satisfiable:
            tb = certificates.extract_tableau(verdict, cfg)
            _write_cert(args.cert, certificates.tableau_to_json(tb))
            record["certificate"] = args.cert
            notes.append("tableau written to %s" % args.cert)
        else:
            notes.append("no tableau: formula is unsatisfiable")
    suffix = ("  [" + "; ".join(notes) + "]") if notes else ""
    _emit(args, record, "%s  %s%s" % (shown, status, suffix))
    return EXIT_YES if verdict.satisfiable else EXIT_NO


def _cmd_solve(args, cfg: LogicConfig) -> int:
    if args.batch:
        # One --cert path would hold only the last line's tableau.
        if args.formula is not None or args.cert:
            print("error: --batch takes neither a formula nor --cert", file=sys.stderr)
            return EXIT_ERROR
        worst = EXIT_YES
        with open(args.batch) as fh:
            for line in fh:
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                rc = _solve_one(text, args, cfg)
                if rc == EXIT_ERROR:
                    return EXIT_ERROR
                worst = max(worst, rc)
        return worst
    if not args.formula:
        print("error: a formula or --batch is required", file=sys.stderr)
        return EXIT_ERROR
    return _solve_one(args.formula, args, cfg)


def _cmd_prove(args, cfg: LogicConfig) -> int:
    goal = parse(args.formula, cfg.n_agents)
    verdict = satisfiable(neg_fold(goal), cfg)
    valid = not verdict.satisfiable
    shown = pretty(goal)
    record = {
        "formula": shown,
        "logic": args.logic,
        "valid": valid,
        "caveat": False,
    }
    notes = []
    if valid and args.cert:
        doc = certificates.extract_proof(verdict, goal, cfg)
        _write_cert(args.cert, certificates.proof_to_json(doc))
        record["certificate"] = args.cert
        notes.append("proof written to %s" % args.cert)
    status = "valid" if valid else "not valid"
    suffix = ("  [" + "; ".join(notes) + "]") if notes else ""
    _emit(args, record, "%s  %s%s" % (shown, status, suffix))
    return EXIT_YES if valid else EXIT_NO


def _cmd_model(args, cfg: LogicConfig) -> int:
    f = parse(args.formula, cfg.n_agents)
    verdict = satisfiable(f, cfg)
    shown = pretty(f)
    if not verdict.satisfiable:
        _emit(
            args,
            {"formula": shown, "logic": args.logic, "satisfiable": False},
            "%s  unsatisfiable: no model" % shown,
        )
        return EXIT_NO
    tb = certificates.extract_tableau(verdict, cfg)
    witness = certificates.tableau_to_model(tb, cfg)
    if witness is None:
        witness = oracle.brute_force_sat(f, cfg)
    if witness is None:
        _emit(
            args,
            {"formula": shown, "logic": args.logic, "satisfiable": True, "model": None},
            "%s  satisfiable, but model synthesis failed within bounds" % shown,
        )
        return EXIT_CAVEAT
    ok, _ = certificates.check_certificate(witness, f, cfg)
    if not ok:
        print("error: synthesized model failed its own check", file=sys.stderr)
        return EXIT_ERROR
    doc = certificates.model_to_json(witness)
    record = {
        "formula": shown,
        "logic": args.logic,
        "satisfiable": True,
        "model": doc,
    }
    if args.cert:
        _write_cert(args.cert, doc)
        _emit(args, record, "%s  satisfiable; model written to %s" % (shown, args.cert))
    else:
        _emit(args, record, "%s  satisfiable; model: %s" % (shown, _dump(doc)))
    return EXIT_YES


def _unique_keys(pairs) -> dict:
    """JSON object hook for certificate files: a repeated key is rejected,
    where ``json.load`` would keep its last value and drop the others."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in keys if keys.count(k) > 1)
        raise ValueError("malformed certificate: key %r repeats in one object" % repeated)
    return obj


def _cmd_check_cert(args, cfg: LogicConfig) -> int:
    # The other subcommands leave this check to ``satisfiable``; this one
    # never solves, and a foreign operator is reported before the file.
    f = parse(args.formula, cfg.n_agents)
    validate_formula(f, cfg)
    with open(args.cert) as fh:
        doc = json.load(fh, object_pairs_hook=_unique_keys)
    cert = certificates.certificate_from_json(doc, cfg.n_agents)
    ok, message = certificates.check_certificate(cert, f, cfg)
    _emit(
        args,
        {"formula": pretty(f), "kind": doc.get("kind"), "ok": ok, "message": message},
        "%s  %s: %s" % (doc.get("kind"), "ok" if ok else "INVALID", message),
    )
    return EXIT_YES if ok else EXIT_NO


def _cmd_selftest(args, cfg: LogicConfig) -> int:
    if args.count < 1:
        # Checking no instance would report "all sound" about nothing.
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_ERROR
    rng = random.Random(args.seed)
    ms = sampling.sample_matchings(rng, cfg, args.count)
    if not ms:
        # The sampler gives up after 40 attempts per instance asked for.
        print(
            "error: no rule instance was sampled with seed %d; try another"
            " --seed or a larger --count" % args.seed,
            file=sys.stderr,
        )
        return EXIT_ERROR
    bad = []
    for m in ms:
        if not oracle.one_step_sound(m.code, cfg):
            bad.append(m)
    record = {
        "logic": args.logic,
        "checked": len(ms),
        "unsound": len(bad),
    }
    _emit(
        args,
        record,
        "checked %d sampled rule instances: %s"
        % (len(ms), "all sound" if not bad else "%d UNSOUND" % len(bad)),
    )
    return EXIT_YES if not bad else EXIT_NO


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = parse_logic_spec(args.logic)
        if args.command == "solve":
            return _cmd_solve(args, cfg)
        if args.command == "prove":
            return _cmd_prove(args, cfg)
        if args.command == "model":
            return _cmd_model(args, cfg)
        if args.command == "check-cert":
            return _cmd_check_cert(args, cfg)
        if args.command == "selftest-rules":
            return _cmd_selftest(args, cfg)
        return EXIT_ERROR
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # Exit codes 0, 1 and 3 are verdicts; a crash must not read as one.
        print("error: internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        traceback.print_exc(limit=-5)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
