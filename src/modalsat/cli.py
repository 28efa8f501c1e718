"""modalsat: satisfiability and provability for rank-1 modal logics.

usage: modalsat [--logic SPEC] [--format FORMAT] SUBCOMMAND [FORMULA] [options]

Global flags, before the subcommand:
  --logic SPEC       E, M, K, KD, COAL, COAL:n, GML, MAJ or PML (default K;
                     COAL alone has 2 agents)
  --format FORMAT    human or json (default human)
  -h, --help         print this text and exit 0

Subcommands, each with its options before or after the formula:
  solve FORMULA      decide satisfiability of a formula
    --cert PATH      write a tableau certificate to PATH if it is satisfiable
    --oracle-check   cross-check the verdict against the brute-force oracle
    --batch PATH     decide each line of PATH (# starts a comment) in place
                     of FORMULA; takes no --cert
  prove FORMULA      decide provability (validity) of a formula
    --cert PATH      write a proof certificate to PATH if it is valid
  model FORMULA      find a concrete model and print it
    --cert PATH      write the model to PATH instead
  check-cert FORMULA --cert PATH
                     validate the certificate file PATH against a formula
  selftest-rules     sample rule instances and check them semantically
    --count N        instances to sample, at least 1 (default 25)
    --seed N         seed of the sampler (default 0)

An option's value is the next word, or follows "=" as in --cert=PATH. The
last repeat of an option wins. Options are never abbreviated.

Exit codes: 0 positive answer (sat / valid / certificate ok / rules sound),
1 negative answer, 2 usage, input or internal error (one "error:" line on
stderr), 3 only from model: the formula is satisfiable but model synthesis
failed within its bounds.
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import certificates, oracle, sampling
from .formula import ParseError, neg_fold, parse, pretty
from .logics import LogicConfig, parse_logic_spec, validate_formula
from .solver import satisfiable

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_CAVEAT = 3


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


def _format(value: str) -> str:
    if value not in ("human", "json"):
        raise ValueError(value)
    return value


class _Command(NamedTuple):
    handler: Callable
    formula: bool  # takes one formula word
    # option name -> (reader of its value, default); the reader bool marks
    # a flag, which takes no value
    options: dict
    # "formula" and option names that must be given
    required: tuple = ()


_GLOBALS = {"--logic": (str, "K"), "--format": (_format, "human")}

_COMMANDS = {
    "solve": _Command(
        _cmd_solve,
        True,
        {"--cert": (str, None), "--oracle-check": (bool, False), "--batch": (str, None)},
    ),
    "prove": _Command(_cmd_prove, True, {"--cert": (str, None)}, ("formula",)),
    "model": _Command(_cmd_model, True, {"--cert": (str, None)}, ("formula",)),
    "check-cert": _Command(_cmd_check_cert, True, {"--cert": (str, None)}, ("formula", "--cert")),
    "selftest-rules": _Command(_cmd_selftest, False, {"--count": (int, 25), "--seed": (int, 0)}),
}


def _read_argv(argv):
    """The subcommand's ``_Command`` and the ``args`` its handler reads, or
    (None, None) for -h or --help.  A usage error raises ValueError naming
    the word at fault."""
    args = SimpleNamespace(logic="K", format="human", formula=None)
    command = name = None
    options = _GLOBALS
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return None, None
        if word.startswith("-"):
            option, eq, value = word.partition("=")
            if option not in options:
                raise ValueError("unknown option %r%s" % (word, " for " + name if name else ""))
            reader = options[option][0]
            if reader is bool:
                if eq:
                    raise ValueError("%s takes no value" % option)
                value = True
            else:
                if not eq:
                    value = next(words, None)
                    # A word that looks like an option is not a value; a
                    # negative number is.
                    if value is None or value.startswith("-") and not value[1:].isdigit():
                        raise ValueError("%s needs a value" % option)
                try:
                    value = reader(value)
                except ValueError:
                    raise ValueError("bad value %r for %s" % (value, option)) from None
            setattr(args, option[2:].replace("-", "_"), value)
        elif command is None:
            command = _COMMANDS.get(word)
            if command is None:
                raise ValueError("unknown subcommand %r" % word)
            name = word
            options = command.options
            for option, (_, default) in options.items():
                setattr(args, option[2:].replace("-", "_"), default)
        elif command.formula and args.formula is None:
            args.formula = word
        else:
            raise ValueError("unexpected word %r" % word)
    if command is None:
        raise ValueError("a subcommand is required: %s" % ", ".join(_COMMANDS))
    for need in command.required:
        if getattr(args, need.lstrip("-").replace("-", "_")) is None:
            raise ValueError("%s needs %s" % (name, "a formula" if need == "formula" else need))
    return command, args


def main(argv=None) -> int:
    try:
        command, args = _read_argv(sys.argv[1:] if argv is None else argv)
        if command is None:
            sys.stdout.write(__doc__)
            return EXIT_YES
        return command.handler(args, parse_logic_spec(args.logic))
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
