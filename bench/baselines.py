"""Single-run reference checks: the cost cliffs measured before the benchmark
existed, re-measured with the public API.  They are reference points, not
workloads; a figure more than 1.5x away from its reference, or a count that
differs, is flagged.  Run with ``python3 bench/run.py --baselines``.
"""

from __future__ import annotations

import signal
import time

import corpus
import tracing
from modalsat import check_proof, extract_proof, parse, parse_logic_spec, satisfiable
from modalsat.formula import neg_fold

CAP_S = 60.0

# (name, reference seconds, reference matchings or None, logic, formula)
SINGLE = [
    ("K width 15 (14 negated boxes + 1 box)", 2.35, 42, "K", corpus.k_wide_sat(14, "a")),
    ("K with 14 propositional atoms + ~[]b & []c", 0.70, 3, "K", corpus.k_prop_sat(14, "a", [True] * 14)),
    ("GML width 5", 16.4, None, "GML", corpus.gml_wide(5, "a")),
]


class _Cap(BaseException):
    pass


def _alarm(signum, frame):
    raise _Cap()


def _flag(measured, reference):
    return "ok" if reference / 1.5 <= measured <= reference * 1.5 else "DIFFERS"


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    print("%-46s %10s %10s  %s" % ("baseline", "reference", "measured", "flag"))
    for name, ref_s, ref_matchings, logic, text in SINGLE:
        cfg = parse_logic_spec(logic)
        f = parse(text, cfg.n_agents)
        tr = tracing.Tracer()
        tr.install()
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        t0 = time.perf_counter()
        try:
            try:
                verdict = satisfiable(f, cfg)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                tr.uninstall()
        except _Cap:
            print("%-46s %9.2fs %9s  DIFFERS (no verdict within %.0f s)" % (name, ref_s, "timeout", CAP_S))
            continue
        elapsed = time.perf_counter() - t0
        fm_s = sum(e - b for n, b, e, _, _ in tr.rows if n == "linarith.feasible")
        fm_calls = sum(1 for n, *_ in tr.rows if n == "linarith.feasible")
        flag = _flag(elapsed, ref_s)
        matchings = verdict.stats.matchings_checked
        if ref_matchings is not None and matchings != ref_matchings:
            flag = "DIFFERS"
        print(
            "%-46s %9.2fs %9.2fs  %s  (matchings %d%s; %d FM calls, %.2f s in FM)"
            % (name, ref_s, elapsed, flag, matchings,
               "" if ref_matchings is None else " vs %d" % ref_matchings, fm_calls, fm_s)
        )

    solve_s = proof_s = check_s = 0.0
    for spec, text in corpus.VALID:
        cfg = parse_logic_spec(spec)
        goal = parse(text, cfg.n_agents)
        t0 = time.perf_counter()
        verdict = satisfiable(neg_fold(goal), cfg)
        t1 = time.perf_counter()
        doc = extract_proof(verdict, goal, cfg)
        t2 = time.perf_counter()
        ok, _ = check_proof(doc, goal, cfg)
        t3 = time.perf_counter()
        if not ok:
            print("VALID corpus: proof of %r rejected" % text)
        solve_s += t1 - t0
        proof_s += t2 - t1
        check_s += t3 - t2
    for name, ref_s, got in (
        ("VALID corpus: solve", 1.28, solve_s),
        ("VALID corpus: extract_proof", 1.40, proof_s),
        ("VALID corpus: check_proof", 0.006, check_s),
    ):
        print("%-46s %9.3fs %9.3fs  %s" % (name, ref_s, got, _flag(got, ref_s)))
    print("%-46s %10s %9.2fx" % ("VALID corpus: extract_proof / solve", "", proof_s / solve_s))
    return 0
