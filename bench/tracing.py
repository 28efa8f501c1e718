"""Spans and counters recorded from outside the program.

``Tracer.install`` rebinds public functions of the ``modalsat`` modules to
wrappers.  A function is rebound under every name that refers to it in any
``modalsat`` module, so ``from .logics import matchings`` bindings in
``solver``, ``certificates`` and ``sampling`` are traced too.  ``uninstall``
puts every original back.

Spans (name, start, end, parent) are kept in memory and written out by the
caller.  The hottest functions (called once per clause mask or per
valuation) only count calls, because a timed span around each would cost
more than the work it measures; their time stays in the caller's self time.
"""

from __future__ import annotations

import sys
import time

# (module, attribute, span name).  Span names are "<layer>.<function>".
SPANNED = [
    ("modalsat.cli", "main", "cli.main"),
    ("modalsat.cli", "_dump", "cli.json"),
    ("modalsat.formula", "parse", "formula.parse"),
    ("modalsat.solver", "satisfiable", "solver.satisfiable"),
    ("modalsat.logics", "refuting_matching_exists", "logics.refute"),
    ("modalsat.linarith", "feasible", "linarith.feasible"),
    ("modalsat.certificates", "extract_tableau", "certificates.extract_tableau"),
    ("modalsat.certificates", "check_tableau", "certificates.check_tableau"),
    ("modalsat.certificates", "tableau_to_model", "certificates.tableau_to_model"),
    ("modalsat.certificates", "model_check", "certificates.model_check"),
    ("modalsat.certificates", "extract_proof", "certificates.extract_proof"),
    ("modalsat.certificates", "check_proof", "certificates.check_proof"),
    ("modalsat.certificates", "tableau_to_json", "certificates.json"),
    ("modalsat.certificates", "proof_to_json", "certificates.json"),
    ("modalsat.certificates", "model_to_json", "certificates.json"),
    ("modalsat.certificates", "certificate_from_json", "certificates.json"),
    ("modalsat.oracle", "brute_force_sat", "oracle.brute_force_sat"),
    ("modalsat.oracle", "one_step_sound", "oracle.one_step_sound"),
    ("modalsat.sampling", "sample_matchings", "sampling.sample_matchings"),
]

COUNTED = [
    ("modalsat.formula", "eval_with", "formula.eval_with"),
    ("modalsat.logics", "matchings", "logics.matchings"),
    ("modalsat.onestep", "congruence_matchings", "onestep.congruence_matchings"),
]


class Tracer:
    def __init__(self):
        # One row per span: [name, start, end, parent index or -1, kept].
        # ``kept`` is what ``_keep`` read from the call, or None.
        self.rows = []
        self.calls = {}  # counted function -> calls
        self.hits = {}  # counted function -> calls returning something non-empty
        self.errors = {}  # (span name, exception type) -> calls that raised
        self.missing = []  # targets not found in this version of the program
        self._open = -1
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self):
        for module, attr, name in SPANNED:
            self._rebind(module, attr, self._span_wrapper(name))
        for module, attr, name in COUNTED:
            self._rebind(module, attr, self._count_wrapper(name))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore = []

    def _rebind(self, module_name, attr, make_wrapper):
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.missing.append("%s.%s" % (module_name, attr))
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "modalsat" or name.startswith("modalsat.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _span_wrapper(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                row = [name, 0.0, 0.0, self._open, None]
                self.rows.append(row)
                parent = self._open
                self._open = len(self.rows) - 1
                row[1] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    key = (name, type(exc).__name__)
                    self.errors[key] = self.errors.get(key, 0) + 1
                    raise
                finally:
                    row[2] = time.perf_counter()
                    self._open = parent
                try:
                    row[4] = _keep(name, args, result)
                except (AttributeError, TypeError, ValueError, KeyError):
                    # The program changed a return shape: keep the span,
                    # lose only the numbers read from its result.
                    key = (name, "unreadable result")
                    self.errors[key] = self.errors.get(key, 0) + 1
                return result

            return wrapper

        return make

    def _count_wrapper(self, name):
        self.calls[name] = 0
        self.hits[name] = 0

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls[name] += 1
                if result:
                    self.hits[name] += 1
                return result

            return wrapper

        return make

    # -- reading the spans ---------------------------------------------------

    def spans(self):
        """Spans as JSON-ready rows: [name, start_s, end_s, parent]."""
        return [[n, round(b, 7), round(e, 7), p] for n, b, e, p, _ in self.rows]

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        own = [e - b for _, b, e, _, _ in self.rows]
        for _, b, e, p, _ in self.rows:
            if p >= 0:
                own[p] -= e - b
        return own

    def enclosing(self, index, name):
        """Index of the nearest enclosing span called ``name``, or -1."""
        p = self.rows[index][3]
        while p >= 0 and self.rows[p][0] != name:
            p = self.rows[p][3]
        return p


def _keep(name, args, result):
    """The part of a call's arguments and result the layer metrics use."""
    if name == "solver.satisfiable":
        st = result.stats
        return {
            "solve_calls": st.solve_calls,
            "memo_hits": st.memo_hits,
            "matchings_checked": st.matchings_checked,
            "patterns_solved": st.patterns_solved,
            "recursion_peak": st.recursion_peak,
        }
    if name == "linarith.feasible":
        return {"constraints": len(args[0]), "vars": len(args[1]), "infeasible": result is None}
    if name == "logics.refute":
        matching, caveat = result
        return {"found": matching is not None, "caveat": bool(caveat)}
    if name == "certificates.extract_tableau":
        return {"nodes": len(result.nodes), "edges": len(result.edges)}
    if name == "certificates.extract_proof":
        return {"nodes": _proof_nodes(result)}
    if name in ("certificates.tableau_to_model", "oracle.brute_force_sat"):
        return {"found": result is not None}
    return None


def _proof_nodes(doc) -> int:
    seen = set()
    stack = [doc]
    while stack:
        d = stack.pop()
        if id(d) in seen:
            continue
        seen.add(id(d))
        for cp in d.clause_proofs:
            stack.extend(sub for _, sub in cp.parts)
    return len(seen)


def layer_metrics(tr: Tracer, ops: int, cert_bytes: int) -> dict:
    """Per-layer metrics, per op where they are totals."""
    ops = max(ops, 1)
    own = tr.self_times()
    incl = {}
    self_ms = {}
    kept = {}
    calls = {}
    for i, (name, begin, end, _, k) in enumerate(tr.rows):
        incl[name] = incl.get(name, 0.0) + end - begin
        self_ms[name] = self_ms.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if k is not None:
            kept.setdefault(name, []).append(k)

    def ms(total_s):
        return 1000.0 * total_s / ops

    def per_op(n):
        return n / ops

    def ratio(num, den):
        return num / den if den else 0.0

    def total(name, key):
        return sum(r[key] for r in kept.get(name, []))

    def share(name, key):
        rows = kept.get(name, [])
        return ratio(sum(1 for r in rows if r[key]), len(rows))

    # extract_proof time over the time of the deciding solve in the same
    # CLI call (`prove --cert` runs both).
    proof_s = solve_s = 0.0
    for i, (name, begin, end, _, _) in enumerate(tr.rows):
        if name != "certificates.extract_proof":
            continue
        proof_s += end - begin
        call = tr.enclosing(i, "cli.main")
        if call < 0:
            continue
        for j in range(call + 1, len(tr.rows)):
            other = tr.rows[j]
            if other[1] > tr.rows[call][2]:
                break
            if other[0] == "solver.satisfiable" and tr.enclosing(j, "cli.main") == call:
                solve_s += other[2] - other[1]

    solved = kept.get("solver.satisfiable", [])
    memo_hits = total("solver.satisfiable", "memo_hits")
    solve_calls = total("solver.satisfiable", "solve_calls")
    feasible = kept.get("linarith.feasible", [])
    budget_exceeded = sum(
        n for (name, exc), n in tr.errors.items()
        if name == "linarith.feasible" and exc == "SearchBudgetExceeded"
    )
    m = {
        "cli.self_ms": ms(self_ms.get("cli.main", 0.0)),
        "formula.parse_ms": ms(incl.get("formula.parse", 0.0)),
        "formula.eval_calls": per_op(tr.calls.get("formula.eval_with", 0)),
        "solver.self_ms": ms(self_ms.get("solver.satisfiable", 0.0)),
        "solver.solve_calls": per_op(solve_calls),
        "solver.memo_hits": per_op(memo_hits),
        "solver.memo_hit_ratio": ratio(memo_hits, memo_hits + solve_calls),
        "solver.matchings_checked": per_op(total("solver.satisfiable", "matchings_checked")),
        "solver.patterns_solved": per_op(total("solver.satisfiable", "patterns_solved")),
        "solver.recursion_peak": max([r["recursion_peak"] for r in solved] or [0]),
        "logics.matchings_calls": per_op(tr.calls.get("logics.matchings", 0)),
        "logics.matchings_hit_ratio": ratio(tr.hits.get("logics.matchings", 0), tr.calls.get("logics.matchings", 0)),
        "onestep.congruence_calls": per_op(tr.calls.get("onestep.congruence_matchings", 0)),
        "onestep.congruence_hit_ratio": ratio(
            tr.hits.get("onestep.congruence_matchings", 0), tr.calls.get("onestep.congruence_matchings", 0)
        ),
        "logics.refute_calls": per_op(calls.get("logics.refute", 0)),
        "logics.refute_found_ratio": share("logics.refute", "found"),
        "logics.refute_self_ms": ms(self_ms.get("logics.refute", 0.0)),
        "logics.refute_caveats": per_op(total("logics.refute", "caveat")),
        "linarith.feasible_calls": per_op(calls.get("linarith.feasible", 0)),
        "linarith.feasible_ms": ms(incl.get("linarith.feasible", 0.0)),
        "linarith.constraints_in_max": max([r["constraints"] for r in feasible] or [0]),
        "linarith.vars_in_max": max([r["vars"] for r in feasible] or [0]),
        "linarith.infeasible_ratio": share("linarith.feasible", "infeasible"),
        "linarith.budget_exceeded": per_op(budget_exceeded),
        "certificates.extract_tableau_ms": ms(incl.get("certificates.extract_tableau", 0.0)),
        "certificates.check_tableau_ms": ms(incl.get("certificates.check_tableau", 0.0)),
        "certificates.tableau_nodes": per_op(total("certificates.extract_tableau", "nodes")),
        "certificates.tableau_edges": per_op(total("certificates.extract_tableau", "edges")),
        "certificates.tableau_to_model_ms": ms(incl.get("certificates.tableau_to_model", 0.0)),
        "certificates.model_synth_ratio": share("certificates.tableau_to_model", "found"),
        "certificates.extract_proof_ms": ms(proof_s),
        "certificates.proof_to_solve_ratio": ratio(proof_s, solve_s),
        "certificates.check_proof_ms": ms(incl.get("certificates.check_proof", 0.0)),
        "certificates.proof_nodes": per_op(total("certificates.extract_proof", "nodes")),
        "certificates.json_ms": ms(incl.get("certificates.json", 0.0) + incl.get("cli.json", 0.0)),
        "certificates.json_bytes": per_op(cert_bytes),
        "oracle.brute_force_calls": per_op(calls.get("oracle.brute_force_sat", 0)),
        "oracle.brute_force_ms": ms(incl.get("oracle.brute_force_sat", 0.0)),
        "oracle.brute_force_found_ratio": share("oracle.brute_force_sat", "found"),
        "oracle.one_step_sound_calls": per_op(calls.get("oracle.one_step_sound", 0)),
        "oracle.one_step_sound_ms": ms(incl.get("oracle.one_step_sound", 0.0)),
        "sampling.sample_matchings_ms": ms(incl.get("sampling.sample_matchings", 0.0)),
    }
    return m
