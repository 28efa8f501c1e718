"""modalsat benchmark: time to a certified verdict, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload shape-wide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30
    python3 bench/run.py --baselines

One op carries one input item end to end through ``modalsat.cli.main``,
in-process, with ``--format json``: decide it, write the certificate for
the verdict, reload and check it, and for satisfiable formulas in a logic
with model synthesis also build and check a model.  Ops run one after the
other (a closed loop with one client) until ``--seconds`` have passed; each
op has a cap enforced with ``signal.setitimer``.  A fixed speed probe runs
between ops, and the gated times are scaled by it to a reference speed, so
that the host's drifting speed does not move them (see ``run_loop``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same ops run with spans recorded
around every layer's public functions and the last line holds the
per-layer metrics.  Details land in ``bench/out/``.  See DESIGN.md.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

CAP_S = 2.0  # per-op cap, in seconds at the reference speed (see run_loop)
MIN_OPS = 100  # every run carries at least this many ops ...
HARD_STOP_S = 120.0  # ... unless that would run past this
SETUP_REPEATS = 7
# The exhaustive oracle has a heavy tail: most formulas take milliseconds,
# about a quarter take seconds.  Known answers are checked for as many
# distinct formulas as fit in this budget, each under its own cap.
KNOWN_BUDGET_S = 2.0
KNOWN_CAP_S = 0.25
SYNTHESIS = ("E", "M", "K", "KD", "GML", "MAJ", "PML")  # logics `model` builds for


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    mistakes it for one of its own errors."""


class OpError(Exception):
    """The program crashed, printed something other than one JSON record,
    or exited 2."""


def _alarm(signum, frame):
    raise CaseTimeout()


def import_program():
    """Import modalsat from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "modalsat", "__init__.py")):
        sys.exit("error: %s has no modalsat package; run from a full checkout" % SRC)
    sys.path.insert(0, SRC)
    import modalsat

    if not os.path.abspath(modalsat.__file__).startswith(SRC + os.sep):
        sys.exit("error: imported modalsat from %s, not from this checkout" % modalsat.__file__)


# ---------------------------------------------------------------------------
# One op
# ---------------------------------------------------------------------------


class Runner:
    """Runs items through the CLI and judges the outputs."""

    def __init__(self, workdir: str):
        from modalsat import cli

        self.cli = cli
        self.tab = os.path.join(workdir, "tableau.json")
        self.proof = os.path.join(workdir, "proof.json")
        self.model = os.path.join(workdir, "model.json")

    def call(self, argv, row):
        """One CLI invocation: (exit code, parsed JSON record)."""
        out = io.StringIO()
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv)
            except Exception as exc:
                raise OpError("%s: %s" % (type(exc).__name__, exc)) from exc
        row["steps_ms"].append(1000.0 * (time.perf_counter() - t0))
        text = out.getvalue()
        row["stdout"].append(text)
        if rc == 2 and "oracle_disagrees" not in text:
            raise OpError("exit 2: %s" % err.getvalue().strip()[:200])
        lines = text.splitlines()
        if len(lines) != 1:
            raise OpError("expected one JSON line, got %d lines" % len(lines))
        try:
            record = json.loads(lines[0])
        except ValueError as exc:
            raise OpError("output is not JSON: %s" % exc) from exc
        return rc, record

    def run(self, item, cap_s=CAP_S) -> dict:
        for path in (self.tab, self.proof, self.model):
            if os.path.exists(path):
                os.remove(path)
        _clear_process_caches()
        row = {
            "logic": item["logic"],
            "item": item.get("text") or "selftest-rules --count %d --seed %d" % (item["count"], item["seed"]),
            "outcome": None,
            "steps_ms": [],
            "stdout": [],
            "wrong": 0,
            "rejected": 0,
            "caveat": False,
            "model_missing": False,
        }
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        t0 = time.perf_counter()
        try:
            try:
                if item["kind"] == "formula":
                    self._formula(item, row)
                elif item["kind"] == "oracle":
                    self._oracle(item, row)
                else:
                    self._selftest(item, row)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CaseTimeout:
            row["outcome"] = "timeout"
        except OpError as exc:
            row["outcome"] = "error"
            row["error"] = str(exc)
        except (KeyError, TypeError) as exc:
            row["outcome"] = "error"
            row["error"] = "record without the expected fields: %r" % (exc,)
        row["op_ms"] = 1000.0 * (time.perf_counter() - t0)
        row["verdict_ms"] = row["steps_ms"][0] if row["steps_ms"] else row["op_ms"]
        if row["outcome"] is None:
            if row["wrong"]:
                row["outcome"] = "wrong"
            elif row["rejected"]:
                row["outcome"] = "rejected"
            else:
                row["outcome"] = "decided"
        row["cert_bytes"] = 0
        digest = hashlib.sha256("\0".join(row.pop("stdout")).encode())
        for path in (self.tab, self.proof, self.model):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                row["cert_bytes"] += len(data)
                digest.update(data)
        row["output_sha256"] = digest.hexdigest()
        return row

    def _expect_rc(self, rc, positive, caveat):
        want = 3 if caveat else (0 if positive else 1)
        if rc != want:
            raise OpError("exit %d does not match the record (expected %d)" % (rc, want))

    def _formula(self, item, row):
        base = ["--logic", item["logic"], "--format", "json"]
        text = item["text"]
        if item["question"] == "sat":
            rc, rec = self.call(base + ["solve", text, "--cert", self.tab], row)
            verdict = rec["satisfiable"]
            sat, sat_text, valid_text = verdict, text, "~(%s)" % text
        else:
            rc, rec = self.call(base + ["prove", text, "--cert", self.proof], row)
            verdict = rec["valid"]
            sat, sat_text, valid_text = not verdict, "~(%s)" % text, text
        self._expect_rc(rc, verdict, rec["caveat"])
        row["verdict"] = verdict
        row["caveat"] = rec["caveat"]
        if item["expected"] is not None and verdict != item["expected"]:
            row["wrong"] += 1
        if sat:
            if item["question"] == "valid":
                rc, rec = self.call(base + ["solve", sat_text, "--cert", self.tab], row)
                if not rec["satisfiable"]:
                    row["wrong"] += 1  # the two calls disagree
                    return
            self._check(base, sat_text, self.tab, row)
            if item["logic"] in SYNTHESIS:
                rc, rec = self.call(base + ["model", sat_text, "--cert", self.model], row)
                if rc == 1:
                    row["wrong"] += 1
                elif rc == 3:
                    row["model_missing"] = True
                else:
                    self._check(base, sat_text, self.model, row)
        else:
            if item["question"] == "sat":
                rc, rec = self.call(base + ["prove", valid_text, "--cert", self.proof], row)
                if not rec["valid"]:
                    row["wrong"] += 1
                    return
            self._check(base, valid_text, self.proof, row)

    def _check(self, base, text, path, row):
        if not os.path.exists(path):
            row["rejected"] += 1  # the verdict came without its certificate
            return
        rc, rec = self.call(base + ["check-cert", text, "--cert", path], row)
        if rc != 0 or rec.get("ok") is not True:
            row["rejected"] += 1

    def _oracle(self, item, row):
        argv = ["--logic", item["logic"], "--format", "json", "solve", item["text"], "--oracle-check"]
        rc, rec = self.call(argv, row)
        row["verdict"] = rec["satisfiable"]
        row["caveat"] = rec["caveat"]
        if rec.get("oracle_disagrees"):
            row["wrong"] += 1
            return
        self._expect_rc(rc, rec["satisfiable"], rec["caveat"])
        if item["exhaustive"] and rec["satisfiable"] != rec["oracle_model_found"]:
            row["wrong"] += 1

    def _selftest(self, item, row):
        argv = [
            "--logic", item["logic"], "--format", "json",
            "selftest-rules", "--count", str(item["count"]), "--seed", str(item["seed"]),
        ]
        rc, rec = self.call(argv, row)
        row["verdict"] = rec["unsound"] == 0
        if rc != 0 or rec["unsound"] != 0:
            row["wrong"] += 1


def _clear_process_caches():
    """Each op models one CLI invocation, which starts with empty caches."""
    from modalsat import oracle

    cache = getattr(oracle, "_SOUNDNESS_CACHE", None)
    if cache is not None:
        cache.clear()


# ---------------------------------------------------------------------------
# Known answers for random formulas, checked after the timed region
# ---------------------------------------------------------------------------


def check_known_answers(items, rows):
    """Compare random formulas' verdicts with the exhaustive oracle:
    (rows checked, rows left without a known answer)."""
    from modalsat import brute_force_sat, parse, parse_logic_spec
    import corpus

    answers = {}
    checked = unknown = 0
    budget = time.perf_counter() + KNOWN_BUDGET_S
    for item, row in zip(items, rows):
        if item["kind"] != "formula" or item["expected"] is not None or "verdict" not in row:
            continue
        key = (item["logic"], item["text"])
        if key not in answers:
            cfg = parse_logic_spec(item["logic"])
            f = parse(item["text"], cfg.n_agents)
            answers[key] = None
            if corpus.oracle_exhaustive(f) and time.perf_counter() < budget:
                signal.setitimer(signal.ITIMER_REAL, KNOWN_CAP_S)
                try:
                    try:
                        answers[key] = brute_force_sat(f, cfg) is not None
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except CaseTimeout:
                    pass
        if answers[key] is None:
            unknown += 1
            continue
        checked += 1
        if answers[key] != row["verdict"] and row["outcome"] != "timeout":
            row["wrong"] += 1
            row["outcome"] = "wrong"
    return checked, unknown


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def setup(workload, seed, workdir):
    """Import the program afresh, generate the corpus and warm up with one
    trivial CLI call per logic: (runner, items, round_len, digest)."""
    for name in list(sys.modules):
        if name in ("modalsat", "corpus") or name.startswith("modalsat."):
            del sys.modules[name]
    import corpus

    runner = Runner(workdir)
    items, round_len, digest = corpus.generate(workload, seed)
    for logic in sorted({it["logic"] for it in items}):
        runner.call(["--logic", logic, "--format", "json", "solve", "p"], {"steps_ms": [], "stdout": []})
    return runner, items, round_len, digest


# The speed probe: a fixed piece of interpreter work that creates no object
# the garbage collector tracks, so the program's heap cannot slow it.
PROBE_TABLE = {i: (7 * i + 3) & 1023 for i in range(1024)}
PROBE_ITERS = 30000
# The probe's time at the reference speed, about its median on the 2-vCPU
# Xeon host the bounds were set on.  Gated times are scaled to this speed.
PROBE_REF_MS = 3.0


def time_probe() -> float:
    """Milliseconds the probe takes now."""
    table = PROBE_TABLE
    x = 0
    t0 = time.perf_counter()
    for i in range(PROBE_ITERS):
        x = table[(x + i) & 1023]
    return 1000.0 * (time.perf_counter() - t0)


def speed(before: float, after: float) -> float:
    """The host's speed over an interval, relative to the reference speed,
    from the probe times on either side of it."""
    return PROBE_REF_MS / ((before + after) / 2)


def run_loop(runner, items, round_len, seconds):
    """Run items in order until ``seconds`` have passed, finishing the round
    in progress so that every round counted has the same mix.

    The host's speed drifts by up to half within seconds, so the probe is
    timed before the first op and after every op, and each op's times are
    scaled to the reference speed by the mean of the probes on either side
    (``op_ref_ms``, ``verdict_ref_ms``).  The cap is applied at the
    reference speed too: its wall-clock length follows the probe before the
    op, so which ops time out does not depend on the host's speed, and a
    timed-out op counts as lasting exactly the cap.
    """
    rows = []
    probes = [time_probe()]
    t0 = time.perf_counter()
    deadline = t0 + seconds
    hard = t0 + HARD_STOP_S
    i = 0
    while True:
        now = time.perf_counter()
        if now >= hard or (now >= deadline and len(rows) >= MIN_OPS and i % round_len == 0):
            break
        rows.append(runner.run(items[i % len(items)], CAP_S * probes[-1] / PROBE_REF_MS))
        probes.append(time_probe())
        i += 1
    wall_s = time.perf_counter() - t0
    for row, before, after in zip(rows, probes, probes[1:]):
        row["speed"] = speed(before, after)
        row["op_ref_ms"] = row["op_ms"] * row["speed"]
        row["verdict_ref_ms"] = row["verdict_ms"] * row["speed"]
        if row["outcome"] == "timeout":
            row["op_ref_ms"] = 1000.0 * CAP_S
            if not row["steps_ms"]:
                row["verdict_ref_ms"] = 1000.0 * CAP_S
    return rows, wall_s


def quantile(values, q):
    """Quantile by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def end_to_end(rows, setup_s):
    """The gated metrics.  Latencies and throughput are at the reference
    speed (see ``run_loop``), so their unit is the reference millisecond or
    second."""
    ops = len(rows)
    op_ms = [r["op_ref_ms"] for r in rows]
    verdict_ms = [r["verdict_ref_ms"] for r in rows]
    completed = sum(1 for r in rows if r["outcome"] != "timeout")
    return {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (quantile(op_ms, 50), "ref_ms"),
        "op_ms_p90": (quantile(op_ms, 90), "ref_ms"),
        "verdict_ms_p50": (quantile(verdict_ms, 50), "ref_ms"),
        "verdict_ms_p90": (quantile(verdict_ms, 90), "ref_ms"),
        "ops_per_s": (1000.0 * completed / sum(op_ms), "1/ref_s"),
        "decided_share": (sum(1 for r in rows if r["outcome"] == "decided") / ops, "share"),
    }


def wall_clock(rows, wall_s):
    """The same figures unscaled, as this run's host gave them; printed and
    recorded but not gated."""
    op_ms = [r["op_ms"] for r in rows]
    verdict_ms = [r["verdict_ms"] for r in rows]
    completed = sum(1 for r in rows if r["outcome"] != "timeout")
    return {
        "op_ms_p50": quantile(op_ms, 50),
        "op_ms_p90": quantile(op_ms, 90),
        "verdict_ms_p50": quantile(verdict_ms, 50),
        "verdict_ms_p90": quantile(verdict_ms, 90),
        "ops_per_s": completed / wall_s,
        "speed_median": statistics.median(r["speed"] for r in rows),
    }


def counts(rows):
    out = {}
    for r in rows:
        out[r["outcome"]] = out.get(r["outcome"], 0) + 1
    return {
        "attempted": len(rows),
        "outcomes": out,
        "wrong_verdicts": sum(r["wrong"] for r in rows),
        "cert_rejected": sum(r["rejected"] for r in rows),
        "caveat_share": sum(1 for r in rows if r["caveat"]) / len(rows),
        "models_missing": sum(1 for r in rows if r["model_missing"]),
    }


def trace_check(runner, items, seconds):
    """Run the first items once untraced and once traced, alternating which
    goes first: the outputs must be identical, and the time ratio is the
    tracing overhead."""
    import tracing

    budget = time.perf_counter() + max(2.0, seconds / 5.0)
    plain_s = traced_s = 0.0
    compared = mismatched = 0
    for i, item in enumerate(items):
        if time.perf_counter() >= budget:
            break
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tr = tracing.Tracer()
            if traced:
                tr.install()
            try:
                runs[traced] = runner.run(item)
            finally:
                tr.uninstall()
        a, b = runs[False], runs[True]
        if "timeout" in (a["outcome"], b["outcome"]):
            continue
        compared += 1
        plain_s += a["op_ms"]
        traced_s += b["op_ms"]
        same = (a["outcome"], a.get("verdict"), a["output_sha256"]) == (b["outcome"], b.get("verdict"), b["output_sha256"])
        if not same:
            mismatched += 1
    return compared, mismatched, (traced_s / plain_s if plain_s else 0.0)


def git_commit():
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_all(args) -> int:
    """Every workload, untraced and then traced, one process per run."""
    import corpus

    rc = 0
    for workload in corpus.WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace]
            rc = rc or subprocess.run(argv, cwd=ROOT).returncode
    return rc


def main(argv=None) -> int:
    import corpus

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(corpus.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baselines", action="store_true", help="run the single-run reference checks and exit")
    args = p.parse_args(argv)
    if args.baselines:
        import baselines

        return baselines.main()
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    signal.signal(signal.SIGALRM, _alarm)
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        # Set-up is timed like an op: scaled to the reference speed by the
        # probes on either side, and the median of the repetitions taken.
        reps = []
        probe = time_probe()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            runner, items, round_len, digest = setup(args.workload, args.seed, workdir)
            elapsed = time.perf_counter() - t0
            before, probe = probe, time_probe()
            reps.append(elapsed * speed(before, probe))
        setup_s = statistics.median(reps)

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            rows, wall_s = run_loop(runner, items, round_len, args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t0 = time.perf_counter()
        known_checked, known_unknown = check_known_answers([items[i % len(items)] for i in range(len(rows))], rows)
        known_s = time.perf_counter() - t0
        summary = counts(rows)
        summary["known_answer_checked"] = known_checked
        summary["known_answer_unknown"] = known_unknown
        summary["peak_rss_mb"] = peak_rss_mb
        e2e = end_to_end(rows, setup_s)
        wall = wall_clock(rows, wall_s)
        correct = summary["wrong_verdicts"] == 0 and summary["cert_rejected"] == 0
        if args.trace:
            import tracing

            compared, mismatched, overhead = trace_check(runner, items, args.seconds)
            summary["trace_compared_ops"] = compared
            summary["trace_mismatched_ops"] = mismatched
            summary["untraced_targets"] = tracer.missing
            summary["trace_errors"] = {"%s:%s" % k: n for k, n in tracer.errors.items()}
            correct = correct and mismatched == 0
            layer = tracing.layer_metrics(tracer, len(rows), sum(r["cert_bytes"] for r in rows))
            layer["trace.overhead_ratio"] = overhead
            layer["process.peak_rss_mb"] = peak_rss_mb
            metrics = {name: (value, _layer_unit(name)) for name, value in layer.items()}
        else:
            metrics = e2e
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    failed = sum(1 for r in rows if r["outcome"] in ("error", "wrong", "rejected"))
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "corpus_items": len(items),
        "round_items": round_len,
        "corpus_sha256": digest,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cap_s": CAP_S,
        "setup_repeats_s": reps,
        "known_answer_check_s": known_s,
        "total_s": time.perf_counter() - T_START,
    }
    report = {
        "meta": meta,
        "summary": summary,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "wall_clock": wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rows": [{k: v for k, v in r.items() if k != "steps_ms"} for r in rows],
    }
    if tracer is not None:
        report["spans"] = tracer.spans()
    out_path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out_path, "w") as fh:
        json.dump(report, fh)

    print("workload %s  seed %d  corpus %d items sha256 %s" % (args.workload, args.seed, len(items), digest[:16]))
    print("commit %s  python %s  nproc %s" % (meta["commit"][:12], meta["python"], meta["nproc"]))
    print("ops %d in %.2f s (cap %.1f s per op); outcomes %s" % (len(rows), wall_s, CAP_S, json.dumps(summary["outcomes"], sort_keys=True)))
    print(
        "wrong_verdicts %d  cert_rejected %d  caveat_share %.4f  models_missing %d  known answers checked %d  peak_rss_mb %.1f"
        % (summary["wrong_verdicts"], summary["cert_rejected"], summary["caveat_share"], summary["models_missing"],
           known_checked, peak_rss_mb)
    )
    if args.trace:
        print("trace: %d ops compared with an untraced run, %d differ; untraced targets %s"
              % (summary["trace_compared_ops"], summary["trace_mismatched_ops"], tracer.missing or "none"))
    print("wall clock, not scaled: %s" % "  ".join("%s %.4g" % kv for kv in wall.items()))
    for name, (value, unit) in metrics.items():
        print("%-36s %14.6f %-8s (%d ops)" % (name, value, unit, len(rows)))
    print("known-answer check %.2f s; whole run %.2f s; details: %s"
          % (known_s, meta["total_s"], os.path.relpath(out_path, ROOT)))
    print(json.dumps({
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_unit(name):
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes/op"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_max", "recursion_peak")):
        return "count"
    return "count/op"


if __name__ == "__main__":
    import_program()
    sys.exit(main())
