"""Workload inputs for the benchmark, each with its known answer where one
is known.

Every input is generated from the workload seed, so the same seed gives the
same items in the same order.  An item is a dict:

* formula items: ``{"kind": "formula", "logic", "text", "question",
  "expected"}``.  ``question`` is ``"sat"`` (decided with ``solve``) or
  ``"valid"`` (decided with ``prove``); ``expected`` is True, False or None
  (no answer known in advance).
* oracle items: ``{"kind": "oracle", "logic", "text", "exhaustive"}``, one
  ``solve --oracle-check``.  ``exhaustive`` marks formulas on which the
  bounded oracle search is complete, so its answer must equal the verdict.
* selftest items: ``{"kind": "selftest", "logic", "count", "seed"}``, one
  ``selftest-rules`` batch; every sampled rule is sound.

Seeds change atom names and the order of items, never the shape of a
family or of a random formula, so that two seeds measure the same costs
(see ``generate``).
"""

from __future__ import annotations

import hashlib
import json
import random

from modalsat.formula import FModal, Atom, conj_fold, modal_atoms, pretty
from modalsat.logics import parse_logic_spec
from modalsat.sampling import random_formula

# ---------------------------------------------------------------------------
# Known validities and non-validities.  Copied from tests/test_acceptance.py
# so that the benchmark's known answers cannot drift with the tests.
# ---------------------------------------------------------------------------


def _bang(n: int, body: str) -> str:
    """Exactly-n counting abbreviation over the graded diamond."""
    if n == 0:
        return "~<0>(%s)" % body
    return "(<%d>(%s) & ~<%d>(%s))" % (n - 1, body, n, body)


def _gbox(body: str) -> str:
    """Graded box: no successor falsifies the body."""
    return "~<0>~(%s)" % body


VALID = [
    ("K", "[](a -> b) -> ([]a -> []b)"),
    ("KD", "[](a -> b) -> ([]a -> []b)"),
    ("KD", "~[]false"),
    ("E", "(a -> a)"),
    ("M", "[](a & b) -> []a"),
    ("GML", "<1>a -> <0>a"),
    ("GML", "<2>a -> <1>a"),
    ("GML", "<3>a -> <2>a"),
    ("GML", "%s -> (<0>a -> <0>b)" % _gbox("a -> b")),
    ("GML", "%s -> (<1>a -> <1>b)" % _gbox("a -> b")),
    ("GML", "%s -> (<2>a -> <2>b)" % _gbox("a -> b")),
    ("GML", "%s -> ((%s & %s) -> %s)" % (_bang(0, "a & b"), _bang(0, "a"), _bang(0, "b"), _bang(0, "a | b"))),
    ("GML", "%s -> ((%s & %s) -> %s)" % (_bang(0, "a & b"), _bang(1, "a"), _bang(0, "b"), _bang(1, "a | b"))),
    ("GML", "%s -> ((%s & %s) -> %s)" % (_bang(0, "a & b"), _bang(1, "a"), _bang(1, "b"), _bang(2, "a | b"))),
    ("GML", "%s -> ((%s & %s) -> %s)" % (_bang(0, "a & b"), _bang(2, "a"), _bang(1, "b"), _bang(3, "a | b"))),
    ("GML", _gbox("true")),
    ("MAJ", "M a & M b -> <0>(a & b)"),
    ("MAJ", "M a & %s -> M b" % _gbox("a -> b")),
    ("MAJ", "W a & W b & <0>(~a & ~b) -> <0>(a & b)"),
    ("MAJ", "W a & W b & <1>(~a & ~b) -> <1>(a & b)"),
    ("MAJ", "W a & M b & <0>(~a & ~b) -> <1>(a & b)"),
    ("MAJ", "W a & M b & <1>(~a & ~b) -> <2>(a & b)"),
    ("PML", "L{0/1}a"),
    ("PML", "L{1/1}true"),
    ("PML", "~L{2/3}a | ~L{2/3}~a"),
    ("PML", "~L{1/1}a | ~L{1/2}~a"),
    ("PML", "L{1/2}a | L{1/2}~a"),
    ("PML", "L{2/3}a | L{1/3}~a"),
    ("COAL:2", "[C 1]a -> [C 1,2]a"),
    ("COAL:2", "[C 1]a & [C 2]b -> [C 1,2](a & b)"),
    ("COAL:2", "~([C 1]a & [C 2]~a)"),
    ("COAL:2", "[C 1,2](a | ~a)"),
]

INVALID = [
    ("K", "[](a | b) -> ([]a | []b)"),
    ("PML", "L{1/2}(a | b) -> (L{1/2}a | L{1/2}b)"),
    ("E", "[](a & b) -> []a"),
    ("GML", "<0>a -> <1>a"),
    ("MAJ", "W a -> M a"),
    ("COAL:2", "[C 1,2]a -> [C 1]a"),
]

ALL_LOGICS = ("E", "M", "K", "KD", "COAL:2", "GML", "MAJ", "PML")
LINEAR_LOGICS = ("GML", "MAJ", "PML")

# ---------------------------------------------------------------------------
# Families.  Each family maps a width n and an atom-name prefix to a formula
# text whose answer follows from its construction (see DESIGN.md).
# ---------------------------------------------------------------------------


def _names(prefix, n):
    return ["%s%d" % (prefix, i) for i in range(n)]


def k_wide_sat(n, a):  # ~[]a0 & ... & [](a0 | ... ): n successors, one per atom
    xs = _names(a, n)
    return " & ".join(["~[]" + x for x in xs] + ["[](%s)" % " | ".join(xs)])


def k_wide_unsat(n, a):  # [](a0 & ...) implies []a0
    xs = _names(a, n)
    return " & ".join(["~[]" + x for x in xs] + ["[](%s)" % " & ".join(xs)])


def kd_wide_unsat(n, a):  # boxes force a successor with ai and some ~ai
    xs = _names(a, n)
    return " & ".join(["[]" + x for x in xs] + ["[](%s)" % " | ".join("~" + x for x in xs)])


def coal_wide_sat(n, a):  # {1} cannot force any ai, all agents can force one
    xs = _names(a, n)
    return " & ".join(["~[C 1]" + x for x in xs] + ["[C 1,2,3](%s)" % " | ".join(xs)])


def coal_wide_unsat(n, a):  # disjoint coalitions force a0 and ~a0
    xs = _names(a, n)
    return " & ".join(["[C 1]" + x for x in xs] + ["[C 2,3](%s)" % " & ".join("~" + x for x in xs)])


def k_prop_sat(n, a, signs):  # propositional literals beside ~[]b & []c
    lits = [("" if s else "~") + x for x, s in zip(_names(a, n), signs)]
    return " & ".join(lits + ["~[]%sb" % a, "[]%sc" % a])


def k_prop_unsat(n, a, signs):  # ~[]b & [](b & c)
    lits = [("" if s else "~") + x for x, s in zip(_names(a, n), signs)]
    return " & ".join(lits + ["~[]%sb" % a, "[](%sb & %sc)" % (a, a)])


def k_validity(n, a):  # K distributes the box over a conjunction
    xs = _names(a, n)
    return "%s -> [](%s)" % (" & ".join(["[]" + x for x in xs]), " & ".join(xs))


def m_validity(n, a):  # monotonicity: [](a0 & ...) implies each []ai
    xs = _names(a, n)
    return "[](%s) -> %s" % (" & ".join(xs), " & ".join(["[]" + x for x in xs]))


def gml_wide(n, a):  # n successors, each satisfying every ai
    xs = _names(a, n)
    return " & ".join(["<%d>%s" % (i, x) for i, x in enumerate(xs)] + ["~<%d>(%s)" % (n, " | ".join(xs))])


def maj_wide(n, a):  # n successors, the i-th missing only ai (n >= 2)
    xs = _names(a, n)
    return " & ".join(["W " + x for x in xs] + ["~<0>(%s)" % " & ".join(xs)])


def pml_wide(n, a):  # mass 1/2 on a state with every ai, 1/2 on one with none
    xs = _names(a, n)
    return " & ".join(["L{1/%d}%s" % (n, x) for x in xs] + ["~L{1/1}(%s)" % " | ".join(xs)])


# Widest member of each shape family.  The largest cases take roughly half
# a second at the seed commit on 2 cores, so a run of a few seconds still
# carries every width several times.
SHAPE_WIDTHS = {"K": 9, "KD": 9, "KD_UNSAT": 7, "COAL": 9, "KPROP": 10, "KVALID": 7, "MVALID": 7}

# Linear width families run from width 2 up to and including the first width
# the seed commit cannot decide within the per-case cap (see DESIGN.md).
LINEAR_WIDTHS = {"GML": 5, "MAJ": 4, "PML": 4}


def _formula(logic, text, question, expected):
    return {"kind": "formula", "logic": logic, "text": text, "question": question, "expected": expected}


def _prefix(rng):
    return rng.choice("abcdefghjkmnpqrstuvwxyz")


def shape_wide(rng, pool):
    items = []
    for n in range(2, SHAPE_WIDTHS["K"] + 1):
        items.append(_formula("K", k_wide_sat(n, _prefix(rng)), "sat", True))
        items.append(_formula("K", k_wide_unsat(n, _prefix(rng)), "sat", False))
    for n in range(2, SHAPE_WIDTHS["KD"] + 1):
        items.append(_formula("KD", k_wide_sat(n, _prefix(rng)), "sat", True))
    for n in range(2, SHAPE_WIDTHS["KD_UNSAT"] + 1):
        items.append(_formula("KD", kd_wide_unsat(n, _prefix(rng)), "sat", False))
    for n in range(2, SHAPE_WIDTHS["COAL"] + 1):
        items.append(_formula("COAL:3", coal_wide_sat(n, _prefix(rng)), "sat", True))
        items.append(_formula("COAL:3", coal_wide_unsat(n, _prefix(rng)), "sat", False))
    for n in range(2, SHAPE_WIDTHS["KPROP"] + 1):
        signs = [i % 2 == 0 for i in range(n)]
        items.append(_formula("K", k_prop_sat(n, _prefix(rng), signs), "sat", True))
        items.append(_formula("K", k_prop_unsat(n, _prefix(rng), signs), "sat", False))
    for n in range(2, SHAPE_WIDTHS["KVALID"] + 1):
        items.append(_formula("K", k_validity(n, _prefix(rng)), "valid", True))
    for n in range(2, SHAPE_WIDTHS["MVALID"] + 1):
        items.append(_formula("M", m_validity(n, _prefix(rng)), "valid", True))
    return items


def _atom_names(rng):
    """Three distinct atom names for random formulas, chosen by the seed."""
    return tuple(rng.sample("abcdefghjkmnpqrstuvwxyz", 3))


def _random_conjunction(pool, rng, spec, conjuncts, max_depth):
    cfg = parse_logic_spec(spec)
    atoms = _atom_names(rng)
    f = conj_fold([random_formula(pool, cfg, max_depth=max_depth, atoms=atoms) for _ in range(conjuncts)])
    return f, pretty(f)


def proper_atoms(f):
    return [a for a in modal_atoms(f) if isinstance(a, FModal) and not isinstance(a.op, Atom)]


def max_atoms_per_level(f) -> int:
    """Largest number of distinct proper modal atoms at any one level."""
    here = proper_atoms(f)
    return max([len(here)] + [max_atoms_per_level(a.arg) for a in here])


def oracle_exhaustive(f) -> bool:
    """The bounded tree search of ``brute_force_sat`` is complete here (the
    same condition the acceptance tests use for exact agreement)."""
    return f.depth <= 2 and max_atoms_per_level(f) <= 2


def linear_width(rng, pool, per_logic=60):
    items = []
    for n in range(2, LINEAR_WIDTHS["GML"] + 1):
        items.append(_formula("GML", gml_wide(n, _prefix(rng)), "sat", True))
    for n in range(2, LINEAR_WIDTHS["MAJ"] + 1):
        items.append(_formula("MAJ", maj_wide(n, _prefix(rng)), "sat", True))
    for n in range(2, LINEAR_WIDTHS["PML"] + 1):
        items.append(_formula("PML", pml_wide(n, _prefix(rng)), "sat", True))
    for spec in LINEAR_LOGICS:
        for _ in range(per_logic):
            _, text = _random_conjunction(pool, rng, spec, 3, 2)
            items.append(_formula(spec, text, "sat", None))
    return items


def certify_mixed(rng, pool, per_logic=25):
    items = [_formula(spec, text, "valid", True) for spec, text in VALID]
    items += [_formula(spec, text, "valid", False) for spec, text in INVALID]
    for spec in ALL_LOGICS:
        for _ in range(per_logic):
            _, text = _random_conjunction(pool, rng, spec, 2, 3)
            items.append(_formula(spec, text, "sat", None))
    return items


# Rules sampled per selftest-rules batch, sized so one batch takes tens of
# milliseconds at the seed commit: the probabilistic and coalition oracles
# enumerate far larger structure spaces than the relational ones.
SELFTEST_COUNT = {"E": 16, "M": 8, "K": 16, "KD": 16, "COAL:2": 4, "GML": 4, "MAJ": 8, "PML": 1}


def crosscheck(rng, pool, per_logic=30, batches=5):
    items = []
    for spec in ALL_LOGICS:
        cfg = parse_logic_spec(spec)
        for _ in range(per_logic):
            f = random_formula(pool, cfg, max_depth=2, atoms=_atom_names(rng))
            items.append({"kind": "oracle", "logic": spec, "text": pretty(f), "exhaustive": oracle_exhaustive(f)})
        for _ in range(batches):
            items.append({"kind": "selftest", "logic": spec, "count": SELFTEST_COUNT[spec], "seed": pool.randrange(1 << 30)})
    return items


WORKLOADS = {
    "shape-wide": shape_wide,
    "linear-width": linear_width,
    "certify-mixed": certify_mixed,
    "crosscheck": crosscheck,
}


# Rounds generated per run.  A run takes whole rounds in order and wraps
# around only if the program gets through all of them.
ROUNDS = 8


def generate(workload: str, seed: int):
    """(items, round_length, digest): the workload's items in run order.

    The items come in rounds of equal content.  Each round holds every
    family once and one draw of random formulas, shuffled together.  The
    shapes of the random formulas come from a generator fixed per workload
    (``pool``); the seed picks atom names and family prefixes and the order
    of items.  Fresh random shapes per seed moved the latency quantiles by
    about a third from seed to seed, more than any bound can absorb, so the
    seed varies the presentation of a fixed sample instead.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    items = []
    for _ in range(ROUNDS):
        pool = random.Random("%s/pool" % workload)
        batch = WORKLOADS[workload](rng, pool)
        rng.shuffle(batch)
        items += batch
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return items, len(items) // ROUNDS, hashlib.sha256(blob).hexdigest()
