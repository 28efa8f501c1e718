"""One-step rules: codes, premises, matchings, and their demands.

A rule has a propositional premise over variables and a clause conclusion
whose literals apply one modal operator each to a distinct variable.  Rule
variables are identified with conclusion literal positions ``0..arity-1``
(congruence uses two positions).  A matching pairs a rule code with a
substitution assigning an argument formula to every variable; the conclusion
instance must equal the matched clause literal-for-literal.

Rule codes are finite descriptions (scheme tag plus integer/rational/grade/
coalition parameters) that are serializable and checkable in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .formula import (
    Box,
    Coal,
    Formula,
    GDiamond,
    LProb,
    MajW,
    conj_fold,
    modal,
    neg_fold,
)


def parse_fraction(text) -> Fraction:
    """Read a rational written ``p/q``; raises ValueError for any other text,
    a zero denominator included."""
    num, den = str(text).split("/")
    if int(den) == 0:
        raise ValueError("zero denominator in %r" % (text,))
    return Fraction(int(num), int(den))


def json_int(value) -> int:
    """A JSON integer as read; raises ValueError for a bool, a float, a
    string or anything else that ``int()`` would coerce."""
    if type(value) is not int:
        raise ValueError("%r is not an integer" % (value,))
    return value


def json_str(value) -> str:
    """A JSON string as read; raises ValueError for any other value."""
    if type(value) is not str:
        raise ValueError("%r is not a string" % (value,))
    return value


def json_bool(value) -> bool:
    """A JSON boolean as read; raises ValueError for any other value."""
    if type(value) is not bool:
        raise ValueError("%r is not a boolean" % (value,))
    return value


# ---------------------------------------------------------------------------
# Rule codes
# ---------------------------------------------------------------------------

# Scheme tags:
#   CONG   congruence (every logic): premise a<->b, conclusion ~La | Lb
#   K      box: conjunction of negatives implies the single positive
#   KD     box, all-negative conclusion with inconsistent premise
#   M      box monotonicity: ~[]a | []b from a -> b
#   COAL1  coalition: all-negative, pairwise disjoint coalitions
#   COAL4  coalition: disjoint coalitions inside the distinguished positive,
#          remaining positives carry the grand coalition
#   GML    graded linear rule, premise sum(r_i a_i) >= 0
#   MAJ    graded/majority linear rule, premise sum(r_i a_i) >= m
#   PML    probabilistic linear rule, premise sum(r_i a_i) >= k
#
# ``ints`` holds the sign pattern (+1/-1 per literal) for shape schemes
# (COAL4 appends the index of the distinguished positive literal), and the
# coefficient list followed by the premise bound for linear schemes.
# ``grades`` aligns with literals for GML/MAJ (-1 marks a W literal) and
# holds the single operator grade for graded congruence.  ``rationals``
# holds per-literal probability indices (PML and probabilistic congruence).
# ``coalitions`` holds per-literal coalitions for COAL1/COAL4 and the single
# coalition for coalition congruence.

LINEAR_SCHEMES = ("GML", "MAJ", "PML")


@dataclass(frozen=True)
class RuleCode:
    logic: str
    scheme: str
    ints: tuple = ()
    rationals: tuple = ()
    grades: tuple = ()
    coalitions: tuple = ()

    def arity(self) -> int:
        if self.scheme == "CONG":
            return 2
        # The bound or the distinguished literal follows the literals' ints.
        if self.scheme in LINEAR_SCHEMES or self.scheme == "COAL4":
            return len(self.ints) - 1
        return len(self.ints)

    def signs(self) -> tuple:
        """Conclusion literal signs, True = positive: the signs of the
        literals' ints, sign pattern or coefficients alike."""
        return tuple(s > 0 for s in self.ints[: self.arity()])

    def to_json(self) -> dict:
        return {
            "logic": self.logic,
            "scheme": self.scheme,
            "ints": list(self.ints),
            "rationals": ["%d/%d" % (q.numerator, q.denominator) for q in self.rationals],
            "grades": list(self.grades),
            "coalitions": [sorted(c) for c in self.coalitions],
        }

    @staticmethod
    def from_json(data: dict) -> "RuleCode":
        return RuleCode(
            logic=json_str(data["logic"]),
            scheme=json_str(data["scheme"]),
            ints=tuple(json_int(i) for i in data.get("ints", ())),
            rationals=tuple(parse_fraction(item) for item in data.get("rationals", ())),
            grades=tuple(json_int(g) for g in data.get("grades", ())),
            coalitions=tuple(
                frozenset(json_int(i) for i in c) for c in data.get("coalitions", ())
            ),
        )


def code_operators(code: RuleCode, n_agents: int) -> tuple:
    """The modal operator applied at each conclusion literal."""
    arity = code.arity()
    if code.scheme == "CONG":
        if code.grades:
            op = GDiamond(code.grades[0])
        elif code.rationals:
            op = LProb(code.rationals[0])
        elif code.coalitions:
            op = Coal(code.coalitions[0], n_agents)
        elif code.logic == "MAJ":
            op = MajW()
        else:
            op = Box()
        return (op, op)
    if code.scheme in ("K", "KD", "M"):
        return tuple(Box() for _ in range(arity))
    if code.scheme in ("COAL1", "COAL4"):
        return tuple(Coal(c, n_agents) for c in code.coalitions)
    if code.scheme == "GML":
        return tuple(GDiamond(g) for g in code.grades)
    if code.scheme == "MAJ":
        return tuple(MajW() if g < 0 else GDiamond(g) for g in code.grades)
    if code.scheme == "PML":
        return tuple(LProb(p) for p in code.rationals)
    raise ValueError("unknown scheme %r" % code.scheme)


def premise_clauses(code: RuleCode) -> Iterator[tuple]:
    """The CNF clauses of a rule code's premise over the variables
    ``0 .. arity-1``, as tuples of ``(positive, var)`` literals, each naming
    every variable once; the one statement of each rule's premise.

    Congruence ``a <-> b`` has two clauses, the negative conclusion
    literal's variable first in each; a shape scheme has the one clause
    that mirrors its conclusion's signs.  A linear premise
    ``sum(c_i a_i) >= bound`` has one clause per subset J of the variables
    whose coefficient sum is below the bound, in binary-counter order: the
    clause false exactly when the variables in J are true and the rest
    false."""
    if code.scheme == "CONG":
        neg = 0 if code.ints[0] < 0 else 1
        yield ((False, neg), (True, 1 - neg))
        yield ((True, neg), (False, 1 - neg))
    elif code.scheme in LINEAR_SCHEMES:
        coeffs, bound = code.ints[:-1], code.ints[-1]
        for bits in range(1 << len(coeffs)):
            if sum(c for j, c in enumerate(coeffs) if bits >> j & 1) < bound:
                yield tuple((not bits >> j & 1, j) for j in range(len(coeffs)))
    else:
        yield tuple((s, i) for i, s in enumerate(code.signs()))


# ---------------------------------------------------------------------------
# Matchings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleMatching:
    """A rule code together with the substitution extracted from a clause.

    ``subst[i]`` is the argument formula of conclusion literal i.
    """

    code: RuleCode
    subst: tuple


def conclusion_clause(matching: RuleMatching, n_agents: int) -> tuple:
    ops = code_operators(matching.code, n_agents)
    signs = matching.code.signs()
    return tuple(
        (signs[i], modal(ops[i], matching.subst[i])) for i in range(len(ops))
    )


def demands(m: RuleMatching) -> Iterator[Formula]:
    """The formulas a rule instance demands, one per premise clause in
    ``premise_clauses`` order: the clause's negated instance, the
    conjunction of its literals' negated arguments, constant-folded.  An
    instance whose demands are all unsatisfiable shows its conclusion
    valid; the solver, both certificate checkers and proof extraction read
    the demands here."""
    for clause in premise_clauses(m.code):
        yield conj_fold([neg_fold(m.subst[v]) if s else m.subst[v] for s, v in clause])


def congruence_matchings(clause, logic: str) -> list:
    """Congruence matchings of a clause of proper modal literals: exactly
    one negative and one positive literal carrying the same operator."""
    if len(clause) != 2:
        return []
    (s0, a0), (s1, a1) = clause
    if s0 == s1 or a0.op != a1.op:
        return []
    op = a0.op
    grades = ()
    rationals = ()
    coalitions = ()
    if isinstance(op, GDiamond):
        grades = (op.grade,)
    elif isinstance(op, LProb):
        rationals = (op.prob,)
    elif isinstance(op, Coal):
        coalitions = (op.agents,)
    code = RuleCode(
        logic=logic,
        scheme="CONG",
        ints=(1 if s0 else -1, 1 if s1 else -1),
        rationals=rationals,
        grades=grades,
        coalitions=coalitions,
    )
    return [RuleMatching(code, (a0.arg, a1.arg))]
