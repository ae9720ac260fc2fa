"""Hilbert-style proof checking for the propositional deductive system.

The axiom schemas are a standard complete set for intuitionistic
propositional logic with primitive negation: K, S, the conjunction
introduction/elimination triple, the disjunction introduction pair and
elimination, negation introduction, and ex falso.  The single rule of
inference is modus ponens.

`deduction` implements the deduction theorem as a proof compiler: given a
proof of b from hypotheses H + [a] it emits a hypothesis-free-in-a proof of
a -> b, which the checker re-verifies line by line.  This gives the test
suite an independent way to construct certified proofs of theorems whose
raw Hilbert derivations would be tedious to write by hand.
"""
from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .._record import field, record
from .syntax import And, Atom, Formula, Implies, Not, Or, fold_formula, format_formula

_a, _b, _c = Atom("?a"), Atom("?b"), Atom("?c")

SCHEMAS: Mapping[str, Formula] = {
    "K": Implies(_a, Implies(_b, _a)),
    "S": Implies(Implies(_a, Implies(_b, _c)),
                 Implies(Implies(_a, _b), Implies(_a, _c))),
    "and-intro": Implies(_a, Implies(_b, And(_a, _b))),
    "and-elim-left": Implies(And(_a, _b), _a),
    "and-elim-right": Implies(And(_a, _b), _b),
    "or-intro-left": Implies(_a, Or(_a, _b)),
    "or-intro-right": Implies(_b, Or(_a, _b)),
    "or-elim": Implies(Implies(_a, _c),
                       Implies(Implies(_b, _c), Implies(Or(_a, _b), _c))),
    "neg-intro": Implies(Implies(_a, _b),
                         Implies(Implies(_a, Not(_b)), Not(_a))),
    "ex-falso": Implies(Not(_a), Implies(_a, _b)),
}


def _match(pattern: Formula, formula: Formula, binding: dict) -> Optional[dict]:
    """One-way structural match; every Atom in the pattern is a metavariable."""
    if isinstance(pattern, Atom):
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = formula
            return binding
        return binding if bound == formula else None
    if type(pattern) is not type(formula):
        return None
    if isinstance(pattern, Not):
        return _match(pattern.operand, formula.operand, binding)
    if isinstance(pattern, (And, Or, Implies)):
        got = _match(pattern.left, formula.left, binding)
        if got is None:
            return None
        return _match(pattern.right, formula.right, binding)
    return None


def instantiate(pattern: Formula, binding: Mapping[str, Formula]) -> Formula:
    return fold_formula(pattern, lambda n: binding[n.name] if isinstance(n, Atom) else n,
                        Not, lambda former, v, w: former(v, w))


def axiom_schema_of(formula: Formula) -> Optional[str]:
    """Name of the first schema this formula instantiates, if any."""
    for name, pattern in SCHEMAS.items():
        if _match(pattern, formula, {}) is not None:
            return name
    return None


@record(frozen=True)
class ProofLine:
    formula: Formula
    rule: str  # "axiom" | "mp" | "hypothesis"
    refs: tuple[int, ...] = ()   # 1-based earlier line numbers for mp
    schema: Optional[str] = None


@record(frozen=True)
class Proof:
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Formula:
        return self.lines[-1].formula


@record
class ProofVerdict:
    accepted: bool
    bad_line: Optional[int] = None
    reason: str = ""
    schemas_used: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"accepted": self.accepted}
        if not self.accepted:
            out["bad_line"] = self.bad_line
            out["reason"] = self.reason
        else:
            out["schemas_used"] = sorted(set(self.schemas_used))
        return out


def check_proof(proof: Proof, hypotheses: Sequence[Formula] = ()) -> ProofVerdict:
    """Accept iff every line is a schema instance, a listed hypothesis, or
    modus ponens from two earlier lines; rejection pinpoints the first bad
    line.  The verdict is diagnostics, never an exception."""
    hyp = set(hypotheses)
    verdict = ProofVerdict(accepted=True)
    if not proof.lines:
        return ProofVerdict(False, 0, "empty proof")
    for number, line in enumerate(proof.lines, start=1):
        if line.rule == "hypothesis":
            if line.formula not in hyp:
                return ProofVerdict(False, number,
                                    f"{format_formula(line.formula)} is not a hypothesis")
        elif line.rule == "axiom":
            name = axiom_schema_of(line.formula)
            if name is None:
                return ProofVerdict(False, number,
                                    f"{format_formula(line.formula)} matches no axiom schema")
            if line.schema is not None and line.schema != name:
                claimed = SCHEMAS.get(line.schema)
                if claimed is None or _match(claimed, line.formula, {}) is None:
                    return ProofVerdict(False, number,
                                        f"line is not an instance of schema {line.schema!r}")
                name = line.schema
            verdict.schemas_used.append(name)
        elif line.rule == "mp":
            if len(line.refs) != 2:
                return ProofVerdict(False, number, "modus ponens cites two lines")
            if any(r < 1 or r >= number for r in line.refs):
                return ProofVerdict(False, number, "citation must point backward")
            i, j = line.refs
            fi, fj = proof.lines[i - 1].formula, proof.lines[j - 1].formula
            if fj == Implies(fi, line.formula) or fi == Implies(fj, line.formula):
                continue
            return ProofVerdict(False, number, "cited lines do not fit modus ponens")
        else:
            return ProofVerdict(False, number, f"unknown rule {line.rule!r}")
    return verdict


# -- proof construction utilities -------------------------------------------------

def axiom_line(formula: Formula, schema: Optional[str] = None) -> ProofLine:
    return ProofLine(formula, "axiom", schema=schema)


def identity_proof(alpha: Formula) -> Proof:
    """The standard K/S derivation of alpha -> alpha."""
    aa = Implies(alpha, alpha)
    k1 = Implies(alpha, Implies(aa, alpha))
    s1 = Implies(k1, Implies(Implies(alpha, aa), aa))
    k2 = Implies(alpha, aa)
    return Proof((
        axiom_line(s1, "S"),
        axiom_line(k1, "K"),
        ProofLine(Implies(k2, aa), "mp", (2, 1)),
        axiom_line(k2, "K"),
        ProofLine(aa, "mp", (4, 3)),
    ))


def deduction(proof: Proof, alpha: Formula,
              hypotheses: Sequence[Formula] = ()) -> Proof:
    """Deduction theorem: from a proof under hypotheses + [alpha], build a
    proof of alpha -> conclusion under the remaining hypotheses."""
    lines: list[ProofLine] = []
    image: dict[int, int] = {}  # old line number -> new line proving alpha -> old

    def emit(line: ProofLine) -> int:
        lines.append(line)
        return len(lines)

    for old, line in enumerate(proof.lines, start=1):
        goal = Implies(alpha, line.formula)
        if line.formula == alpha:
            base = len(lines)
            for idline in identity_proof(alpha).lines:
                shifted = idline if idline.rule != "mp" else ProofLine(
                    idline.formula, "mp", (idline.refs[0] + base, idline.refs[1] + base))
                emit(shifted)
            image[old] = len(lines)
        elif line.rule in ("axiom", "hypothesis"):
            n1 = emit(line)
            n2 = emit(axiom_line(Implies(line.formula, goal), "K"))
            image[old] = emit(ProofLine(goal, "mp", (n1, n2)))
        elif line.rule == "mp":
            i, j = line.refs
            fi = proof.lines[i - 1].formula
            fj = proof.lines[j - 1].formula
            if fj == Implies(fi, line.formula):
                minor, major = i, j
            else:
                minor, major = j, i
            minor_f = proof.lines[minor - 1].formula
            s_inst = Implies(Implies(alpha, Implies(minor_f, line.formula)),
                             Implies(Implies(alpha, minor_f), goal))
            n1 = emit(axiom_line(s_inst, "S"))
            n2 = emit(ProofLine(Implies(Implies(alpha, minor_f), goal),
                                "mp", (image[major], n1)))
            image[old] = emit(ProofLine(goal, "mp", (image[minor], n2)))
        else:
            raise ValueError(f"cannot discharge rule {line.rule!r}")
    return Proof(tuple(lines))


def compose_proofs(*proofs: Proof) -> Proof:
    """Concatenate proofs, shifting modus ponens citations."""
    lines: list[ProofLine] = []
    for proof in proofs:
        base = len(lines)
        for line in proof.lines:
            if line.rule == "mp":
                lines.append(ProofLine(line.formula, "mp",
                                       (line.refs[0] + base, line.refs[1] + base)))
            else:
                lines.append(line)
    return Proof(tuple(lines))


def mp_closure(proof: Proof, target: Formula) -> Proof:
    """Append modus ponens steps reachable from existing lines until the
    target appears; raises if it never does.  Greedy and deterministic."""
    lines = list(proof.lines)
    known = {line.formula: n for n, line in enumerate(lines, start=1)}
    changed = True
    while target not in known and changed:
        changed = False
        for phi, i in list(known.items()):
            if isinstance(phi, Implies) and phi.left in known and phi.right not in known:
                lines.append(ProofLine(phi.right, "mp", (known[phi.left], i)))
                known[phi.right] = len(lines)
                changed = True
    if target not in known:
        raise ValueError(f"modus ponens closure never reaches {format_formula(target)}")
    return Proof(tuple(lines))


def double_negated_excluded_middle_proof(alpha: Formula) -> Proof:
    """A certified proof of ~~(alpha | ~alpha), built with the deduction
    compiler: from the hypothesis ~(alpha | ~alpha) one derives alpha | ~alpha,
    then negation introduction closes the loop."""
    disj = Or(alpha, Not(alpha))
    neg = Not(disj)
    # under hypothesis neg: derive disj
    hyp_proof = Proof((
        ProofLine(neg, "hypothesis"),
        axiom_line(Implies(alpha, disj), "or-intro-left"),
        axiom_line(Implies(neg, Implies(alpha, neg)), "K"),
        ProofLine(Implies(alpha, neg), "mp", (1, 3)),
        axiom_line(Implies(Implies(alpha, disj),
                           Implies(Implies(alpha, neg), Not(alpha))), "neg-intro"),
        ProofLine(Implies(Implies(alpha, neg), Not(alpha)), "mp", (2, 5)),
        ProofLine(Not(alpha), "mp", (4, 6)),
        axiom_line(Implies(Not(alpha), disj), "or-intro-right"),
        ProofLine(disj, "mp", (7, 8)),
    ))
    neg_implies_disj = deduction(hyp_proof, neg)  # |- neg -> disj
    tail = Proof((
        axiom_line(Implies(Implies(neg, disj),
                           Implies(Implies(neg, neg), Not(neg))), "neg-intro"),
    ))
    assembled = compose_proofs(neg_implies_disj, identity_proof(neg), tail)
    return mp_closure(assembled, Not(neg))
