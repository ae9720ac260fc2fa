"""Decision procedure for intuitionistic propositional validity.

Provability is decided by contraction-free backward proof search in the
usual terminating sequent presentation: the invertible rules are applied to
saturation, then the search branches on the right-disjunction choice and on
nested-implication antecedents.  Negation is treated as implication into an
absurdity constant.  Invalid formulas additionally get a finite Kripke
countermodel, found by bounded search over labeled posets of at most
`max_worlds` worlds and confirmed by the forcing evaluator, so a verdict is
never wrong: if the certificate search exhausts its cap, the caller gets a
SearchCapExceeded instead of an unconfirmed answer.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..errors import CapExceeded
from ..heyting import iter_downsets, preorder_closure
from .kripke import KripkeModel
from .syntax import And, Atom, Formula, Implies, Not, Or, Prim, leaf_key, leaves

BOT = ("bot",)


class SearchCapExceeded(CapExceeded):
    """No countermodel within the world bound: the verdict is withheld."""


def _translate(formula: Formula):
    """Internal tuple form with negation as implication into absurdity."""
    if isinstance(formula, (Prim, Atom)):
        return ("atom", leaf_key(formula))
    if isinstance(formula, Not):
        return ("imp", _translate(formula.operand), BOT)
    if isinstance(formula, And):
        return ("and", _translate(formula.left), _translate(formula.right))
    if isinstance(formula, Or):
        return ("or", _translate(formula.left), _translate(formula.right))
    if isinstance(formula, Implies):
        return ("imp", _translate(formula.left), _translate(formula.right))
    raise TypeError(f"not a formula node: {formula!r}")


def _provable(gamma: frozenset, goal, memo: dict) -> bool:
    key = (gamma, goal)
    got = memo.get(key)
    if got is not None:
        return got
    result = _search(gamma, goal, memo)
    memo[key] = result
    return result


def _search(gamma: frozenset, goal, memo: dict) -> bool:
    # saturate the invertible left rules
    changed = True
    while changed:
        changed = False
        if BOT in gamma or goal in gamma:
            return True
        for f in gamma:
            head = f[0]
            if head == "and":
                gamma = gamma - {f} | {f[1], f[2]}
                changed = True
                break
            if head == "imp":
                ante = f[1]
                if ante == BOT:
                    gamma = gamma - {f}
                    changed = True
                    break
                if ante[0] == "and":
                    gamma = gamma - {f} | {("imp", ante[1], ("imp", ante[2], f[2]))}
                    changed = True
                    break
                if ante[0] == "or":
                    gamma = gamma - {f} | {("imp", ante[1], f[2]),
                                           ("imp", ante[2], f[2])}
                    changed = True
                    break
                if ante[0] == "atom" and ante in gamma:
                    gamma = gamma - {f} | {f[2]}
                    changed = True
                    break
    # invertible right rules
    if goal[0] == "imp":
        return _provable(gamma | {goal[1]}, goal[2], memo)
    if goal[0] == "and":
        return _provable(gamma, goal[1], memo) and _provable(gamma, goal[2], memo)
    # branching: left disjunction splits both premises
    for f in gamma:
        if f[0] == "or":
            rest = gamma - {f}
            return _provable(rest | {f[1]}, goal, memo) and \
                _provable(rest | {f[2]}, goal, memo)
    # non-invertible choices
    if goal[0] == "or":
        if _provable(gamma, goal[1], memo) or _provable(gamma, goal[2], memo):
            return True
    for f in gamma:
        if f[0] == "imp" and f[1][0] == "imp":
            inner, c = f[1], f[2]
            rest = gamma - {f}
            if _provable(rest | {("imp", inner[2], c)}, inner, memo) and \
                    _provable(rest | {c}, goal, memo):
                return True
    return False


def is_provable(formula: Formula) -> bool:
    return _provable(frozenset(), _translate(formula), {})


# -- countermodel search -------------------------------------------------------

@lru_cache(maxsize=None)
def _posets(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All reflexive-transitive-antisymmetric orders on n labeled points,
    each given as a tuple of up-set tuples."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                up[i] |= 1 << j
        if any(up[i] >> j & 1 and up[j] >> i & 1 for i, j in pairs):  # antisymmetry
            continue
        if preorder_closure(up) == up:
            out.append(tuple(tuple(j for j in range(n) if up[i] >> j & 1)
                             for i in range(n)))
    return tuple(out)


def _upsets(upset_of: tuple[tuple[int, ...], ...]) -> list[frozenset[int]]:
    """The up-sets of the order, which are the down-sets of its opposite,
    ordered by bitmask."""
    n = len(upset_of)
    below = [sum(1 << j for j in ups) for ups in upset_of]
    return [frozenset(i for i in range(n) if mask >> i & 1)
            for mask in sorted(iter_downsets(below))]


def find_countermodel(formula: Formula, *, max_worlds: int = 4) -> Optional[tuple]:
    """Smallest-first search for a model and world where the formula fails."""
    keys = sorted({leaf_key(leaf) for leaf in leaves(formula)})
    for n in range(1, max_worlds + 1):
        names = tuple(f"w{i}" for i in range(n))
        for upset_of in _posets(n):
            order = frozenset((names[i], names[j])
                              for i in range(n) for j in upset_of[i])
            ups = _upsets(upset_of)
            for assignment in itertools.product(ups, repeat=len(keys)):
                model = KripkeModel(names, order, {
                    k: frozenset(names[i] for i in ws)
                    for k, ws in zip(keys, assignment)})
                bad = model.counterexample_world(formula)
                if bad is not None:
                    return model, bad
    return None


@dataclass(frozen=True)
class Decision:
    valid: bool
    countermodel: Optional[KripkeModel] = None
    fails_at: Optional[str] = None

    def to_json(self) -> dict:
        if self.valid:
            return {"verdict": "valid"}
        return {"verdict": "invalid",
                "countermodel": self.countermodel.to_json(),
                "fails_at": self.fails_at}


def decide(formula: Formula, *, max_worlds: int = 4) -> Decision:
    """Valid iff provable; invalid verdicts carry a confirmed countermodel.

    Raises SearchCapExceeded when a formula is unprovable but no countermodel
    exists within the world bound; the verdict is then withheld rather than
    guessed.
    """
    if is_provable(formula):
        return Decision(valid=True)
    found = find_countermodel(formula, max_worlds=max_worlds)
    if found is None:
        raise SearchCapExceeded(
            f"no countermodel within {max_worlds} worlds; raise the bound")
    model, world = found
    if model.forces(world, formula):
        raise AssertionError("countermodel failed confirmation")  # unreachable
    return Decision(valid=False, countermodel=model, fails_at=world)
