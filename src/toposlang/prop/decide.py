"""Decision procedure for intuitionistic propositional validity.

Provability is decided by contraction-free backward proof search in the
usual terminating sequent presentation: the invertible rules are applied to
saturation, then the search branches on the right-disjunction choice and on
nested-implication antecedents.  Negation is treated as implication into an
absurdity constant.  Invalid formulas additionally get a finite Kripke
countermodel, found by a smallest-first search over labeled posets of at most
`max_worlds` worlds.  The search evaluates each candidate valuation on
bitmasks of worlds and builds a `KripkeModel` only for the first failure;
`decide` then confirms it with the model's own forcing evaluator, so a
verdict is never wrong: if the certificate search exhausts its cap, the
caller gets a SearchCapExceeded instead of an unconfirmed answer.
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

# The scan in `_posets` tries 2^(n(n-1)) relations: 2^20 at 5 worlds takes
# seconds, 2^30 at 6 would take hours.
MAX_SCAN_WORLDS = 5


@lru_cache(maxsize=None)
def _posets(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All reflexive-transitive-antisymmetric orders on n labeled points,
    each given as a tuple of up-set tuples.  Raises CapExceeded before
    scanning when n is past MAX_SCAN_WORLDS."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if n > MAX_SCAN_WORLDS:
        raise CapExceeded(
            f"countermodel search over {n} worlds would scan 2^{len(pairs)} = "
            f"{1 << len(pairs)} relations; the scan stops at {MAX_SCAN_WORLDS} "
            f"worlds, so lower --max-worlds to {MAX_SCAN_WORLDS}")
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


@lru_cache(maxsize=None)
def _frames(n: int) -> tuple[tuple, ...]:
    """Per order of `_posets(n)`: its up-set tuples, its up-sets as bitmasks in
    increasing order, and `box`, where `box[m]` is the mask of the worlds whose
    up-set misses `m`, for every mask `m` on the n worlds."""
    out = []
    for upset_of in _posets(n):
        up = [sum(1 << j for j in ups) for ups in upset_of]
        # the up-sets of the order are the down-sets of its opposite
        masks = tuple(sorted(iter_downsets(up)))
        box = tuple(sum(1 << w for w in range(n) if not up[w] & m)
                    for m in range(1 << n))
        out.append((upset_of, masks, box))
    return tuple(out)


_AND, _OR, _IMP, _NOT = range(4)


def _compile(formula: Formula, keys: list) -> tuple[list, int]:
    """The formula as a postorder program over value slots: slots 0..len(keys)-1
    hold the atoms in `keys` order, and each step (slot, op, a, b) fills the
    next slot from earlier ones.  Equal subformulas share one slot."""
    slot_of = {("atom", k): i for i, k in enumerate(keys)}
    program = []

    def walk(f) -> int:
        if isinstance(f, (Prim, Atom)):
            return slot_of[("atom", leaf_key(f))]
        if isinstance(f, Not):
            node = (_NOT, walk(f.operand), 0)
        elif isinstance(f, And):
            node = (_AND, walk(f.left), walk(f.right))
        elif isinstance(f, Or):
            node = (_OR, walk(f.left), walk(f.right))
        elif isinstance(f, Implies):
            node = (_IMP, walk(f.left), walk(f.right))
        else:
            raise TypeError(f"not a formula node: {f!r}")
        slot = slot_of.get(node)
        if slot is None:
            slot = slot_of[node] = len(slot_of)
            program.append((slot, *node))
        return slot

    return program, walk(formula)


def find_countermodel(formula: Formula, *, max_worlds: int = 4) -> Optional[tuple]:
    """Smallest-first search for a model and world where the formula fails.

    Models are tried by world count, then by order in `_posets`, then by
    valuation, each atom (in sorted key order) ranging over the up-sets in
    increasing bitmask order; the world returned is the first that fails.
    Each candidate is evaluated on bitmasks of worlds: `a & b` and `a | b`
    are mask operations, and `a -> b` holds at the worlds whose up-set misses
    `a & ~b`, a lookup in the frame's `box` table.  Only the hit is built as a
    `KripkeModel`; `decide` confirms it with the forcing evaluator.
    """
    keys = sorted({leaf_key(leaf) for leaf in leaves(formula)})
    program, root = _compile(formula, keys)
    val = [0] * (len(keys) + len(program))
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for upset_of, masks, box in _frames(n):
            for assignment in itertools.product(masks, repeat=len(keys)):
                val[:len(keys)] = assignment
                for slot, op, a, b in program:
                    if op == _IMP:
                        val[slot] = box[val[a] & ~val[b]]
                    elif op == _AND:
                        val[slot] = val[a] & val[b]
                    elif op == _OR:
                        val[slot] = val[a] | val[b]
                    else:
                        val[slot] = box[val[a]]
                failing = full & ~val[root]
                if failing:
                    names = tuple(f"w{i}" for i in range(n))
                    model = KripkeModel(names, frozenset(
                        (names[i], names[j]) for i in range(n) for j in upset_of[i]), {
                        k: frozenset(names[i] for i in range(n) if mask >> i & 1)
                        for k, mask in zip(keys, assignment)})
                    return model, names[(failing & -failing).bit_length() - 1]
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
    if model.counterexample_world(formula) != world:
        raise AssertionError("countermodel failed confirmation")  # unreachable
    return Decision(valid=False, countermodel=model, fails_at=world)
