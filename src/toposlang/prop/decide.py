"""Decision procedure for intuitionistic propositional validity.

Provability is decided by contraction-free backward proof search (G4ip,
Dyckhoff 1992): the invertible rules are applied to saturation, then the
search branches on the right-disjunction choice and on nested-implication
antecedents.  Negation is treated as implication into an absurdity constant.

Each search interns its formulas into a table of dense ints, one per
distinct node `(op, left, right)`, so a context is a frozenset of ints, a
node's parts are list lookups, and the search order depends on no hash seed.
The formulas the saturation rules build are interned the same way.

Intuitionistic provability implies classical validity, so a premise that
some classical valuation refutes (its context true, its goal false) cannot
be proved and is skipped.  The check runs only at the non-invertible
choices, the two right-disjunction premises and both premises of the
nested-implication rule: the invertible rules preserve classical validity,
so a check there would refute nothing new.  Each node's truth table is a
bitmask over the valuations of at most `PRUNE_ATOMS` atoms, built when the
search first reaches a choice.  Past that many atoms, atom i takes column
i mod `PRUNE_ATOMS`: each column is still a classical valuation, so the
prune stays sound and only refutes less.

Invalid formulas additionally get a finite Kripke countermodel, found by a
smallest-first search over labeled posets of at most `max_worlds` worlds.
The search evaluates each candidate valuation on bitmasks of worlds and
builds a `KripkeModel` only for the first failure; `decide` then confirms it
with the model's own forcing evaluator, so a verdict is never wrong: if the
certificate search exhausts its cap, the caller gets a SearchCapExceeded
instead of an unconfirmed answer.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from ..errors import CapExceeded, InputError
from ..heyting import iter_downsets
from .kripke import KripkeModel
from .syntax import And, Atom, Formula, Implies, Not, Or, Prim, leaf_key, leaves

# Truth tables cover at most 2^12 = 4096 valuations.
PRUNE_ATOMS = 12

_ATOM, _BOT, _AND, _OR, _IMP, _NOT = range(6)  # node kinds; _NOT only in `_compile`
BOT = 0  # the absurdity node, first in every table


class SearchCapExceeded(CapExceeded):
    """No countermodel within the world bound: the verdict is withheld."""


class _Table:
    """One search's interned formulas and memo.  Node i is `(op[i], left[i],
    right[i])`, its parts interned before it; an atom's left part is its
    number in order of first appearance.  `masks` holds the truth tables of
    the first len(masks) nodes, over `full`'s valuations."""

    def __init__(self):
        self.op, self.left, self.right = [_BOT], [0], [0]
        self.ids = {(_BOT, 0, 0): BOT}
        self.atoms: dict = {}
        self.masks: list = []
        self.full = 0
        self.memo: dict = {}

    def node(self, op: int, left: int, right: int = 0) -> int:
        key = (op, left, right)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.op)
            self.op.append(op)
            self.left.append(left)
            self.right.append(right)
        return i

    def mask(self, i: int) -> int:
        """The truth table of node i: bit v is its value under valuation v."""
        masks = self.masks
        if i >= len(masks):
            op, left, right, full = self.op, self.left, self.right, self.full
            for j in range(len(masks), i + 1):
                o = op[j]
                if o == _ATOM:
                    width = 1 << left[j] % PRUNE_ATOMS
                    m = full // ((1 << 2 * width) - 1) * (((1 << width) - 1) << width)
                elif o == _BOT:
                    m = 0
                elif o == _AND:
                    m = masks[left[j]] & masks[right[j]]
                elif o == _OR:
                    m = masks[left[j]] | masks[right[j]]
                else:
                    m = full ^ (masks[left[j]] & ~masks[right[j]])
                masks.append(m)
        return masks[i]

    def conj(self, gamma) -> int:
        """The truth table of the conjunction of the nodes in gamma."""
        m = self.full
        for f in gamma:
            m &= self.mask(f)
        return m


def _translate(formula: Formula, t: _Table) -> int:
    """The formula's node in t, with negation as implication into absurdity;
    atoms are numbered as they are first met."""
    node, atoms = t.node, t.atoms

    def walk(f) -> int:
        if isinstance(f, Atom):
            return node(_ATOM, atoms.setdefault(f.name, len(atoms)))
        if isinstance(f, Implies):
            return node(_IMP, walk(f.left), walk(f.right))
        if isinstance(f, Or):
            return node(_OR, walk(f.left), walk(f.right))
        if isinstance(f, And):
            return node(_AND, walk(f.left), walk(f.right))
        if isinstance(f, Not):
            return node(_IMP, walk(f.operand), BOT)
        if isinstance(f, Prim):
            return node(_ATOM, atoms.setdefault(leaf_key(f), len(atoms)))
        raise TypeError(f"not a formula node: {f!r}")

    return walk(formula)


def _classical(t: _Table, context: int, goal: int) -> bool:
    """Whether every valuation in the context's truth table makes goal true."""
    return not context & ~t.mask(goal)


def _provable(gamma: frozenset, goal: int, t: _Table) -> bool:
    key = (gamma, goal)
    got = t.memo.get(key)
    if got is not None:
        return got
    result = _search(gamma, goal, t)
    t.memo[key] = result
    return result


def _search(gamma: frozenset, goal: int, t: _Table) -> bool:
    op, left, right = t.op, t.left, t.right
    # saturate the invertible left rules
    changed = True
    while changed:
        changed = False
        if BOT in gamma or goal in gamma:
            return True
        for f in gamma:
            head = op[f]
            if head == _AND:
                gamma = gamma - {f} | {left[f], right[f]}
                changed = True
                break
            if head == _IMP:
                ante, c = left[f], right[f]
                if ante == BOT:
                    gamma = gamma - {f}
                    changed = True
                    break
                kind = op[ante]
                if kind == _AND:
                    gamma = gamma - {f} | {t.node(_IMP, left[ante], t.node(_IMP, right[ante], c))}
                    changed = True
                    break
                if kind == _OR:
                    gamma = gamma - {f} | {t.node(_IMP, left[ante], c),
                                           t.node(_IMP, right[ante], c)}
                    changed = True
                    break
                if kind == _ATOM and ante in gamma:
                    gamma = gamma - {f} | {c}
                    changed = True
                    break
    # invertible right rules
    head = op[goal]
    if head == _IMP:
        return _provable(gamma | {left[goal]}, right[goal], t)
    if head == _AND:
        return _provable(gamma, left[goal], t) and _provable(gamma, right[goal], t)
    # branching: left disjunction splits both premises
    for f in gamma:
        if op[f] == _OR:
            rest = gamma - {f}
            return _provable(rest | {left[f]}, goal, t) and \
                _provable(rest | {right[f]}, goal, t)
    # non-invertible choices, each premise first checked on truth tables
    if head == _OR:
        context = t.conj(gamma)
        for choice in (left[goal], right[goal]):
            if _classical(t, context, choice) and _provable(gamma, choice, t):
                return True
    for f in gamma:
        inner = left[f]
        if op[f] == _IMP and op[inner] == _IMP:
            c = right[f]
            rest = gamma - {f}
            context = t.conj(rest)
            side = t.node(_IMP, right[inner], c)
            if _classical(t, context & t.mask(side), inner) and \
                    _classical(t, context & t.mask(c), goal) and \
                    _provable(rest | {side}, inner, t) and _provable(rest | {c}, goal, t):
                return True
    return False


def is_provable(formula: Formula) -> bool:
    t = _Table()
    root = _translate(formula, t)
    t.full = (1 << (1 << min(len(t.atoms), PRUNE_ATOMS))) - 1
    return _provable(frozenset(), root, t)


# -- countermodel search -------------------------------------------------------

# Countermodels are searched on at most 5 worlds: 6 worlds carry 130,023
# labelled orders, and the candidate valuations on them run to millions for
# a few atoms, with no cap on that count.
MAX_SCAN_WORLDS = 5


@lru_cache(maxsize=None)
def _posets(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All reflexive-transitive-antisymmetric orders on n labeled points, each
    given as a tuple of up-set tuples, ordered by the bitmask of their pairs
    (i, j), i != j, taken in row-major order.  Raises CapExceeded before
    building when n is past MAX_SCAN_WORLDS.

    Each order extends one on the points below n-1 by the point n-1: its
    strict up-set U is an up-set of the smaller order, and its strict
    down-set is a down-set disjoint from U whose points are all below all
    of U.  Every order on n points arises once this way."""
    if n > MAX_SCAN_WORLDS:
        raise CapExceeded(
            f"countermodel search over {n} worlds is past the limit of "
            f"{MAX_SCAN_WORLDS} worlds; lower --max-worlds to {MAX_SCAN_WORLDS}")
    if n == 0:
        return ((),)
    new = n - 1
    orders = []
    for upset_of in _posets(new):
        up = [sum(1 << j for j in ups) for ups in upset_of]
        down = [sum(1 << i for i in range(new) if up[i] >> j & 1) for j in range(new)]
        downsets = list(iter_downsets(down))
        for above in iter_downsets(up):
            room = sum(1 << x for x in range(new) if not above & ~up[x]) & ~above
            for below in downsets:
                if not below & ~room:
                    orders.append([u | 1 << new if below >> x & 1 else u
                                   for x, u in enumerate(up)] + [above | 1 << new])

    def pair_mask(up: list) -> int:
        return sum(1 << i * new + j - (j > i)
                   for i in range(n) for j in range(n) if j != i and up[i] >> j & 1)

    orders.sort(key=pair_mask)
    return tuple(tuple(tuple(j for j in range(n) if up[i] >> j & 1) for i in range(n))
                 for up in orders)


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
    guessed.  A bound below one world is an InputError, raised before any
    search.
    """
    if max_worlds < 1:
        raise InputError(f"the world bound must be at least 1, got {max_worlds}")
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
