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
smallest-first search over rooted frames: a least world `w0` below one order
per isomorphism class on one world fewer.  A formula that fails at a world
also fails there in the submodel that world generates, its up-set, so the
first countermodel of a smallest-first search is rooted and fails at its
root; by persistence, a rooted frame that refutes a formula anywhere
refutes it at the root, so only the root is tested.  Each class carries its
labelling with the least pair mask, the first of its class in a scan of
every labelled order by pair mask, and an isomorphic order refutes a formula
only if that one does, so the first hit is the one such a scan would find.
The search evaluates each candidate valuation on bitmasks of worlds and
builds a `KripkeModel` only for the first failure; `decide` then confirms it
with the model's own forcing evaluator, so a verdict is never wrong: if the
certificate search exhausts its cap, the caller gets a SearchCapExceeded
instead of an unconfirmed answer.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .._record import record
from ..errors import CapExceeded, InputError
from ..heyting import iter_downsets
from .kripke import KripkeModel
from .syntax import And, Formula, Implies, Or, fold_formula, leaf_key, leaves

# Truth tables cover at most 2^12 = 4096 valuations.
PRUNE_ATOMS = 12

_ATOM, _BOT, _AND, _OR, _IMP = range(5)  # node kinds
BOT = 0  # the absurdity node, first in every table


class SearchCapExceeded(CapExceeded):
    """No countermodel within the world bound: the verdict is withheld."""


class _Table:
    """One search's interned formulas and memo.  Node i is `(op[i], left[i],
    right[i])`, its parts interned before it; an atom's left part is its
    number in the order the atoms were interned.  `masks` holds the truth
    tables of the first len(masks) nodes, over `full`'s valuations."""

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
    ops = {And: _AND, Or: _OR, Implies: _IMP}
    return fold_formula(formula,
                        lambda f: node(_ATOM, atoms.setdefault(leaf_key(f), len(atoms))),
                        lambda v: node(_IMP, v, BOT),
                        lambda former, v, w: node(ops[former], v, w))


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

# Countermodels are searched on at most 5 worlds.  The scan has no cap on its
# candidates, the sum over frames of (up-sets)^atoms: on the 63 rooted frames
# of 6 worlds they run to 829, 12,141 and 202,141 for 1, 2 and 3 atoms.
MAX_SCAN_WORLDS = 5


@lru_cache(maxsize=None)
def _classes(n: int) -> tuple[tuple[int, ...], ...]:
    """One order per isomorphism class on n points, as up-set bitmasks.  Each
    is labelled by its least pair mask over all n! relabellings, and the
    classes come in increasing order of it; the pair mask sets bit
    i*(n-1) + j - (j > i) for each point j above another point i.

    The classes on n points come from those on n-1: every order has a
    maximal point, so each class arises by putting a new point above some
    down-set of a class on one point fewer.  The least pair mask is both the
    key that identifies isomorphic results and the labelling kept."""
    if n == 0:
        return ((),)
    new = n - 1
    perms = list(itertools.permutations(range(n)))
    least = set()
    for up in _classes(new):
        down = [sum(1 << i for i in range(new) if up[i] >> j & 1) for j in range(new)]
        for below in iter_downsets(down):
            grown = [u | (below >> x & 1) << new for x, u in enumerate(up)] + [1 << new]
            pairs = [(i, j) for i in range(n) for j in range(n) if j != i and grown[i] >> j & 1]
            least.add(min(sum(1 << p[i] * new + p[j] - (p[j] > p[i]) for i, j in pairs)
                          for p in perms))
    return tuple(tuple(1 << i | sum(1 << j for j in range(n)
                                    if j != i and mask >> i * new + j - (j > i) & 1)
                       for i in range(n))
                 for mask in sorted(least))


@lru_cache(maxsize=None)
def _frames(n: int) -> tuple[tuple, ...]:
    """The rooted frames on n worlds: `w0` below each class of
    `_classes(n-1)`, its points shifted by one, in that order.  Each is given
    as its up-set bitmasks, its up-sets as bitmasks in increasing order, and
    `box`, where `box[m]` is the mask of the worlds whose up-set misses `m`,
    for every mask `m` on the n worlds.  Raises CapExceeded before building
    when n is past MAX_SCAN_WORLDS."""
    if n > MAX_SCAN_WORLDS:
        raise CapExceeded(
            f"countermodel search over {n} worlds is past the limit of "
            f"{MAX_SCAN_WORLDS} worlds; lower --max-worlds to {MAX_SCAN_WORLDS}")
    out = []
    for rest in _classes(n - 1):
        up = ((1 << n) - 1,) + tuple(u << 1 for u in rest)
        # the up-sets of the order are the down-sets of its opposite
        masks = tuple(sorted(iter_downsets(up)))
        box = tuple(sum(1 << w for w in range(n) if not up[w] & m)
                    for m in range(1 << n))
        out.append((up, masks, box))
    return tuple(out)


def find_countermodel(formula: Formula, *, max_worlds: int = 4) -> Optional[tuple]:
    """Smallest-first search for a model and world where the formula fails.

    Models are tried by world count, then by rooted frame in `_frames`
    order, then by valuation, each atom (in sorted key order) ranging over
    the up-sets in increasing bitmask order.  Only the root is tested, and
    the world returned is the root, `w0`: in a rooted frame a failure
    anywhere is, by persistence, a failure at the root.
    Each candidate is evaluated on bitmasks of worlds: `a & b` and `a | b`
    are mask operations, and `a -> b` holds at the worlds whose up-set misses
    `a & ~b`, a lookup in the frame's `box` table.  Only the hit is built as a
    `KripkeModel`; `decide` confirms it with the forcing evaluator.

    The formula is evaluated as the nodes of a `_Table`, one value slot per
    node: absurdity in slot 0, never written, so a negation `a -> BOT` reads
    `box[a]`; the atoms next, interned first in sorted key order; then the
    compound nodes, each after its parts.
    """
    t = _Table()
    for key in sorted({leaf_key(leaf) for leaf in leaves(formula)}):
        t.node(_ATOM, t.atoms.setdefault(key, len(t.atoms)))
    goal = _translate(formula, t)
    keys, start = list(t.atoms), len(t.atoms) + 1
    program = list(zip(range(start, len(t.op)), t.op[start:], t.left[start:], t.right[start:]))
    val = [0] * len(t.op)
    for n in range(1, max_worlds + 1):
        for up, masks, box in _frames(n):
            for assignment in itertools.product(masks, repeat=len(keys)):
                val[1:start] = assignment
                for slot, op, a, b in program:
                    if op == _IMP:
                        val[slot] = box[val[a] & ~val[b]]
                    elif op == _AND:
                        val[slot] = val[a] & val[b]
                    else:
                        val[slot] = val[a] | val[b]
                if not val[goal] & 1:
                    names = tuple(f"w{i}" for i in range(n))
                    model = KripkeModel(names, frozenset(
                        (names[i], names[j])
                        for i in range(n) for j in range(n) if up[i] >> j & 1), {
                        k: frozenset(names[i] for i in range(n) if mask >> i & 1)
                        for k, mask in zip(keys, assignment)})
                    return model, names[0]
    return None


@record(frozen=True)
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
