"""Decision procedure for intuitionistic propositional validity.

Provability is decided by contraction-free backward proof search (G4ip,
Dyckhoff 1992): the invertible rules are applied to saturation, then the
search branches on the right-disjunction choice and on nested-implication
antecedents.  Negation is treated as implication into an absurdity constant.

Each search interns its formulas into a table of dense ints, one per
distinct node `(op, left, right)`, so a context is a frozenset of ints, a
node's parts are list lookups, and the search order depends on no hash seed.
The formulas the saturation rules build are interned the same way.

Both searches run on one bit-parallel forcing evaluator over the rooted
frames of `_frames`.  A frame of n worlds, given a number c of columns,
holds n planes of U^c bits, U its number of up-sets: bit v of world w's
plane says whether w forces a node under valuation v, where v reads as c
digits in radix U, the first column slowest, digit d giving its column the
d-th up-set.  A node's value is one int, the planes side by side, so `&`
and `|` are int operations; `a -> b` fails at w when `a & ~b` holds at w or
at a world above it, and in this labelling every world above w has a larger
index, so the worlds above are reached by one right shift and mask per
distance between a world and one above it.  A plane holds at most
`PLANE_BITS` valuations, so a frame has fewer columns than a formula has
atoms when U^atoms is larger: the proof search then gives atom i column
i mod c, and every such valuation is still a Kripke model, while the
countermodel search fixes the leading atoms, chunk by chunk.

Intuitionistic provability holds in every Kripke model, so a premise that
some world of some valuation refutes (its context forced, its goal not)
cannot be proved and is skipped.  The check runs only at the non-invertible
choices, the two right-disjunction premises and both premises of the
nested-implication rule: the invertible rules preserve forcing at every
world, so a check there would refute nothing new.  The table starts on the
1-world frame, the classical truth tables; a formula that fails there is
unprovable at once.  At the first non-invertible premise that passes the
check and then fails the search, the table widens to every rooted frame on
at most `PRUNE_WORLDS` worlds side by side and drops its values, which are
rebuilt on demand, so no value computed before the widening meets one
computed after it.  Valid formulas rarely get there, and wide values cost
more to build.

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
The search evaluates each frame's valuations a chunk of one plane at a time
and builds a `KripkeModel` only for the first failure; `decide` then
confirms it with the model's own forcing evaluator, so a verdict is never
wrong: if the certificate search exhausts its cap, the caller gets a
SearchCapExceeded instead of an unconfirmed answer.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Optional

from .._record import record
from ..errors import CapExceeded, InputError
from ..heyting import iter_downsets
from .kripke import KripkeModel
from .syntax import And, Formula, Implies, Or, fold_formula, leaf_key

# A world's plane holds at most 2^12 = 4096 valuations: 12 atoms on the
# 1-world frame, 7 on the 2-world chain, 5 and 6 on the 3-world frames.
PLANE_BITS = 1 << 12
# The proof search's widened check covers the 4 rooted frames on at most 3
# worlds, 9 worlds in all.
PRUNE_WORLDS = 3

_ATOM, _BOT, _AND, _OR, _IMP = range(5)  # node kinds
BOT = 0  # the absurdity node, first in every table


class SearchCapExceeded(CapExceeded):
    """No countermodel within the world bound: the verdict is withheld."""


class _Table:
    """One search's interned formulas, memo and forcing values.  Node i is
    `(op[i], left[i], right[i])`, its parts interned before it; an atom's
    left part is its number in the order the atoms were interned.  `masks`
    holds the values of the first len(masks) nodes over `full`'s bits, atom
    number i taking `planes[i]`; `shifts` are the (shift, mask) pairs that
    carry a plane down from the worlds above.  `worlds` is the largest frame
    the proof search's values cover."""

    def __init__(self):
        self.op, self.left, self.right = [_BOT], [0], [0]
        self.ids = {(_BOT, 0, 0): BOT}
        self.atoms: dict = {}
        self.memo: dict = {}
        self.worlds = 0
        self.load(0, (), ())

    def node(self, op: int, left: int, right: int = 0) -> int:
        key = (op, left, right)
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.op)
            self.op.append(op)
            self.left.append(left)
            self.right.append(right)
        return i

    def load(self, full: int, shifts: tuple, planes) -> None:
        """Evaluate over `full`'s bits from now on; drops every value."""
        self.full, self.shifts, self.planes, self.masks = full, shifts, planes, []

    def widen(self, worlds: int) -> None:
        """Evaluate on every rooted frame on at most `worlds` worlds, atom i
        on column i mod each frame's width; drops every value."""
        if worlds != self.worlds:
            self.worlds = worlds
            # no frame has more columns than the 1-world frame, of 2 up-sets
            full, shifts, blocks = _layout(worlds, _width(2, len(self.atoms)))
            self.load(full, shifts, [sum(columns[i % width] << offset
                                         for offset, width, columns in blocks)
                                     for i in range(len(self.atoms))])

    def mask(self, i: int) -> int:
        """The value of node i: a bit per world and valuation, set where the
        world forces the node."""
        masks = self.masks
        if i >= len(masks):
            op, left, right = self.op, self.left, self.right
            full, shifts, planes = self.full, self.shifts, self.planes
            for j in range(len(masks), i + 1):
                o = op[j]
                if o == _ATOM:
                    m = planes[left[j]]
                elif o == _BOT:
                    m = 0
                elif o == _AND:
                    m = masks[left[j]] & masks[right[j]]
                elif o == _OR:
                    m = masks[left[j]] | masks[right[j]]
                else:
                    m = masks[left[j]] & ~masks[right[j]]
                    for shift, below in shifts:
                        m |= m >> shift & below
                    m ^= full
                masks.append(m)
        return masks[i]

    def conj(self, gamma) -> int:
        """The value of the conjunction of the nodes in gamma."""
        m = self.full
        for f in gamma:
            m &= self.mask(f)
        return m


def _width(ups: int, atoms: int) -> int:
    """The columns of a frame with `ups` up-sets: as many as there are atoms,
    at most as many as one plane holds."""
    width = 0
    while width < atoms and ups ** (width + 1) <= PLANE_BITS:
        width += 1
    return width


@lru_cache(maxsize=None)
def _block(frame: tuple, width: int) -> tuple:
    """A frame's planes over its valuations of `width` columns: the plane
    size U^width, each column's value, the value of each up-set as a
    constant, and the (shift, mask) pairs of its implications."""
    up, masks = frame
    n, ups = len(up), len(masks)
    size = ups ** width
    plane = (1 << size) - 1
    columns = []
    for j in range(width):
        stride = ups ** (width - 1 - j)
        repeat = plane // ((1 << stride * ups) - 1)
        columns.append(sum(
            repeat * sum(((1 << stride) - 1) << d * stride
                         for d, m in enumerate(masks) if m >> w & 1) << w * size
            for w in range(n)))
    fills = tuple(sum(plane << w * size for w in range(n) if m >> w & 1) for m in masks)
    shifts: dict = {}
    for w in range(n):
        for v in range(w + 1, n):
            if up[w] >> v & 1:
                shift = (v - w) * size
                shifts[shift] = shifts.get(shift, 0) | plane << w * size
    return size, tuple(columns), fills, tuple(sorted(shifts.items()))


@lru_cache(maxsize=None)
def _layout(worlds: int, atoms: int) -> tuple:
    """Every rooted frame on at most `worlds` worlds, in `_frames` order, one
    block after another: the full mask, the (shift, mask) pairs, and per
    block its offset, width and column values."""
    offset, shifts, blocks = 0, {}, []
    for n in range(1, worlds + 1):
        for frame in _frames(n):
            width = _width(len(frame[1]), atoms)
            size, columns, _, pairs = _block(frame, width)
            blocks.append((offset, width, columns))
            for shift, below in pairs:
                shifts[shift] = shifts.get(shift, 0) | below << offset
            offset += n * size
    return (1 << offset) - 1, tuple(sorted(shifts.items())), tuple(blocks)


def _translate(formula: Formula, t: _Table) -> int:
    """The formula's node in t, with negation as implication into absurdity;
    atoms are numbered as they are first met."""
    node, atoms = t.node, t.atoms
    ops = {And: _AND, Or: _OR, Implies: _IMP}
    return fold_formula(formula,
                        lambda f: node(_ATOM, atoms.setdefault(leaf_key(f), len(atoms))),
                        lambda v: node(_IMP, v, BOT),
                        lambda former, v, w: node(ops[former], v, w))


def _refuted(t: _Table, context: int, goal: int) -> bool:
    """Whether some world and valuation forcing the context fails goal."""
    return bool(context & ~t.mask(goal))


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
    # non-invertible choices, each premise first checked on the table's
    # models; a failure widens the table, so each context is computed after
    # the search before it
    if head == _OR:
        for choice in (left[goal], right[goal]):
            if not _refuted(t, t.conj(gamma), choice):
                if _provable(gamma, choice, t):
                    return True
                t.widen(PRUNE_WORLDS)
    for f in gamma:
        inner = left[f]
        if op[f] == _IMP and op[inner] == _IMP:
            c = right[f]
            rest = gamma - {f}
            context = t.conj(rest)
            side = t.node(_IMP, right[inner], c)
            if not _refuted(t, context & t.mask(side), inner) and \
                    not _refuted(t, context & t.mask(c), goal):
                if _provable(rest | {side}, inner, t) and _provable(rest | {c}, goal, t):
                    return True
                t.widen(PRUNE_WORLDS)
    return False


def is_provable(formula: Formula) -> bool:
    t = _Table()
    root = _translate(formula, t)
    t.widen(1)
    return t.mask(root) == t.full and _provable(frozenset(), root, t)


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
    as its up-set bitmasks and its up-sets as bitmasks in increasing order.
    Raises CapExceeded before building when n is past MAX_SCAN_WORLDS."""
    if n > MAX_SCAN_WORLDS:
        raise CapExceeded(
            f"countermodel search over {n} worlds is past the limit of "
            f"{MAX_SCAN_WORLDS} worlds; lower --max-worlds to {MAX_SCAN_WORLDS}")
    out = []
    for rest in _classes(n - 1):
        up = ((1 << n) - 1,) + tuple(u << 1 for u in rest)
        # the up-sets of the order are the down-sets of its opposite
        out.append((up, tuple(sorted(iter_downsets(up)))))
    return tuple(out)


def find_countermodel(formula: Formula, *, max_worlds: int = 4) -> Optional[tuple]:
    """Smallest-first search for a model and world where the formula fails.

    Models are tried by world count, then by rooted frame in `_frames`
    order, then by valuation, each atom (in sorted key order) ranging over
    the up-sets in increasing bitmask order.  Only the root is tested, and
    the world returned is the root, `w0`: in a rooted frame a failure
    anywhere is, by persistence, a failure at the root.
    The valuations are evaluated a chunk at a time: the trailing atoms, as
    many as one plane holds, are the columns of the frame's block, and the
    leading atoms take each tuple of up-sets in product order, as constant
    values.  The first valuation to fail is the lowest missing bit of the
    first chunk whose root plane is not full.  Only the hit is built as a
    `KripkeModel`; `decide` confirms it with the forcing evaluator.
    """
    t = _Table()
    goal = _translate(formula, t)
    keys = sorted(t.atoms)
    rank = [keys.index(key) for key in t.atoms]  # atom number -> its key's place
    for n in range(1, max_worlds + 1):
        for up, masks in _frames(n):
            width = _width(len(masks), len(keys))
            size, columns, fills, shifts = _block((up, masks), width)
            plane, full = (1 << size) - 1, (1 << n * size) - 1
            for lead in itertools.product(range(len(masks)), repeat=len(keys) - width):
                values = [fills[d] for d in lead] + list(columns)
                t.load(full, shifts, [values[i] for i in rank])
                root = t.mask(goal) & plane
                if root != plane:
                    v = (root + 1 & ~root).bit_length() - 1
                    tail = []
                    for _ in range(width):
                        v, d = divmod(v, len(masks))
                        tail.append(d)
                    digits = lead + tuple(reversed(tail))
                    names = tuple(f"w{i}" for i in range(n))
                    model = KripkeModel(names, frozenset(
                        (names[i], names[j])
                        for i in range(n) for j in range(n) if up[i] >> j & 1), {
                        k: frozenset(names[i] for i in range(n) if masks[d] >> i & 1)
                        for k, d in zip(keys, digits)})
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
