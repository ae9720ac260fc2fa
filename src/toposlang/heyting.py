"""Finite Heyting algebras of down-sets, and finite bounded lattices.

Every Heyting algebra the toolkit builds is the algebra of down-sets of a
finite preorder, and is a `DownsetAlgebra`, built from the preorder and its
point labels alone.  An element is the frozenset of a down-set's points;
each operation works on int bitmasks over the points (meet is ``&``, join
is ``|``, implication is one pass over the points), so it costs bit
operations whatever the size of the carrier.  The carrier is listed only
when asked for, by a search that visits only down-sets (see the down-set
kernel below), under ``DEFAULT_CAP``.  The algebra certifies its preorder
when built, refusing a mask with a bit past the points, and its carrier
when listed, so no law check runs on it.

`BoundedLattice` takes any carrier and order and carries the
non-distributive subspace lattice, which has no Heyting structure.  Its
elements are interned: the carrier is an ordered tuple of hashable ids and
the order is stored as one bitmask per element (its down-set), which makes
meets and joins dictionary lookups: the down-set of a glb is exactly the
intersection of the down-sets, so ``meet(a, b)`` is the unique element whose
down-mask equals ``down[a] & down[b]``; every pair is checked to have a meet
at construction.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._canon import canon_key, canon_sorted
from .errors import CapExceeded, ToposlangError

DEFAULT_CAP = 4096


class LatticeError(ToposlangError):
    pass


class UnknownElement(LatticeError):
    pass


class InvalidOrder(LatticeError):
    pass


class NotALattice(LatticeError):
    pass


class TopologyError(LatticeError):
    pass


class BoundedLattice:
    """Finite bounded lattice over an ordered carrier of hashable ids."""

    def __init__(self, elements: Sequence, leq: Callable[[object, object], bool]):
        elems = tuple(elements)
        if len(elems) == 0:
            raise InvalidOrder("carrier is empty")
        if len(elems) > DEFAULT_CAP:
            raise CapExceeded(f"carrier size {len(elems)} exceeds cap {DEFAULT_CAP}")
        if len(set(elems)) != len(elems):
            raise InvalidOrder("duplicate element ids in carrier")
        self._elems = elems
        self._index = {e: i for i, e in enumerate(elems)}
        n = len(elems)
        down = [0] * n
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                if leq(b, a):
                    down[i] |= 1 << j
        self._down = down
        self._validate_order()
        up = [0] * n
        for i in range(n):
            for j in range(n):
                if down[j] >> i & 1:
                    up[i] |= 1 << j
        self._up = up
        self._by_down = {m: i for i, m in enumerate(down)}
        self._by_up = {m: i for i, m in enumerate(up)}
        full = (1 << n) - 1
        if full not in self._by_down:
            raise InvalidOrder("no top element")
        if full not in self._by_up:
            raise InvalidOrder("no bottom element")
        self._top = self._by_down[full]
        self._bottom = self._by_up[full]
        # A finite poset with a top and every pairwise meet is a lattice, so
        # checking the meets also guarantees every join.
        for i in range(n):
            for j in range(i + 1, n):
                if down[i] & down[j] not in self._by_down:
                    raise NotALattice(f"no meet for {elems[i]!r}, {elems[j]!r}")

    def _validate_order(self):
        n = len(self._elems)
        down = self._down
        for i in range(n):
            if not (down[i] >> i) & 1:
                raise InvalidOrder(f"order not reflexive at {self._elems[i]!r}")
            for j in range(n):
                if i != j and (down[i] >> j) & 1 and (down[j] >> i) & 1:
                    raise InvalidOrder(
                        f"order not antisymmetric at {self._elems[i]!r}, {self._elems[j]!r}")
                if (down[i] >> j) & 1 and (down[j] | down[i]) != down[i]:
                    raise InvalidOrder(
                        f"order not transitive below {self._elems[i]!r} at {self._elems[j]!r}")

    # -- indexed core -----------------------------------------------------

    def _ix(self, a) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise UnknownElement(f"unknown element id {a!r}") from None

    def _meet_ix(self, i: int, j: int) -> int:
        return self._by_down[self._down[i] & self._down[j]]

    def _join_ix(self, i: int, j: int) -> int:
        return self._by_up[self._up[i] & self._up[j]]

    # -- public API --------------------------------------------------------

    @property
    def elements(self) -> tuple:
        return self._elems

    def __len__(self) -> int:
        return len(self._elems)

    def __contains__(self, a) -> bool:
        return a in self._index

    @property
    def bottom(self):
        return self._elems[self._bottom]

    @property
    def top(self):
        return self._elems[self._top]

    def leq(self, a, b) -> bool:
        return (self._down[self._ix(b)] >> self._ix(a)) & 1 == 1

    def meet(self, a, b):
        return self._elems[self._meet_ix(self._ix(a), self._ix(b))]

    def join(self, a, b):
        return self._elems[self._join_ix(self._ix(a), self._ix(b))]

    def meet_all(self, items) -> object:
        out = self._top
        for a in items:
            out = self._meet_ix(out, self._ix(a))
        return self._elems[out]

    def join_all(self, items) -> object:
        out = self._bottom
        for a in items:
            out = self._join_ix(out, self._ix(a))
        return self._elems[out]


# -- the down-set kernel ---------------------------------------------------------
#
# The preorders: the discrete order for a powerset, the specialization
# preorder for the opens of a finite (hence Alexandrov) topology, the arrows
# into A for the sieves on A, the category of elements for Sub(X), and the
# opposite order for the up-sets of a Kripke frame.  Points are bit
# positions and a down-set is an int mask over them; every mask, a
# point's ``below`` included, lies within the points.

def preorder_closure(needs: Sequence[int]) -> list[int]:
    """Reflexive-transitive closure of a relation given as one mask per
    point (bit y of ``needs[x]`` is set when x needs y)."""
    below = [m | 1 << x for x, m in enumerate(needs)]
    for k in range(len(below)):
        bit, down_k = 1 << k, below[k]
        for i, m in enumerate(below):
            if m & bit:
                below[i] = m | down_k
    return below


def iter_downsets(below: Sequence[int], *, cap: Optional[int] = None,
                  what: str = "down-sets") -> Iterator[int]:
    """Every down-set of a finite preorder, once each, as a bitmask.

    ``below[x]`` is the mask of the points at or below x, reflexive and
    transitive, with no bit past the points.  The search decides the lowest
    undecided point at each step: taking it forces its down-closure,
    leaving it out forbids its up-closure.  No branch dies, so the cost is
    O(points) word operations per down-set, not per subset.

    With a ``cap``, finding a (cap+1)-th down-set raises CapExceeded, whose
    message names the cap and ``what`` the down-sets stand for.
    """
    n = len(below)
    full = (1 << n) - 1
    above = [0] * n
    for x, m in enumerate(below):
        while m:
            low = m & -m
            above[low.bit_length() - 1] |= 1 << x
            m ^= low
    found = 0
    stack = [(0, 0)]
    while stack:
        taken, decided = stack.pop()
        if decided == full:
            found += 1
            if cap is not None and found > cap:
                raise CapExceeded(f"more than {cap} {what} (cap {cap})")
            yield taken
            continue
        p = ((decided + 1) & ~decided).bit_length() - 1
        stack.append((taken, decided | above[p]))
        stack.append((taken | below[p], decided | below[p]))


def canonical_carrier(points: Sequence, masks: Iterable[int]) -> list[tuple[int, frozenset]]:
    """(mask, frozenset of its points) for each mask, in canonical order.

    canon_key orders frozensets by the sorted keys of their members, so a
    mask sorts by the ranks of its points in canon_key order, ascending;
    the ranks are computed once, not a key per frozenset."""
    by_rank = sorted(range(len(points)), key=lambda i: canon_key(points[i]))
    bits = [(r, 1 << i) for r, i in enumerate(by_rank)]
    ranked = [points[i] for i in by_rank]
    keyed = sorted((tuple(r for r, b in bits if m & b), m) for m in masks)
    return [(m, frozenset(map(ranked.__getitem__, ranks))) for ranks, m in keyed]


class DownsetAlgebra:
    """Heyting algebra of the down-sets of a finite preorder.

    ``below[x]`` is the mask of the points at or below point x, and
    ``points[x]`` labels x.  An element id is the frozenset of a down-set's
    points.  Each operation decodes its arguments to masks by the points'
    bits, computes with ``&`` (meet), ``|`` (join) or ``implies(a, b)`` =
    {x : below[x] & a & ~b == 0}, the points with no predecessor in a outside
    b, and encodes the result by its set bits into a frozenset: O(points)
    word operations, with no carrier needed.

    The carrier is listed only when `elements` or ``len`` asks for it, and
    then once: `iter_downsets` under ``DEFAULT_CAP`` finds the down-sets and
    `canonical_carrier` orders them.  Past the cap the listing raises
    CapExceeded naming ``what`` the down-sets stand for.  Listed or not, an
    operation decodes and encodes through the points' bits.

    The down-sets of a preorder are the opens of its Alexandrov topology, a
    Heyting algebra (Davey & Priestley, *Introduction to Lattices and
    Order*, 2002), so the inputs are certified, not the laws, raising
    InvalidOrder or LatticeError at the first failure.  Construction
    certifies the preorder: one distinct label per point, no bit past the
    points, and ``below`` reflexive and transitive, O(points²).  A listing
    certifies the carrier (see `_certify`), O(N·points), exhaustively at
    every size.  An operation refuses, with UnknownElement, an id that is
    not a frozenset of known points forming a down-set.
    """

    def __init__(self, below: Sequence[int], points: Sequence, what: str = "down-sets"):
        self._below = tuple(below)
        self._points = tuple(points)
        self._what = what
        if len(self._points) != len(self._below):
            raise InvalidOrder(f"{len(self._points)} labels for {len(self._below)} points")
        self._bit = {p: 1 << x for x, p in enumerate(self._points)}
        if len(self._bit) != len(self._points):
            raise InvalidOrder("duplicate element ids in carrier")
        self._down = dict(zip(self._points, self._below))
        self._certify_order()
        self._top_mask = (1 << len(self._below)) - 1
        self._elems: Optional[tuple] = None
        self._top = self._elem(self._top_mask)

    def _certify_order(self):
        """Check that ``below`` is reflexive and transitive, with no bit past
        the points."""
        below = self._below
        n = len(below)
        for x, m in enumerate(below):
            if m >> n:
                raise InvalidOrder(f"point {x} is below point {m.bit_length() - 1}, "
                                   f"past the {n} points")
            if not m >> x & 1:
                raise InvalidOrder(f"order not reflexive at point {x}")
            for y, down in enumerate(below):
                if m >> y & 1 and down & ~m:
                    raise InvalidOrder(f"order not transitive: point {y} is below "
                                       f"point {x}, but not all that is below {y}")

    def _certify(self, carrier: Sequence[tuple[int, frozenset]]):
        """Check a listed carrier: its masks are distinct down-sets of the
        points, 0 among them, and it is closed under ``m | below[x]`` for
        every mask m and point x.  Every down-set is 0 joined with the
        ``below[x]`` of its points one at a time, so the carrier is then
        exactly the down-sets."""
        by_mask = {}
        for m, e in carrier:
            if m in by_mask:
                raise LatticeError(f"carrier element {e!r} repeats the mask {m:#b}")
            by_mask[m] = e
        if 0 not in by_mask:
            raise LatticeError("carrier lacks the empty down-set")
        for m, e in by_mask.items():
            if m & ~self._top_mask:
                raise LatticeError(f"carrier element {e!r} (mask {m:#b}) is not a down-set")
            for x, down in enumerate(self._below):
                if m >> x & 1:
                    if down & ~m:
                        raise LatticeError(f"carrier element {e!r} (mask {m:#b}) "
                                           "is not a down-set")
                elif m | down not in by_mask:
                    raise LatticeError(f"carrier lacks the down-set {m | down:#b}: "
                                       f"{e!r} joined with what is below point {x}")

    def _mask(self, a) -> int:
        """The mask of an element id; UnknownElement unless it is a
        frozenset of known points whose ``below`` masks OR to its mask."""
        if isinstance(a, frozenset):
            bit, down, mask, closure = self._bit, self._down, 0, 0
            try:
                for p in a:
                    mask |= bit[p]
                    closure |= down[p]
            except KeyError:
                pass
            else:
                if closure == mask:
                    return mask
        raise UnknownElement(f"unknown element id {a!r}")

    def _elem(self, mask: int) -> frozenset:
        points, out = self._points, []
        while mask:
            out.append(points[(mask & -mask).bit_length() - 1])
            mask &= mask - 1
        return frozenset(out)

    def _implies_mask(self, a: int, b: int) -> int:
        outside = a & ~b
        out = 0
        for x, m in enumerate(self._below):
            if not m & outside:
                out |= 1 << x
        return out

    @property
    def elements(self) -> tuple:
        if self._elems is None:
            carrier = canonical_carrier(self._points, iter_downsets(
                self._below, cap=DEFAULT_CAP, what=self._what))
            self._certify(carrier)
            self._elems = tuple(e for _, e in carrier)
        return self._elems

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, a) -> bool:
        try:
            self._mask(a)
        except UnknownElement:
            return False
        return True

    @property
    def bottom(self) -> frozenset:
        return frozenset()

    @property
    def top(self) -> frozenset:
        return self._top

    def leq(self, a, b) -> bool:
        return not self._mask(a) & ~self._mask(b)

    def meet(self, a, b) -> frozenset:
        return self._elem(self._mask(a) & self._mask(b))

    def join(self, a, b) -> frozenset:
        return self._elem(self._mask(a) | self._mask(b))

    def meet_all(self, items) -> frozenset:
        out = self._top_mask
        for a in items:
            out &= self._mask(a)
        return self._elem(out)

    def join_all(self, items) -> frozenset:
        out = 0
        for a in items:
            out |= self._mask(a)
        return self._elem(out)

    def implies(self, a, b) -> frozenset:
        return self._elem(self._implies_mask(self._mask(a), self._mask(b)))

    def negate(self, a) -> frozenset:
        return self._elem(self._implies_mask(self._mask(a), 0))


# -- builders ---------------------------------------------------------------

def powerset_algebra(base: Iterable) -> DownsetAlgebra:
    """Boolean algebra of all subsets of a finite base set."""
    items = tuple(canon_sorted(set(base)))
    below = [1 << i for i in range(len(items))]  # the discrete order
    return DownsetAlgebra(below, items, f"subsets of {len(items)} points")


def open_set_algebra(opens: Iterable[Iterable]) -> DownsetAlgebra:
    """Heyting algebra of the open sets of a finite topology.

    The family must contain the empty set and the whole space and be closed
    under pairwise intersection and union (which, finitely, is all that
    arbitrary unions require).  A finite topology is Alexandrov: its opens
    are the down-sets of the specialization preorder, where the points
    below x are those of the smallest open containing x.  Every open is
    such a down-set, so the family is a topology exactly when the preorder
    has no other down-set.
    """
    sets = [frozenset(s) for s in opens]
    family = set(sets)
    space = frozenset().union(*sets) if sets else frozenset()
    if frozenset() not in family:
        raise TopologyError("topology must contain the empty set")
    if space not in family:
        raise TopologyError("topology must contain the whole space")
    points = canon_sorted(space)
    index = {p: i for i, p in enumerate(points)}
    below = [(1 << len(points)) - 1] * len(points)
    for s in family:
        mask = sum(1 << index[p] for p in s)
        for p in s:
            below[index[p]] &= mask
    masks = list(islice(iter_downsets(below, cap=DEFAULT_CAP, what="open sets"),
                        len(family) + 1))
    if len(masks) != len(family):
        _raise_closure_witness(family)
    return DownsetAlgebra(below, points, "open sets")


def _raise_closure_witness(family: set) -> None:
    """Report the first pair of opens whose meet or join is missing.  A
    family with the empty set and the whole space that is closed under both
    is a topology, so a family that is not has such a pair."""
    for a in canon_sorted(family):
        for b in canon_sorted(family):
            if a & b not in family:
                raise TopologyError(f"not closed under intersection: {set(a)} & {set(b)}")
            if a | b not in family:
                raise TopologyError(f"not closed under union: {set(a)} | {set(b)}")


def poset_below(elements: Sequence, pairs: Iterable[tuple]) -> list[int]:
    """The partial order that the pairs (p, q), read p <= q, generate on
    `elements`, as one mask per element of the elements at or below it.

    Raises UnknownElement on a pair outside `elements` and InvalidOrder on
    a cycle (antisymmetry failure).
    """
    elems = list(elements)
    index = {e: i for i, e in enumerate(elems)}
    needs = [0] * len(elems)
    for p, q in pairs:
        if p not in index or q not in index:
            raise UnknownElement(f"order pair ({p!r}, {q!r}) mentions unknown element")
        needs[index[q]] |= 1 << index[p]
    below = preorder_closure(needs)
    for i, a in enumerate(elems):
        cycle = [b for j, b in enumerate(elems)
                 if j != i and below[i] >> j & 1 and below[j] >> i & 1]
        if cycle:
            raise InvalidOrder(f"cycle detected through {a!r} and {min(cycle)!r}")
    return below


def lower_set_algebra(elements: Sequence, pairs: Iterable[tuple]) -> DownsetAlgebra:
    """Heyting algebra of all lower sets of a finite poset."""
    elems = list(elements)
    return DownsetAlgebra(poset_below(elems, pairs), elems, f"lower sets of {len(elems)} points")


# -- two-dimensional subspace lattice ----------------------------------------

def ray_direction(dx, dy) -> tuple[int, int]:
    """Canonical primitive integer direction: lowest terms, first nonzero
    coordinate positive."""
    fx, fy = Fraction(dx), Fraction(dy)
    if fx == 0 and fy == 0:
        raise ValueError("zero vector spans no ray")
    scale = fx.denominator * fy.denominator
    ix, iy = int(fx * scale), int(fy * scale)
    from math import gcd
    g = gcd(abs(ix), abs(iy))
    ix, iy = ix // g, iy // g
    if ix < 0 or (ix == 0 and iy < 0):
        ix, iy = -ix, -iy
    return ix, iy


def ray_label(direction) -> str:
    dx, dy = ray_direction(*direction)
    return f"ray({dx},{dy})"


ZERO_SUBSPACE = "0"
FULL_PLANE = "plane"


def subspace_lattice_2d(directions: Iterable[tuple]) -> BoundedLattice:
    """Lattice of subspaces of the rational plane restricted to a finite set
    of rays: the zero subspace, the given rays, and the full plane.

    Meets are intersections and joins are linear spans; with two or more
    distinct rays the lattice is not distributive.
    """
    rays = sorted({ray_label(d) for d in directions})
    elems = [ZERO_SUBSPACE] + rays + [FULL_PLANE]

    def leq(a, b):
        return a == b or a == ZERO_SUBSPACE or b == FULL_PLANE

    return BoundedLattice(elems, leq)
