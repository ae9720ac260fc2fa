"""A computational topos of presheaves on a finite category.

Presheaves are contravariant functors into finite sets, stored as explicit
stage sets and restriction tables.  The module provides the full kit the
rest of the toolkit needs: the terminal object and sub-object classifier,
characteristic morphisms and their inverses, the Heyting algebra of
sub-objects, products, exponentials, power objects, exponential and power
transposes, and global-element enumeration.

Stage elements are arbitrary hashables.  A constructed presheaf's stages
are canonical: distinct elements in canon_key order (see _canon).  Products
and exponentials are built in that order without a sort, and presheaves and
natural transformations compare by their stage and component tables.
Sub-objects and global elements come in canonical order; hom-sets come in
the order of their backtracking search, which follows object, stage and
morphism order and not the hash seed, so repeated runs are byte-identical.
Where no cell propagates, the search's order is that of a product of
stages, and the hom-set is listed as that product, or refused before it
is listed where the search would pass a cap.  An exponential searches its
stages only when first read, so that is where a cap refuses it.
The one-object category gives the plain category of sets, where the
classifier degenerates to the two truth values.

Law checks run at the input boundary, once: every `Presheaf` is a functor,
every `NatTransform` natural and every `Subobject` closed under
restriction, by construction.  Each public constructor checks what a caller
supplies, and only that (`validate_presheaf`, `validate_nat`, the sub-object
check), raising PresheafError naming the first violation.  The library's own
constructions are lawful whenever their inputs are, so they build through
private constructors that skip the check (`Presheaf._canonical`,
`NatTransform._certified`, `Subobject._certified`), and no code downstream
checks a presheaf, an arrow or a sub-object again.
A sub-object is a mask over the points of its ambient's category of
elements, whose layout (`_ElementLayout`) is built once and kept on the
presheaf, and `char_morphism` reads each sieve off the mask at the point's
restriction indices (Mac Lane & Moerdijk, *Sheaves in Geometry and Logic*,
1992, I.4) and looks it up by its own mask among Omega's elements, as the
classifier's tables and true arrow do.  Per-object parts are decoded only where they are read, as at
the CLI's JSON edge.

This module owns the element format of exponentials and power objects: an
element of Y^X at stage A is a tuple of ((B, g: B -> A, x), y) cells in
canon_key order, built in that order without a sort.  It is a tuple
subclass that keeps its hash after the first use, and stays equal, and
hash-equal, to the plain tuple of its cells.  Two functions know that
layout: `exp_from_blocks` builds a stage's elements from the blocks of
cells that share (B, g), and `exp_column` reads the evaluation cells
(A, id_A, x) of many elements, at the positions the first element's own
keys give, so it needs no X.  One kernel, `_transpose_columns`, cuts the
columns of an arrow Z x X -> Y into those blocks, under `exp_transpose`
and `rep`'s comprehensions alike.  Other modules (term interpretation and
the classical representation in `rep`) go through these and never take an
element apart themselves.

An exponential is listed only when something reads its stages or tables,
and it is kept on its exponent, not in a process-wide cache, so it lives as
long as its inputs.  Unlisted, it still restricts a single element by
precomposition and builds the sub-presheaf it generates.  An arrow into
it, such as a transpose, is built block by block and lists nothing: the
classical preimage reaches its subset of states through P(Sigma), which
has 2^states elements, without listing any of them, from the one element
of P(R) it is asked about.  The one process-wide cache is
`classifier_kit`'s, of the CACHE_SIZE kits last used: a kit it drops holds
no cycle, so reference counting frees it.
"""
from __future__ import annotations

import itertools
import math
import weakref
from collections import namedtuple
from collections.abc import Mapping
from functools import lru_cache, reduce
from operator import eq, getitem, itemgetter, or_
from typing import Callable, Iterable, Sequence

from ._canon import canon_key, canon_sorted
from ._record import field, record
from .category import FiniteCategory, sieves_on
from .errors import CapExceeded, ToposlangError
from .heyting import DownsetAlgebra, iter_downsets

ENUM_NODE_CAP = 10_000_000
# Values a hom search may hold over all its results: results times cells.
# A search with few dead ends builds a result at nearly every leaf, so the
# node cap alone admits about 10^7 results.  P(P(R)) with |R| = 4 on the
# one-object base, 2^16 elements of 16 cells, is 2^20 values.
HOM_CELL_CAP = 1 << 22
SUB_ENUM_CAP = 1 << 20
# Elements a product may have over all its stages, and cells an exponential
# element may have at one stage.  A term context is such a product, and
# `ls represent` spends about 0.18 ms and 6 KB per environment (2-core host,
# Python 3.11): five variables of type P(R) on the fixture, 2^15
# environments, take 6 s and 211 MB, and the next factor of 8 would not fit
# a 10 s budget.
PRODUCT_CAP = 1 << 15
# Kits kept by the process-wide cache on `classifier_kit`, least recently
# used first out: the fewest that keep the hits and misses of 128 on every
# benchmark workload and golden command.  `ls represent` alternates between
# a representation's base and the one-object base of a classical system, so
# one kit misses where two hit.  No workload reads a kit it used before the
# last two, and on `topos`, which builds a new base for every operation, 128
# held about 1.8 MB of kits never read again.
CACHE_SIZE = 2


class PresheafError(ToposlangError):
    pass


class ShapeMismatch(PresheafError):
    pass


class Presheaf:
    """Stage sets ``at[A]`` plus restriction tables ``maps[f]: X_cod(f) -> X_dom(f)``.

    After construction every stage is a tuple of distinct elements in
    canon_key order, and every morphism has a table, the identities filled
    in with the stage's own elements where none was given.  Two presheaves
    are equal when their bases, stages and tables are: the stages are
    canonical, so plain tuple and dict equality needs no sort.

    The constructor raises PresheafError naming the first item of
    `validate_presheaf`, a stage or table under a name the base lacks
    included, so every presheaf obeys the functor laws; it checks no
    identity table it fills in.  `maps` stays a
    mutable dict: a caller who edits a table after construction voids that
    guarantee, as one who edits `NatTransform.components` voids naturality.
    """

    # The exponentials Y^X with this presheaf as X, by Y, once there is one
    # (see `exponential`), and the element layout of Sub(X), once read (see
    # `_element_layout`).
    _exps: dict | None = None
    _layout: "_ElementLayout | None" = None

    def __init__(self, base: FiniteCategory, at: Mapping[str, Iterable],
                 maps: Mapping[str, Mapping]):
        # Stages and tables under names the base lacks are kept for the check.
        self._fill(base, {obj: tuple(canon_sorted(set(at.get(obj, ()))))
                          for obj in dict.fromkeys((*base.objects, *at))}, maps)
        self.maps.update((mid, dict(table)) for mid, table in maps.items()
                         if mid not in self.maps)
        bad = validate_presheaf(self, _filled={base.id_of(obj) for obj in base.objects
                                               if base.id_of(obj) not in maps})
        if bad.items:
            raise PresheafError(f"violates functor laws: {bad.items[0]}")

    @classmethod
    def _canonical(cls, base: FiniteCategory, at: Mapping[str, tuple],
                   maps: Mapping[str, Mapping]) -> "Presheaf":
        """The presheaf of stages `at` that already hold distinct elements in
        canon_key order, one per object of `base`: no sort and no law check,
        for the library's constructions that are functorial by design."""
        x = cls.__new__(cls)
        x._fill(base, at, maps)
        return x

    def _fill(self, base, at, maps):
        self.base = base
        self.at = at
        self.maps = {}
        for m in base.morphisms:
            if m.id in maps:
                self.maps[m.id] = dict(maps[m.id])
            elif m.id == base.id_of(m.dom):
                self.maps[m.id] = {x: x for x in at[m.dom]}
            else:
                self.maps[m.id] = {}
        self._hash = None

    def stage(self, obj: str) -> tuple:
        return self.at[obj]

    def apply(self, mid: str, x):
        """Restrict x in X_cod(f) along f, landing in X_dom(f)."""
        try:
            return self.maps[mid][x]
        except KeyError:
            raise PresheafError(f"restriction along {mid!r} undefined at {x!r}") from None

    def __eq__(self, other):
        return self is other or (isinstance(other, Presheaf) and self.base == other.base
                                 and self.at == other.at and self.maps == other.maps)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.base, *(self.at[obj] for obj in self.base.objects)))
        return self._hash


class NatTransform:
    """Stage-indexed component maps between presheaves on the same base,
    natural by construction.  Two are equal when their sources, targets and
    component tables are.

    The public constructor copies what a caller supplies, runs
    `validate_nat` once and raises PresheafError naming the first
    violation, "not natural" or, for a table fault such as a component
    under a name the base lacks, "invalid in a component".  The
    functions of this module and of `rep` that build an arrow natural by
    design build it through `_certified`, which skips the check."""

    def __init__(self, source: Presheaf, target: Presheaf,
                 components: Mapping[str, Mapping]):
        if source.base != target.base:
            raise ShapeMismatch("natural transformation needs a common base category")
        self.source = source
        self.target = target
        # Components under names the base lacks are kept for the check.
        self.components = {obj: dict(components.get(obj, {}))
                           for obj in (*source.base.objects, *components)}
        self._hash = None
        bad = validate_nat(self)
        if bad.items:
            what = "not natural" if bad.items[0][0] == "naturality" else "invalid in a component"
            raise PresheafError(f"{what}: {bad.items[0]}")

    @classmethod
    def _certified(cls, source: Presheaf, target: Presheaf,
                   components: dict[str, dict]) -> "NatTransform":
        """The arrow this library has just built natural, from its component
        dicts, one per object of the common base: taken as they are, with no
        copy and no check."""
        n = cls.__new__(cls)
        n.source, n.target, n.components = source, target, components
        n._hash = None
        return n

    def apply(self, obj: str, x):
        try:
            return self.components[obj][x]
        except (KeyError, TypeError):  # an unhashable x lies in no stage
            raise PresheafError(f"component at {obj!r} undefined at {x!r}") from None

    def __eq__(self, other):
        return self is other or (isinstance(other, NatTransform)
                                 and self.components == other.components
                                 and self.source == other.source and self.target == other.target)

    def __hash__(self):
        # The values in source-stage order: arrows of one hom-set share
        # their source and target, so these alone tell them apart.
        if self._hash is None:
            self._hash = hash(tuple(self.components[obj].get(x)
                                    for obj in self.source.base.objects
                                    for x in self.source.at[obj]))
        return self._hash


@record
class LawViolations:
    items: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.items


def validate_presheaf(x: Presheaf, *, _filled=frozenset()) -> LawViolations:
    """Stages and tables under names the base lacks, then totality,
    codomain, identity and contravariant-composition checks; the laws are
    checked only on tables that passed the earlier checks.  None is made of
    an identity table in `_filled`, which `_fill` wrote to fix its stage, or
    of a composite through one: such a check cannot fail."""
    bad = LawViolations()
    cat = x.base
    mids = {m.id for m in cat.morphisms}
    bad.items += [("unknown-object", obj) for obj in x.at if obj not in cat.identity]
    bad.items += [("unknown-morphism", mid) for mid in x.maps if mid not in mids]
    checked = [m for m in cat.morphisms if m.id not in _filled]
    if not bad.ok or not checked:
        return bad
    stages = {obj: set(x.stage(obj)) for obj in cat.objects}
    for m in checked:
        bad.items += _table_faults(m.id, x.maps[m.id], x.stage(m.cod), stages[m.dom])
    if not bad.ok:
        return bad
    for obj in cat.objects:
        if cat.id_of(obj) not in _filled:
            for el in x.stage(obj):
                if x.apply(cat.id_of(obj), el) != el:
                    bad.items.append(("identity-law", obj, el))
    for f in checked:
        tf = x.maps[f.id]
        for g in cat.into(f.dom):
            if g not in _filled:
                tg, tfg = x.maps[g], x.maps[cat.compose(f.id, g)]
                bad.items += [("composition-law", f.id, g, el) for el in x.stage(f.cod)
                              if tg[tf[el]] != tfg[el]]
    return bad


def _table_faults(name: str, table: Mapping, domain: Sequence, codomain: set) -> list:
    """The faults of a table meant to map `domain` into `codomain`: per
    element of `domain`, "not-total" where it has no entry and
    "bad-codomain" where its entry lies outside `codomain`; then, in the
    table's order, "junk-domain" for each entry outside `domain`."""
    faults = [("not-total", name, el) if el not in table else ("bad-codomain", name, el)
              for el in domain if el not in table or table[el] not in codomain]
    domain = set(domain)
    return faults + [("junk-domain", name, el) for el in table if el not in domain]


def validate_nat(n: NatTransform) -> LawViolations:
    """Every violation, in order: components under names the base lacks,
    the components' `_table_faults`, as for a presheaf's tables, then the
    naturality square at every non-identity morphism and element.  Both
    presheaves' identity tables fix their stages, so both sides of a square
    along an identity are the component's value."""
    bad = LawViolations()
    cat = n.source.base
    bad.items += [("unknown-object", obj) for obj in n.components if obj not in cat.identity]
    for obj in cat.objects:
        bad.items += _table_faults(obj, n.components.get(obj, {}), n.source.stage(obj),
                                   set(n.target.stage(obj)))
    if not bad.ok:
        return bad
    for m in cat.morphisms:
        if m.id == cat.id_of(m.dom):
            continue
        for el in n.source.stage(m.cod):
            if n.apply(m.dom, n.source.apply(m.id, el)) != \
                    n.target.apply(m.id, n.apply(m.cod, el)):
                bad.items.append(("naturality", m.id, el))
    return bad


# -- sub-objects --------------------------------------------------------------

class _ElementLayout:
    """The category of elements of a presheaf x, as bit positions.

    `points` lists the points (A, e), object by object in base order and
    each stage in its canonical order, and `index` numbers them.  For the
    point i = (A, e), `reads[i]` holds the index of x(f)(e) for each f of
    `cat.into(A)`, in that order, and `below[i]` is the mask of those
    indices: a sub-object holding e holds every restriction of e.  The
    arrows into A are closed under composition and hold the identity, so
    `below` is already reflexive and transitive.

    `sieves[i]` memoizes, per point, the sieve each pattern of bits within
    `below[i]` stands for, as its mask over `cat.into(A)`: the arrows f
    whose read bit is set.  The layout holds x's elements and ints, never
    x, so keeping it on x makes no cycle."""

    __slots__ = ("points", "index", "reads", "below", "sieves")

    def __init__(self, x: Presheaf):
        cat = x.base
        self.points = [(obj, el) for obj in cat.objects for el in x.stage(obj)]
        index = self.index = {p: i for i, p in enumerate(self.points)}
        self.reads = [tuple(index[(cat.morphism(f).dom, x.maps[f][el])] for f in cat.into(obj))
                      for obj, el in self.points]
        self.below = [reduce(or_, [1 << j for j in row]) for row in self.reads]
        self.sieves = [{} for _ in self.points]


def _element_layout(x: Presheaf) -> _ElementLayout:
    """x's element layout, built on first use and kept on x."""
    layout = x._layout
    if layout is None:
        layout = x._layout = _ElementLayout(x)
    return layout


class Subobject:
    """A stage-wise subset of an ambient presheaf, closed under restriction,
    held as a mask over the ambient's element layout: bit i stands for the
    i-th (object, element) point, objects in base order and each stage in
    its canonical order.  Equal presheaves have equal stages, so equality
    and the hash are those of (ambient, mask).

    `parts`, the per-object frozensets, is decoded from the mask when first
    read: by the CLI's JSON output, by `key()` and by tests.

    The public constructor runs `_check_subobject` once, raising
    PresheafError on the first violation.  `enumerate_subobjects` and
    `subobject_of_char` build down-set masks through `_certified`, which
    skips the check."""

    def __init__(self, ambient: Presheaf, parts: Mapping[str, Iterable]):
        self.ambient, self.mask, self._parts = ambient, _check_subobject(ambient, parts), None

    @classmethod
    def _certified(cls, ambient: Presheaf, mask: int) -> "Subobject":
        """The sub-object of a down-set mask over ambient's element layout,
        with no check; its parts are decoded when first read."""
        k = cls.__new__(cls)
        k.ambient, k.mask, k._parts = ambient, mask, None
        return k

    @property
    def parts(self) -> dict:
        if self._parts is None:
            parts: dict = {obj: [] for obj in self.ambient.base.objects}
            points, mask = _element_layout(self.ambient).points, self.mask
            while mask:
                low = mask & -mask
                obj, el = points[low.bit_length() - 1]
                parts[obj].append(el)
                mask ^= low
            self._parts = {obj: frozenset(part) for obj, part in parts.items()}
        return self._parts

    def key(self):
        return tuple(sorted((obj, tuple(canon_sorted(sub)))
                            for obj, sub in self.parts.items()))

    def __eq__(self, other):
        return isinstance(other, Subobject) and self.mask == other.mask \
            and self.ambient == other.ambient

    def __hash__(self):
        return hash((self.ambient, self.mask))


def _check_subobject(ambient: Presheaf, parts: Mapping[str, Iterable]) -> int:
    """The mask of `parts` over ambient's element layout, after
    PresheafError naming the first violation, in the order in which the
    test helpers' `subobject_violations` lists them all: the names the base
    lacks, in canon_key order; per object, the first element of the part
    outside its stage, in canon_key order; then the restrictions that leave
    the parts, in object, canonical-stage and `into` order."""
    base, layout = ambient.base, _element_layout(ambient)
    bad = [("unknown-object", obj) for obj in canon_sorted(parts) if obj not in base.identity]
    mask = 0
    for obj in base.objects:
        outside = []
        for el in parts.get(obj, ()):
            i = layout.index.get((obj, el))
            if i is None:
                outside.append(el)
            else:
                mask |= 1 << i
        if outside:
            bad.append(("not-a-subset", obj, canon_sorted(outside)[0]))
    if not bad:
        for i, (obj, el) in enumerate(layout.points):
            if mask >> i & 1 and layout.below[i] & ~mask:
                bad.append(("not-restriction-closed", next(
                    f for f, j in zip(base.into(obj), layout.reads[i]) if not mask >> j & 1), el))
                break
    if bad:
        raise PresheafError(f"invalid sub-object: {bad[0]}")
    return mask


# -- classifier ----------------------------------------------------------------

@record(frozen=True)
class ClassifierKit:
    terminal: Presheaf
    omega: Presheaf
    true_arrow: NatTransform
    # Omega's stage at each object, by each sieve's mask over `cat.into(obj)`.
    sieves: dict


def terminal_presheaf(cat: FiniteCategory) -> Presheaf:
    """Single point () at every stage."""
    return Presheaf._canonical(cat, {obj: ((),) for obj in cat.objects},
                               {m.id: {(): ()} for m in cat.morphisms})


@lru_cache(maxsize=CACHE_SIZE)
def classifier_kit(cat: FiniteCategory) -> ClassifierKit:
    """Terminal object, sieve classifier and the arrow picking the principal
    sieve at each stage, which is natural (pulled back along any arrow, a
    principal sieve is principal), so built unchecked.

    Omega's stage at A is `sieves_on(cat, A)` in canon_key order, that of
    the sorted ranks of their members, kept by mask over `cat.into(A)` in
    `sieves`.  The table along a non-identity arrow m pulls each sieve S on
    cod(m) back to {h : m o h in S}, read off S's mask at the composites
    m o h for h into dom(m), composed once for all of S, and looks it up by
    mask: every value, the true arrow's too, is one of Omega's elements."""
    terminal = terminal_presheaf(cat)
    bits = {obj: {f: 1 << k for k, f in enumerate(cat.into(obj))} for obj in cat.objects}
    ranks = {obj: {f: r for r, f in enumerate(canon_sorted(cat.into(obj)))} for obj in cat.objects}
    sieves = {obj: {sum(map(bits[obj].__getitem__, s)): s for s in sorted(
        sieves_on(cat, obj), key=lambda s: sorted(map(ranks[obj].__getitem__, s)))}
        for obj in cat.objects}
    maps = {}
    for m in cat.morphisms:
        if m.id == cat.id_of(m.dom):
            continue
        reads = [(bits[m.cod][cat.compose(m.id, h)], bit) for h, bit in bits[m.dom].items()]
        pulled = sieves[m.dom]
        maps[m.id] = {s: pulled[sum([bit for read, bit in reads if mask & read])]
                      for mask, s in sieves[m.cod].items()}
    # Pullback of sieves is functorial, so omega skips the law check.
    omega = Presheaf._canonical(cat, {obj: tuple(sieves[obj].values()) for obj in cat.objects},
                                maps)
    true_arrow = NatTransform._certified(terminal, omega, {
        obj: {(): sieves[obj][(1 << len(cat.into(obj))) - 1]} for obj in cat.objects})
    return ClassifierKit(terminal, omega, true_arrow, sieves)


def char_morphism(k: Subobject) -> NatTransform:
    """An element e of x at stage A goes to the sieve of the arrows
    f: B -> A with x(f)(e) in K(B).

    That sieve is read off K's mask at the point's restriction indices
    (`_ElementLayout.reads`), as the pattern ``mask & below``, whose sieve
    mask the point's memo keeps from the pattern's first read, and is
    looked up by that mask in Omega's stage.  The arrow is natural by
    design, so built unchecked: its values are sieves, and they commute
    with restriction because K is closed under it and the ambient is a
    presheaf."""
    x = k.ambient
    cat, layout, mask, kit = x.base, _element_layout(x), k.mask, classifier_kit(x.base)
    below, sieves = layout.below, layout.sieves
    comps, i = {}, 0
    for obj in cat.objects:
        comp = comps[obj] = {}
        by_mask = kit.sieves[obj]
        for el in x.stage(obj):
            pattern = mask & below[i]
            sieve = sieves[i].get(pattern)
            if sieve is None:
                sieve = sieves[i][pattern] = sum(
                    [1 << b for b, j in enumerate(layout.reads[i]) if pattern >> j & 1])
            comp[el] = by_mask[sieve]
            i += 1
    return NatTransform._certified(x, kit.omega, comps)


def subobject_of_char(chi: NatTransform) -> Subobject:
    """Inverse of `char_morphism`: the stage-wise preimage of the principal
    sieve, one bit per point of the source's element layout, built
    unchecked: the arrow is natural, so the preimage is closed."""
    cat = chi.source.base
    true = classifier_kit(cat).true_arrow.components
    mask = i = 0
    for obj in cat.objects:
        top, comp = true[obj][()], chi.components[obj]
        for el in chi.source.stage(obj):
            if comp[el] == top:
                mask |= 1 << i
            i += 1
    return Subobject._certified(chi.source, mask)


def enumerate_subobjects(x: Presheaf) -> list[Subobject]:
    """All restriction-closed part families, in canonical key order, each
    built unchecked from its down-set mask; CapExceeded past SUB_ENUM_CAP
    of them."""
    layout = _element_layout(x)
    what = f"sub-objects of a presheaf with {len(layout.points)} elements"
    masks = list(iter_downsets(layout.below, cap=SUB_ENUM_CAP, what=what))
    # In the canon_key order of `Subobject.key()`: object by object, objects
    # by name, each part by its elements' positions in the canonical stage,
    # which are the set bits of the object's span of the mask.
    spans, start = {}, 0
    for obj in x.base.objects:
        size = len(x.stage(obj))
        spans[obj] = (start, (1 << size) - 1)
        start += size
    by_name = [spans[obj] for obj in sorted(spans)]

    def key(mask):
        out = []
        for first, full in by_name:
            part, row = mask >> first & full, []
            while part:
                low = part & -part
                row.append(low.bit_length())
                part ^= low
            out.append(row)
        return out

    masks.sort(key=key)
    return [Subobject._certified(x, mask) for mask in masks]


@record(frozen=True)
class SubobjectAlgebra:
    algebra: DownsetAlgebra


def sub_heyting(x: Presheaf) -> SubobjectAlgebra:
    """Heyting algebra of Sub(X) over x's element layout, each element the
    frozenset of the (object, element) points of a sub-object: meet and
    join are stage-wise, and implication is the down-set formula over the
    category of elements (the stage-wise quantified formula is checked
    against it in the test suite)."""
    layout = _element_layout(x)
    return SubobjectAlgebra(DownsetAlgebra(
        layout.below, layout.points,
        f"sub-objects of a presheaf with {len(layout.points)} elements"))


def global_elements(x: Presheaf) -> list[NatTransform]:
    """All arrows 1 -> x, natural by the hom search.  Naturality
    of such an arrow is the matching condition on its family of values, one
    per stage, so these are the matching families.  Ordered by the canon_key
    of their sorted (object, value) pairs."""
    out = enumerate_nats(terminal_presheaf(x.base), x)
    out.sort(key=lambda n: canon_key(tuple(sorted((obj, c[()])
                                                  for obj, c in n.components.items()))))
    return out


# -- products -------------------------------------------------------------------

@record(frozen=True)
class ProductDiagram:
    presheaf: Presheaf
    projections: tuple[NatTransform, ...]


def product_presheaf(factors: Sequence[Presheaf]) -> Presheaf:
    """n-ary product object with tuple stages, without projections.  No
    factors raise ShapeMismatch: the empty product is `terminal_presheaf`.
    CapExceeded, before any stage is built, past PRODUCT_CAP elements."""
    cat = _product_base(factors)
    # canon_key orders tuples by their items' keys, so the product of
    # canon-ordered stages comes out in canon_key order without a sort.
    at = {obj: tuple(itertools.product(*(f.stage(obj) for f in factors)))
          for obj in cat.objects}
    # `Presheaf` fills in the identity tables with the stage's own elements.
    maps = {m.id: {tup: tuple(f.apply(m.id, v) for f, v in zip(factors, tup))
                   for tup in at[m.cod]}
            for m in cat.morphisms if m.id != cat.id_of(m.dom)}
    return Presheaf._canonical(cat, at, maps)


def _product_base(factors: Sequence[Presheaf]) -> FiniteCategory:
    """The factors' common base, after the checks `product_presheaf` makes
    before it builds anything."""
    if not factors:
        raise ShapeMismatch("product of no factors: use terminal_presheaf")
    cat = factors[0].base
    for f in factors:
        if f.base != cat:
            raise ShapeMismatch("product factors live on different bases")
    count = sum(math.prod(len(f.stage(obj)) for f in factors) for obj in cat.objects)
    if count > PRODUCT_CAP:
        raise CapExceeded(f"product of {len(factors)} factors has {count} elements, "
                          f"exceeds cap {PRODUCT_CAP}")
    return cat


def _is_product(p: Presheaf, factors: Sequence[Presheaf]) -> bool:
    """Whether `p == product_presheaf(factors)`, decided without building
    the product, and raising where building it raises.  Each stage is
    compared with the product of the factor stages, then each non-identity
    restriction table with the one the product reads off the factors.  The
    identity tables need no comparison: a presheaf's fix its stages and hold
    nothing else."""
    cat = _product_base(factors)
    if p.base != cat:
        return False
    for obj in cat.objects:
        stage, stages = p.stage(obj), [f.stage(obj) for f in factors]
        if len(stage) != math.prod(map(len, stages)) or \
                not all(map(eq, stage, itertools.product(*stages))):
            return False
    for m in cat.morphisms:
        if m.id != cat.id_of(m.dom):
            table = p.maps[m.id]
            if any(table[tup] != tuple(f.apply(m.id, v) for f, v in zip(factors, tup))
                   for tup in p.stage(m.cod)):
                return False
    return True


def product_many(factors: Sequence[Presheaf]) -> ProductDiagram:
    """`product_presheaf` with its projections, natural by design."""
    prod = product_presheaf(factors)
    cat = prod.base
    projections = tuple(
        NatTransform._certified(prod, factors[i], {obj: {tup: tup[i] for tup in prod.stage(obj)}
                                                   for obj in cat.objects})
        for i in range(len(factors)))
    return ProductDiagram(prod, projections)


def product(x: Presheaf, y: Presheaf) -> ProductDiagram:
    return product_many([x, y])


# -- natural transformation enumeration ----------------------------------------

def _search_refusal(sizes: Sequence[int]) -> str | None:
    """The CapExceeded text the backtracking search raises first over cells
    with nothing to propagate whose values range over stages of these
    sizes, or None if it lists them all inside both caps.

    The search visits one node per prefix of an assignment: all told the
    sum of the partial products of the sizes.  Its leaves come in
    lexicographic order, and the cell cap trips at result k, the first with
    (k + 1) * cells > HOM_CELL_CAP, which is node number the sum over depths
    d of k // P_d + 1, P_d the count of results below a node at depth d.
    The node cap trips first when that number is past ENUM_NODE_CAP."""
    n = len(sizes)
    nodes = results = 1
    for size in sizes:
        results *= size
        nodes += results
        if nodes > ENUM_NODE_CAP:
            break
    if nodes <= ENUM_NODE_CAP and results * n <= HOM_CELL_CAP:
        return None
    if n and all(sizes):
        k = HOM_CELL_CAP // n
        node, below = 0, 1
        for depth in range(n, 0, -1):
            node += k // below + 1
            below *= sizes[depth - 1]
            if below > k:
                # Result k exists, and each shallower depth adds one node.
                if node + depth <= ENUM_NODE_CAP:
                    return (f"hom search results of {n} cells each exceed "
                            f"cap {HOM_CELL_CAP} cells after {k} results")
                break
    return f"hom-set enumeration exceeded {ENUM_NODE_CAP} nodes"


def _hom_search(cat: FiniteCategory, cells: list, restrict, y: Presheaf) -> Iterable[Sequence]:
    """Each natural assignment of a y-value to every cell (obj, el), as its
    values in cell order; `restrict(mid, el)` restricts el along mid.
    Backtracking: open cells are decided in list order, trying y's stage
    order, so the value lists come out in lexicographic order.  The arrows
    into obj are closed under composition, so a choice forces its cell's
    restrictions in one pass over them; a cell whose restrictions are all
    decided takes the values that agree with them from an index of y's
    stage, built once per search.  CapExceeded past
    ENUM_NODE_CAP search nodes, or before the results would hold more than
    HOM_CELL_CAP values.  The cells are closed under `restrict` and y is a
    presheaf, so every value forced into a cell is one of y's.

    When no cell has a non-identity arrow to propagate along (every cell of
    a one-object base with only its identity, or of a discrete base), every
    assignment is natural, and the result is `itertools.product` of the
    cells' target stages, which is the search's own lexicographic order.
    Where the search would pass a cap, `_search_refusal` gives the text it
    would raise, and it is raised before any result is built."""
    if all(cat.into(obj) == (cat.id_of(obj),) for obj, _ in cells):
        stages = [y.stage(obj) for obj, _ in cells]
        refusal = _search_refusal(list(map(len, stages)))
        if refusal:
            raise CapExceeded(refusal)
        return itertools.product(*stages)
    # Per object, y's tables along the arrows into it but the identity, and
    # y's stage by their values; per cell, the cells it restricts to.
    tables = {obj: [y.maps[f] for f in cat.into(obj) if f != cat.id_of(obj)]
              for obj in dict.fromkeys(obj for obj, _ in cells)}
    index: dict = {}
    cell_index = {c: i for i, c in enumerate(cells)}
    below = [[cell_index[(cat.morphism(f).dom, restrict(f, el))]
              for f in cat.into(obj) if f != cat.id_of(obj)] for obj, el in cells]
    assign: list = [None] * len(cells)
    out = []
    nodes = 0

    def rec(i: int):
        nonlocal nodes
        nodes += 1
        if nodes > ENUM_NODE_CAP:
            raise CapExceeded(f"hom-set enumeration exceeded {ENUM_NODE_CAP} nodes")
        while i < len(cells) and assign[i] is not None:
            i += 1
        if i == len(cells):
            if (len(out) + 1) * len(cells) > HOM_CELL_CAP:
                raise CapExceeded(f"hom search results of {len(cells)} cells each exceed "
                                  f"cap {HOM_CELL_CAP} cells after {len(out)} results")
            out.append(assign[:])
            return
        obj = cells[i][0]
        decided = tuple([assign[j] for j in below[i]])
        if None not in decided:
            if obj not in index:
                index[obj] = {}
                for val in y.stage(obj):
                    index[obj].setdefault(tuple([t[val] for t in tables[obj]]), []).append(val)
            for val in index[obj].get(decided, ()):
                assign[i] = val
                rec(i + 1)
            assign[i] = None
            return
        for val in y.stage(obj):
            assign[i] = val
            trail = [i]
            for table, j in zip(tables[obj], below[i]):
                if assign[j] is None:
                    assign[j] = table[val]
                    trail.append(j)
                elif assign[j] != table[val]:
                    break
            else:
                rec(i + 1)
            for j in trail:
                assign[j] = None

    rec(0)
    return out


def enumerate_nats(x: Presheaf, y: Presheaf) -> list[NatTransform]:
    """All natural transformations x -> y, in the order of `_hom_search`
    over the cells of x by object order and x's stage order.  That order
    depends on no hash seed.  CapExceeded past ENUM_NODE_CAP search nodes.
    Each arrow is natural, so built unchecked: the search forces every
    value along each non-identity arrow, and x and y are presheaves.  Each
    component is a slice of the values: an object's cells stand together."""
    if x.base != y.base:
        raise ShapeMismatch("hom-set needs a common base")
    cat = x.base
    cells, spans = [], []
    for obj in cat.objects:
        spans.append((obj, x.stage(obj), len(cells), len(cells) + len(x.stage(obj))))
        cells += [(obj, el) for el in x.stage(obj)]
    return [NatTransform._certified(x, y, {obj: dict(zip(stage, values[start:end]))
                                           for obj, stage, start, end in spans})
            for values in _hom_search(cat, cells, x.apply, y)]


# -- exponentials and power objects ----------------------------------------------

class _Cells(tuple):
    """The cells of one exponential element.  Equal, and hash-equal, to the
    plain tuple of the same cells, but hashed once: a tuple does not keep
    its hash, and every set or dict lookup of an element would otherwise
    rehash each stage value in its cells."""

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = tuple.__hash__(self)
            return self._hash


def _exp_keys(cat: FiniteCategory, obj: str, x: Presheaf) -> list[tuple]:
    """The cell keys (B, g: B -> obj, xv) of an element of Y^X at stage
    `obj`, for every arrow g into obj and every xv in X(B).

    They come out in canon_key order without a sort: the keys are distinct,
    so their order is that of the (B, g) pairs, which the category sorts
    once per object, then that of X(B), which the stage already keeps."""
    return [(b, g, xv) for b, g in cat.into_by_key(obj) for xv in x.stage(b)]


def exp_from_blocks(cat: FiniteCategory, obj: str, x: Presheaf,
                    rows: Iterable[Sequence[Sequence]]) -> list[tuple]:
    """One element of Y^X at stage `obj` per row.  A row holds a block for
    each (B, g) of `cat.into_by_key(obj)`, in that order, and a block the
    values of the cells (B, g, xv) in X(B)'s order: in `_exp_keys` order
    the cells sharing (B, g) stand together."""
    keys = _exp_keys(cat, obj, x)
    chain = itertools.chain.from_iterable
    return [_Cells(zip(keys, chain(row))) for row in rows]


def exp_column(cat: FiniteCategory, obj: str, elements: Sequence[tuple],
               xvs: Iterable) -> list:
    """The value in the evaluation cell (obj, id_obj, xv) of each element of
    Y^X at stage `obj`, for the xv beside it.  Every element of the stage
    carries the same cell keys in `_exp_keys` order, so the cells' positions
    are read off the first element's keys; an empty column stays empty.
    PresheafError on an xv outside X(obj)."""
    if not elements:
        return []
    ident = cat.id_of(obj)
    position = {key[2]: i for i, (key, _) in enumerate(elements[0]) if key[1] == ident}
    try:
        cells = list(map(getitem, elements, map(position.__getitem__, xvs)))
    except KeyError as missing:
        raise PresheafError(f"exponential element has no cell "
                            f"({obj!r}, {ident!r}, {missing.args[0]!r})") from None
    return list(map(itemgetter(1), cells))


class _Exponential(Presheaf):
    """Y^X before its stages are listed.  The first read of `at` or `maps`,
    through `stage`, `apply`, equality or the hash too, lists every stage
    with `_hom_search` over the cells (B, g, xv) in `_exp_keys` order, so in
    canon_key order without a sort, and every restriction table, which is
    precomposition (`_restrict`).  That read raises the CapExceeded of the
    first stage, in object order, whose search would pass a cap; nothing
    before it does.

    It holds the cell keys, X's tables and Y, but not X, which keeps it: so
    no cycle ties the two.  With them, `_restrict` and `_generated` answer
    for single elements without listing anything."""

    def __init__(self, x: Presheaf, y: Presheaf):
        cat = self.base = x.base
        keys = {obj: _exp_keys(cat, obj, x) for obj in cat.objects}
        for obj, cells in keys.items():
            if len(cells) > PRODUCT_CAP:
                raise CapExceeded(f"exponential stage {obj!r} has {len(cells)} cells, "
                                  f"exceeds cap {PRODUCT_CAP}")
        self._hash = None
        self._keys, self._xmaps, self._y = keys, x.maps, y
        # Per non-identity arrow m: dom(m) and, for each key (B, h, xv) at
        # dom(m), the position of the key (B, m o h, xv) at cod(m).
        self._reads: dict = {}

    def __getattr__(self, name):
        # Called only for an attribute not yet set: `at` and `maps` until
        # the listing sets both.
        if name not in ("at", "maps"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        keys, xmaps, cat = self._keys, self._xmaps, self.base

        def restrict(mid, cell):
            g, xv = cell
            return cat.compose(g, mid), xmaps[mid][xv]

        at = {obj: tuple(_Cells(zip(keys[obj], values)) for values in
                         _hom_search(cat, [(b, (g, xv)) for b, g, xv in keys[obj]], restrict,
                                     self._y))
              for obj in cat.objects}
        # `_fill` fills in the identity tables with the stage's own elements.
        maps = {m.id: {el: self._restrict(m.id, el) for el in at[m.cod]}
                for m in cat.morphisms if m.id != cat.id_of(m.dom)}
        self._fill(cat, at, maps)
        return getattr(self, name)

    def _restrict(self, mid: str, el: tuple) -> tuple:
        """The element el of stage cod(mid) restricted along a non-identity
        arrow mid, by precomposition: theta'(h, xv) = theta(mid o h, xv)."""
        reads = self._reads.get(mid)
        if reads is None:
            cat = self.base
            m = cat.morphism(mid)
            index = {key: i for i, key in enumerate(self._keys[m.cod])}
            reads = self._reads[mid] = (m.dom, [index[(b, cat.compose(mid, h), xv)]
                                                for b, h, xv in self._keys[m.dom]])
        dom, positions = reads
        return _Cells(zip(self._keys[dom], [el[i][1] for i in positions]))

    def _generated(self, obj: str, el: tuple) -> Presheaf:
        """<el>, the sub-presheaf generated by el, an element of the stage at
        obj that the caller built there: its stage at B is the restrictions
        of el along the arrows B -> obj, each built by `_restrict`, and its
        tables are `_restrict` again.  On the one-object base it is {el}."""
        cat = self.base
        parts: dict = {b: {} for b in cat.objects}
        for b, g in cat.into_by_key(obj):
            down = el if g == cat.id_of(b) else self._restrict(g, el)
            parts[b][down] = None
        at = {b: tuple(part) if len(part) < 2 else tuple(canon_sorted(part))
              for b, part in parts.items()}
        maps = {m.id: {e: self._restrict(m.id, e) for e in at[m.cod]}
                for m in cat.morphisms if m.id != cat.id_of(m.dom)}
        return Presheaf._canonical(cat, at, maps)


# Calls of `exponential` that found Y^X kept on X, and that built it; and
# the exponentials built and still alive, held weakly.
_EXP_HITS_MISSES = [0, 0]
_EXP_ALIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


def exponential(x: Presheaf, y: Presheaf) -> Presheaf:
    """Y^X, unlisted until it is read (see `_Exponential`), and kept on x,
    keyed by y: built on the first call and kept while x lives, since the
    same exponentials recur throughout term interpretation, and nothing
    process-wide holds one.  CapExceeded at the call only past PRODUCT_CAP
    cells at a stage; a hom-search cap refuses it on its first read.

    `exponential.cache_info()` has `functools`' fields: the calls that found
    Y^X kept and the ones that built it, no size bound, and the exponentials
    built that are still alive."""
    if x.base != y.base:
        raise ShapeMismatch("exponential needs a common base")
    kept = x._exps
    if kept is None:
        kept = x._exps = {}
    exp = kept.get(y)
    if exp is not None:
        _EXP_HITS_MISSES[0] += 1
        return exp
    exp = kept[y] = _Exponential(x, y)
    _EXP_HITS_MISSES[1] += 1
    _EXP_ALIVE[_EXP_HITS_MISSES[1]] = exp
    return exp


exponential.cache_info = lambda: _CacheInfo(*_EXP_HITS_MISSES, None, len(_EXP_ALIVE))


def power_object(x: Presheaf) -> Presheaf:
    return exponential(x, classifier_kit(x.base).omega)


def _transpose_columns(cat: FiniteCategory, x: Presheaf, sizes: Mapping[str, int],
                       columns: Mapping[str, Sequence],
                       reads: Callable[[str], Sequence[int]]) -> dict[str, list[tuple]]:
    """The transpose Z -> Y^X of an arrow Z x X -> Y, as the elements of
    Y^X per stage, in Z's order.  The arrow's column at each stage B holds
    its values Z-major, so it is cut into sizes[B] = |Z(B)| rows of |X(B)|
    values: empty rows where X(B) is empty, none where Z(B) is.  The k-th
    element at obj takes its block at each (B, g) of `cat.into_by_key(obj)`
    from row reads(g)[k] at B, that of the k-th Z value restricted along
    g.  The one transpose kernel, under `exp_transpose` and `rep`'s
    comprehensions."""
    rows = {}
    for b in cat.objects:
        width, col = len(x.stage(b)), columns[b]
        rows[b] = [col[k * width:(k + 1) * width] for k in range(sizes[b])]
    return {obj: exp_from_blocks(cat, obj, x, zip(*(
        map(rows[b].__getitem__, reads(g)) for b, g in cat.into_by_key(obj))))
        for obj in cat.objects}


def exp_transpose(f: NatTransform, z: Presheaf, x: Presheaf, y: Presheaf) -> NatTransform:
    """Hom(Z x X, Y) -> Hom(Z, Y^X).  `f` must go out of product(z, x),
    which is checked against z and x without building that product.
    The transpose of zv at stage A holds f(z(g)(zv), xv) in cell (B, g, xv):
    its block at (B, g) is f's row at z(g)(zv), built by `_transpose_columns`.

    f's values are read in the product order of `f.source`, zb-major, so no
    (zb, xv) pair is hashed.  A component dict whose keys do not list f's
    source stage in that order is first rebuilt in it through
    `NatTransform.apply`.
    Rows are found by position: along an identity z keeps each element in
    place, and along another arrow g the positions of z(g)(zv) are looked up
    once per arrow.

    f is natural, so the transpose is too, and it is built unchecked, its
    elements never looked up in the listed stages of Y^X.  Its target is
    `exponential(x, y)`, unlisted until read: no hom-set cap applies to an
    arrow into it, so P(Sigma) of any number of states within PRODUCT_CAP
    can be a target."""
    cat = z.base
    if not _is_product(f.source, [z, x]) or f.target != y:
        raise ShapeMismatch("arrow to transpose is not Z x X -> Y")
    columns = {}
    for b in cat.objects:
        comp, pairs = f.components.get(b, {}), f.source.stage(b)
        if list(comp) != list(pairs):
            comp = {pair: f.apply(b, pair) for pair in pairs}
        columns[b] = list(comp.values())
    zpos: dict = {}

    def row_of(g: str) -> Sequence[int]:
        """For each zv of Z(cod g), the position of z(g)(zv) in Z(dom g)."""
        m = cat.morphism(g)
        if g == cat.id_of(m.dom):
            return range(len(z.stage(m.dom)))
        if m.dom not in zpos:
            zpos[m.dom] = {zb: k for k, zb in enumerate(z.stage(m.dom))}
        return list(map(zpos[m.dom].__getitem__, map(z.maps[g].__getitem__, z.stage(m.cod))))

    elements = _transpose_columns(cat, x, {b: len(z.stage(b)) for b in cat.objects},
                                  columns, row_of)
    return NatTransform._certified(z, exponential(x, y), {
        obj: dict(zip(z.stage(obj), elements[obj])) for obj in cat.objects})


def power_transpose(f: NatTransform, z: Presheaf, x: Presheaf) -> NatTransform:
    """The name-forming bijection Hom(Z x X, Omega) -> Hom(Z, PX)."""
    return exp_transpose(f, z, x, classifier_kit(z.base).omega)
