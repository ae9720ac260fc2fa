"""A computational topos of presheaves on a finite category.

Presheaves are contravariant functors into finite sets, stored as explicit
stage sets and restriction tables.  The module provides the full kit the
rest of the toolkit needs: the terminal object and sub-object classifier,
characteristic morphisms and their inverses, the Heyting algebra of
sub-objects, products, exponentials via representables, power objects,
exponential and power transposes, and global-element enumeration.

Stage elements are arbitrary hashables.  A constructed presheaf's stages
are canonical: distinct elements in canon_key order (see _canon).  Products
are built in that order without a sort, and presheaves and natural
transformations compare by their stage and component tables.  Sub-objects
and global elements come in canonical order; hom-sets come in the order of
their backtracking search, which follows object, stage and morphism order
and not the hash seed, so repeated runs are byte-identical.  The one-object
category gives the plain category of sets, where the classifier degenerates
to the two truth values.

This module owns the element format of exponentials and power objects: an
element of Y^X at stage A is a tuple of ((B, g: B -> A, x), y) cells in
canon_key order, built in that order without a sort.  It is a tuple
subclass that keeps its hash after the first use, and stays equal, and
hash-equal, to the plain tuple of its cells.  `exp_element` builds one and
`exp_lookup` reads a cell; other modules (term interpretation in `rep`) go
through these two and never take an element apart themselves.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from ._canon import canon_key, canon_sorted
from .category import FiniteCategory, pullback_members, principal_sieve, sieves_on
from .errors import CapExceeded, ToposlangError
from .heyting import DownsetAlgebra, iter_downsets, preorder_closure

ENUM_NODE_CAP = 10_000_000
SUB_ENUM_CAP = 1 << 20
# Entries kept by each of the process-wide caches on `classifier_kit` and
# `exponential`, least recently used first out.
CACHE_SIZE = 128


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
    canonical, so plain tuple and dict equality needs no sort.  Law
    checking lives in `validate_presheaf`, so that broken functors can
    still be constructed and reported on.
    """

    def __init__(self, base: FiniteCategory, at: Mapping[str, Iterable],
                 maps: Mapping[str, Mapping]):
        self._fill(base, {obj: tuple(canon_sorted(set(at.get(obj, ())))) for obj in base.objects},
                   maps)

    @classmethod
    def _canonical(cls, base: FiniteCategory, at: Mapping[str, tuple],
                   maps: Mapping[str, Mapping]) -> "Presheaf":
        """The presheaf of stages `at` that already hold distinct elements in
        canon_key order, one per object of `base`: no sort."""
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
            elif m.dom == m.cod and m.id == base.id_of(m.dom):
                self.maps[m.id] = {x: x for x in self.at[m.dom]}
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
    """Stage-indexed component maps between presheaves on the same base.
    Two are equal when their sources, targets and component tables are."""

    def __init__(self, source: Presheaf, target: Presheaf,
                 components: Mapping[str, Mapping]):
        if source.base != target.base:
            raise ShapeMismatch("natural transformation needs a common base category")
        self.source = source
        self.target = target
        self.components = {obj: dict(components.get(obj, {})) for obj in source.base.objects}
        self._hash = None

    def apply(self, obj: str, x):
        try:
            return self.components[obj][x]
        except KeyError:
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


@dataclass
class LawViolations:
    items: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.items


def validate_presheaf(x: Presheaf) -> LawViolations:
    """Totality, codomain, identity and contravariant-composition checks."""
    bad = LawViolations()
    cat = x.base
    stages = {obj: set(x.stage(obj)) for obj in cat.objects}
    for m in cat.morphisms:
        table = x.maps[m.id]
        for el in x.stage(m.cod):
            if el not in table:
                bad.items.append(("not-total", m.id, el))
            elif table[el] not in stages[m.dom]:
                bad.items.append(("bad-codomain", m.id, el))
        for el in table:
            if el not in stages[m.cod]:
                bad.items.append(("junk-domain", m.id, el))
    if not bad.ok:
        return bad
    for obj in cat.objects:
        for el in x.stage(obj):
            if x.apply(cat.id_of(obj), el) != el:
                bad.items.append(("identity-law", obj, el))
    for f in cat.morphisms:
        for g in cat.morphisms:
            if g.cod != f.dom or not cat.has_composite(f.id, g.id):
                continue
            fg = cat.compose(f.id, g.id)
            for el in x.stage(f.cod):
                if x.apply(g.id, x.apply(f.id, el)) != x.apply(fg, el):
                    bad.items.append(("composition-law", f.id, g.id, el))
    return bad


def validate_nat(n: NatTransform) -> LawViolations:
    """Totality plus the naturality square at every morphism and element."""
    bad = LawViolations()
    cat = n.source.base
    for obj in cat.objects:
        comp = n.components.get(obj, {})
        target = set(n.target.stage(obj))
        for el in n.source.stage(obj):
            if el not in comp:
                bad.items.append(("not-total", obj, el))
            elif comp[el] not in target:
                bad.items.append(("bad-codomain", obj, el))
    if not bad.ok:
        return bad
    for m in cat.morphisms:
        for el in n.source.stage(m.cod):
            if n.apply(m.dom, n.source.apply(m.id, el)) != \
                    n.target.apply(m.id, n.apply(m.cod, el)):
                bad.items.append(("naturality", m.id, el))
    return bad


# -- sub-objects and global elements ------------------------------------------

class Subobject:
    """A stage-wise subset of an ambient presheaf, closed under restriction."""

    def __init__(self, ambient: Presheaf, parts: Mapping[str, Iterable]):
        self.ambient = ambient
        self.parts = {obj: frozenset(parts.get(obj, ())) for obj in ambient.base.objects}

    def violations(self) -> list:
        bad = []
        stages = {obj: set(self.ambient.stage(obj)) for obj in self.parts}
        for obj, sub in self.parts.items():
            extra = sub - stages[obj]
            if extra:
                bad.append(("not-a-subset", obj, canon_sorted(extra)[0]))
        for m in self.ambient.base.morphisms:
            for el in self.parts[m.cod]:
                if el in stages[m.cod] and \
                        self.ambient.apply(m.id, el) not in self.parts[m.dom]:
                    bad.append(("not-restriction-closed", m.id, el))
        return bad

    def key(self):
        return tuple(sorted((obj, tuple(canon_sorted(sub)))
                            for obj, sub in self.parts.items()))

    def __eq__(self, other):
        return isinstance(other, Subobject) and self.ambient == other.ambient \
            and self.parts == other.parts

    def __hash__(self):
        return hash(self.key())


class GlobalElement:
    """A matching family: one element per stage, compatible with restriction."""

    def __init__(self, of: Presheaf, choice: Mapping[str, object]):
        self.of = of
        self.choice = dict(choice)

    def violations(self) -> list:
        bad = []
        for obj in self.of.base.objects:
            if obj not in self.choice or self.choice[obj] not in set(self.of.stage(obj)):
                bad.append(("no-choice", obj))
        if bad:
            return bad
        for m in self.of.base.morphisms:
            if self.of.apply(m.id, self.choice[m.cod]) != self.choice[m.dom]:
                bad.append(("matching-condition", m.id))
        return bad

    def key(self):
        return tuple(sorted(self.choice.items()))

    def as_nat(self, terminal: "Presheaf") -> NatTransform:
        return NatTransform(terminal, self.of,
                            {obj: {(): self.choice[obj]} for obj in self.of.base.objects})

    def __eq__(self, other):
        return isinstance(other, GlobalElement) and self.of == other.of \
            and self.choice == other.choice

    def __hash__(self):
        return hash(self.key())


# -- classifier ----------------------------------------------------------------

@dataclass(frozen=True)
class ClassifierKit:
    terminal: Presheaf
    omega: Presheaf
    true_arrow: NatTransform


def terminal_presheaf(cat: FiniteCategory) -> Presheaf:
    """Single point () at every stage."""
    return Presheaf(cat, {obj: ((),) for obj in cat.objects},
                    {m.id: {(): ()} for m in cat.morphisms})


@lru_cache(maxsize=CACHE_SIZE)
def classifier_kit(cat: FiniteCategory) -> ClassifierKit:
    """Terminal object, sieve classifier and the arrow picking the principal
    sieve at each stage."""
    terminal = terminal_presheaf(cat)
    at = {obj: tuple(s.members for s in sieves_on(cat, obj)) for obj in cat.objects}
    maps = {}
    for m in cat.morphisms:
        maps[m.id] = {members: pullback_members(cat, m.id, members)
                      for members in at[m.cod]}
    omega = Presheaf(cat, at, maps)
    true_arrow = NatTransform(terminal, omega, {
        obj: {(): principal_sieve(cat, obj).members} for obj in cat.objects})
    return ClassifierKit(terminal, omega, true_arrow)


def char_morphism(k: Subobject) -> NatTransform:
    """x at stage A goes to the sieve of arrows pulling x into the sub-object."""
    bad = k.violations()
    if bad:
        raise PresheafError(f"invalid sub-object: {bad[0]}")
    x = k.ambient
    cat = x.base
    kit = classifier_kit(cat)
    comps = {}
    for obj in cat.objects:
        comps[obj] = {
            el: frozenset(f for f in cat.into(obj)
                          if x.apply(f, el) in k.parts[cat.morphism(f).dom])
            for el in x.stage(obj)}
    return NatTransform(x, kit.omega, comps)


def subobject_of_char(chi: NatTransform) -> Subobject:
    """Inverse of `char_morphism`: the stage-wise preimage of the principal sieve."""
    bad = validate_nat(chi)
    if bad.items:
        raise PresheafError(f"characteristic arrow is not natural: {bad.items[0]}")
    cat = chi.source.base
    parts = {obj: frozenset(el for el in chi.source.stage(obj)
                            if chi.apply(obj, el) == principal_sieve(cat, obj).members)
             for obj in cat.objects}
    return Subobject(chi.source, parts)


def _element_order(x: Presheaf) -> tuple[list, list[int]]:
    """The points (B, e) of the category of elements of x, and their
    preorder as masks: a sub-object holding e at B holds every restriction
    of e.  A restriction that leaves its stage bars e from every sub-object."""
    cat = x.base
    points = [(obj, el) for obj in cat.objects for el in x.stage(obj)]
    index = {p: i for i, p in enumerate(points)}
    outside = 1 << len(points)
    needs = [0] * len(points)
    for m in cat.morphisms:
        for el in x.stage(m.cod):
            j = index.get((m.dom, x.apply(m.id, el)))
            needs[index[(m.cod, el)]] |= outside if j is None else 1 << j
    return points, preorder_closure(needs)


def enumerate_subobjects(x: Presheaf) -> list[Subobject]:
    """All restriction-closed part families, in canonical key order;
    CapExceeded past SUB_ENUM_CAP of them."""
    points, below = _element_order(x)
    masks = list(iter_downsets(below, cap=SUB_ENUM_CAP,
                               what=f"sub-objects of a presheaf with {len(points)} elements"))
    out = []
    for mask in masks:
        parts: dict = {obj: [] for obj in x.base.objects}
        for i, (obj, el) in enumerate(points):
            if mask >> i & 1:
                parts[obj].append(el)
        out.append(Subobject(x, parts))
    out.sort(key=lambda k: canon_key(k.key()))
    return out


@dataclass(frozen=True)
class SubobjectAlgebra:
    algebra: DownsetAlgebra
    subobjects: Mapping  # element id (Subobject.key()) -> Subobject


def sub_heyting(x: Presheaf) -> SubobjectAlgebra:
    """Heyting algebra of Sub(X), in `enumerate_subobjects` order: meet and
    join are stage-wise, and implication is the down-set formula over the
    category of elements (the stage-wise quantified formula is checked
    against it in the test suite)."""
    subs = enumerate_subobjects(x)
    points, below = _element_order(x)
    index = {p: i for i, p in enumerate(points)}
    by_key = {k.key(): k for k in subs}
    carrier = [(sum(1 << index[(obj, el)] for obj, part in k.parts.items() for el in part), key)
               for key, k in by_key.items()]
    return SubobjectAlgebra(DownsetAlgebra(below, carrier), by_key)


def global_elements(x: Presheaf) -> list[GlobalElement]:
    """All matching families, canonically ordered: the arrows 1 -> x."""
    out = [GlobalElement(x, {obj: n.apply(obj, ()) for obj in x.base.objects})
           for n in enumerate_nats(terminal_presheaf(x.base), x)]
    out.sort(key=lambda g: canon_key(g.key()))
    return out


# -- products -------------------------------------------------------------------

@dataclass(frozen=True)
class ProductDiagram:
    presheaf: Presheaf
    projections: tuple[NatTransform, ...]


def product_presheaf(factors: Sequence[Presheaf]) -> Presheaf:
    """n-ary product object with tuple stages, without projections.  No
    factors raise ShapeMismatch: the empty product is `terminal_presheaf`."""
    if not factors:
        raise ShapeMismatch("product of no factors: use terminal_presheaf")
    cat = factors[0].base
    for f in factors:
        if f.base != cat:
            raise ShapeMismatch("product factors live on different bases")
    # canon_key orders tuples by their items' keys, so the product of
    # canon-ordered stages comes out in canon_key order without a sort.
    at = {obj: tuple(itertools.product(*(f.stage(obj) for f in factors)))
          for obj in cat.objects}
    maps = {m.id: {tup: tuple(f.apply(m.id, v) for f, v in zip(factors, tup))
                   for tup in at[m.cod]}
            for m in cat.morphisms}
    return Presheaf._canonical(cat, at, maps)


def product_many(factors: Sequence[Presheaf]) -> ProductDiagram:
    """`product_presheaf` with its projections."""
    prod = product_presheaf(factors)
    cat = prod.base
    projections = tuple(
        NatTransform(prod, factors[i],
                     {obj: {tup: tup[i] for tup in prod.stage(obj)} for obj in cat.objects})
        for i in range(len(factors)))
    return ProductDiagram(prod, projections)


def product(x: Presheaf, y: Presheaf) -> ProductDiagram:
    return product_many([x, y])


# -- natural transformation enumeration ----------------------------------------

def enumerate_nats(x: Presheaf, y: Presheaf) -> list[NatTransform]:
    """All natural transformations x -> y via backtracking with forced
    propagation along restrictions, in search order: cells by object order
    and x's stage order, values by y's stage order.  That order depends on
    no hash seed.  CapExceeded when the search would visit more than
    ENUM_NODE_CAP nodes."""
    if x.base != y.base:
        raise ShapeMismatch("hom-set needs a common base")
    cat = x.base
    cells = [(obj, el) for obj in cat.objects for el in x.stage(obj)]
    cell_index = {c: i for i, c in enumerate(cells)}
    # per cell: list of (morphism, target cell, map of y) for propagation
    prop = [[] for _ in cells]
    for m in cat.morphisms:
        if m.id == cat.id_of(m.dom) and m.dom == m.cod:
            continue
        for el in x.stage(m.cod):
            src = cell_index[(m.cod, el)]
            dst = cell_index[(m.dom, x.apply(m.id, el))]
            prop[src].append((m.id, dst))
    assign: list = [None] * len(cells)
    out = []
    nodes = 0

    def force(i: int, value, trail: list) -> bool:
        if assign[i] is not None:
            return assign[i] == value
        assign[i] = value
        trail.append(i)
        for mid, dst in prop[i]:
            forced = y.apply(mid, value)
            if not force(dst, forced, trail):
                return False
        return True

    def rec(i: int):
        nonlocal nodes
        nodes += 1
        if nodes > ENUM_NODE_CAP:
            raise CapExceeded(f"hom-set enumeration exceeded {ENUM_NODE_CAP} nodes")
        while i < len(cells) and assign[i] is not None:
            i += 1
        if i == len(cells):
            comps: dict = {obj: {} for obj in cat.objects}
            for (obj, el), val in zip(cells, assign):
                comps[obj][el] = val
            out.append(NatTransform(x, y, comps))
            return
        obj, _ = cells[i]
        for val in y.stage(obj):
            trail: list = []
            if force(i, val, trail):
                rec(i + 1)
            for j in trail:
                assign[j] = None

    rec(0)
    return out


# -- exponentials and power objects ----------------------------------------------

def representable(cat: FiniteCategory, obj: str) -> Presheaf:
    """Hom(-, obj) with restriction by precomposition."""
    at = {b: tuple(f for f in cat.into(obj) if cat.morphism(f).dom == b)
          for b in cat.objects}
    maps = {m.id: {f: cat.compose(f, m.id) for f in at[m.cod]} for m in cat.morphisms}
    return Presheaf(cat, at, maps)


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


def exp_element(cat: FiniteCategory, obj: str, x: Presheaf, value) -> tuple:
    """The element of Y^X at stage `obj` whose cell (B, g: B -> obj, xv)
    holds value(B, g, xv), for every arrow g into obj and every xv in X(B).

    The cells come out in canon_key order without a sort: the keys (B, g, xv)
    are distinct, so their order is that of the (B, g) pairs, then that of
    X(B), which the stage already keeps."""
    arrows = sorted(((cat.morphism(g).dom, g) for g in cat.into(obj)), key=canon_key)
    return _Cells(((b, g, xv), value(b, g, xv)) for b, g in arrows for xv in x.stage(b))


def exp_lookup(element: tuple, obj: str, f: str, xv):
    """The value in cell (obj, f, xv) of an exponential element."""
    for (o, g, x), y in element:
        if o == obj and g == f and x == xv:
            return y
    raise PresheafError(f"exponential element has no cell ({obj!r}, {f!r}, {xv!r})")


@lru_cache(maxsize=CACHE_SIZE)
def exponential(x: Presheaf, y: Presheaf) -> Presheaf:
    """Y^X with stage A the natural transformations Hom(-,A) x X -> Y and
    restriction by precomposition of the representable slot.  Cached, up to
    CACHE_SIZE of them: the same exponentials recur throughout term
    interpretation."""
    if x.base != y.base:
        raise ShapeMismatch("exponential needs a common base")
    cat = x.base
    at = {}
    for obj in cat.objects:
        hom_x = product_presheaf([representable(cat, obj), x])
        at[obj] = tuple(exp_element(cat, obj, x, lambda b, g, xv: n.apply(b, (g, xv)))
                        for n in enumerate_nats(hom_x, y))
    # theta'(h: C -> dom(m), xv) = theta(m o h, xv).  Along an identity
    # that is theta itself, and `Presheaf` fills in identity tables with the
    # stage's own elements, so no element is built a second time.
    maps = {m.id: {el: exp_element(cat, m.dom, x, lambda b, h, xv:
                                   exp_lookup(el, b, cat.compose(m.id, h), xv))
                   for el in at[m.cod]}
            for m in cat.morphisms if m.id != cat.id_of(m.dom)}
    return Presheaf(cat, at, maps)


def power_object(x: Presheaf) -> Presheaf:
    return exponential(x, classifier_kit(x.base).omega)


def exp_transpose(f: NatTransform, z: Presheaf, x: Presheaf, y: Presheaf) -> NatTransform:
    """Hom(Z x X, Y) -> Hom(Z, Y^X).  `f` must go out of product(z, x)."""
    cat = z.base
    if f.source != product_presheaf([z, x]) or f.target != y:
        raise ShapeMismatch("arrow to transpose is not Z x X -> Y")
    exp = exponential(x, y)
    comps = {}
    for obj in cat.objects:
        members = set(exp.stage(obj))
        table = {}
        for zv in z.stage(obj):
            element = exp_element(cat, obj, x,
                                  lambda b, g, xv: f.apply(b, (z.apply(g, zv), xv)))
            if element not in members:
                raise PresheafError("transpose produced a non-natural family")
            table[zv] = element
        comps[obj] = table
    return NatTransform(z, exp, comps)


def power_transpose(f: NatTransform, z: Presheaf, x: Presheaf) -> NatTransform:
    """The name-forming bijection Hom(Z x X, Omega) -> Hom(Z, PX)."""
    return exp_transpose(f, z, x, classifier_kit(z.base).omega)
