"""Finite categories as explicit composition tables, plus sieve machinery.

Morphisms are table entries, never generated words, so the unit,
associativity and closure laws are finite checks.  Sieves on an object are
precomposition-closed sets of incoming morphisms; on a poset category they
are exactly the lower sets below the object.  Sieve enumeration is ordered
by bitmask over the category's fixed morphism ordering, which makes every
derived structure (the classifier, golden output) byte-stable.  The sieve
algebras list in the canonical order of every `DownsetAlgebra`.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ._canon import canon_key
from ._record import record
from .errors import ToposlangError
from .heyting import DownsetAlgebra, iter_downsets, poset_below, preorder_closure

SIEVE_ENUM_CAP = 1 << 20


class CategoryError(ToposlangError):
    pass


class NotASieve(CategoryError):
    pass


@record(frozen=True)
class Morphism:
    id: str
    dom: str
    cod: str


class FiniteCategory:
    """Objects, morphisms and a partial composition table.

    The constructor checks referential integrity only; the category *laws*
    (units, associativity, closure under composition) are the business of
    `validate_category`, so deliberately broken tables can be built and
    reported on.
    """

    def __init__(self, objects: Sequence[str], morphisms: Sequence[Morphism],
                 identities: Mapping[str, str],
                 composition: Mapping[tuple[str, str], str]):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self._mor = {m.id: m for m in self.morphisms}
        if len(self._mor) != len(self.morphisms):
            raise CategoryError("duplicate morphism ids")
        objects = set(self.objects)
        if len(objects) != len(self.objects):
            raise CategoryError("duplicate object ids")
        for m in self.morphisms:
            if m.dom not in objects or m.cod not in objects:
                raise CategoryError(f"morphism {m.id!r} has unknown dom/cod")
        self.identity = dict(identities)
        for obj in self.objects:
            ident = self.identity.get(obj)
            if ident is None or ident not in self._mor:
                raise CategoryError(f"missing identity for object {obj!r}")
            im = self._mor[ident]
            if im.dom != obj or im.cod != obj:
                raise CategoryError(f"identity of {obj!r} is not an endomorphism")
        self._compose = dict(composition)
        for (f, g), fg in self._compose.items():
            if f not in self._mor or g not in self._mor or fg not in self._mor:
                raise CategoryError(f"composition entry ({f!r}, {g!r}) mentions unknown morphism")
        self._into = {obj: tuple(m.id for m in self.morphisms if m.cod == obj)
                      for obj in self.objects}
        self._into_by_key: dict[str, tuple[tuple[str, str], ...]] = {}
        self._key = (self.objects, self.morphisms, tuple(sorted(self.identity.items())),
                     tuple(sorted(self._compose.items())))
        # Hashed once: every `classifier_kit` lookup, and every presheaf's
        # hash, hashes its base.
        self._hash = hash(self._key)

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteCategory) and self._hash == other._hash
                                 and self._key == other._key)

    def __hash__(self):
        return self._hash

    def morphism(self, mid: str) -> Morphism:
        try:
            return self._mor[mid]
        except KeyError:
            raise CategoryError(f"unknown morphism {mid!r}") from None

    def id_of(self, obj: str) -> str:
        if obj not in self.identity:
            raise CategoryError(f"unknown object {obj!r}")
        return self.identity[obj]

    def compose(self, f: str, g: str) -> str:
        """f o g for g: C -> B, f: B -> A."""
        fm, gm = self.morphism(f), self.morphism(g)
        if gm.cod != fm.dom:
            raise CategoryError(f"morphisms {f!r} o {g!r} are not composable")
        try:
            return self._compose[(f, g)]
        except KeyError:
            raise CategoryError(f"composition table has no entry for ({f!r}, {g!r})") from None

    def has_composite(self, f: str, g: str) -> bool:
        return (f, g) in self._compose

    def into(self, obj: str) -> tuple[str, ...]:
        """Morphisms with codomain obj, in the category's fixed order."""
        if obj not in self._into:
            raise CategoryError(f"unknown object {obj!r}")
        return self._into[obj]

    def into_by_key(self, obj: str) -> tuple[tuple[str, str], ...]:
        """The (domain, morphism) pairs into obj, in canon_key order: the
        cell order of exponential elements at obj, sorted once per object."""
        pairs = self._into_by_key.get(obj)
        if pairs is None:
            pairs = tuple(sorted(((self._mor[g].dom, g) for g in self.into(obj)),
                                 key=canon_key))
            self._into_by_key[obj] = pairs
        return pairs


@record
class CategoryReport:
    closure: list
    units: list
    associativity: list

    @property
    def ok(self) -> bool:
        return not (self.closure or self.units or self.associativity)


def validate_category(cat: FiniteCategory) -> CategoryReport:
    """Exhaustive unit / associativity / closure check; violations listed."""
    closure, units, assoc = [], [], []
    mors = cat.morphisms
    for f in mors:
        for g in mors:
            if g.cod != f.dom:
                continue
            if not cat.has_composite(f.id, g.id):
                closure.append(("missing", f.id, g.id))
                continue
            fg = cat.morphism(cat.compose(f.id, g.id))
            if fg.dom != g.dom or fg.cod != f.cod:
                closure.append(("bad-signature", f.id, g.id, fg.id))
    for m in mors:
        left = (cat.id_of(m.cod), m.id)
        right = (m.id, cat.id_of(m.dom))
        if cat.has_composite(*left) and cat._compose[left] != m.id:
            units.append(("left-unit", m.id, cat._compose[left]))
        if cat.has_composite(*right) and cat._compose[right] != m.id:
            units.append(("right-unit", m.id, cat._compose[right]))
    for f in mors:
        for g in mors:
            if g.cod != f.dom or not cat.has_composite(f.id, g.id):
                continue
            for h in mors:
                if h.cod != g.dom:
                    continue
                if not (cat.has_composite(g.id, h.id)
                        and cat.has_composite(cat.compose(f.id, g.id), h.id)
                        and cat.has_composite(f.id, cat.compose(g.id, h.id))):
                    continue
                if cat.compose(cat.compose(f.id, g.id), h.id) != \
                        cat.compose(f.id, cat.compose(g.id, h.id)):
                    assoc.append((f.id, g.id, h.id))
    return CategoryReport(closure, units, assoc)


def identity_id(obj: str) -> str:
    return f"id[{obj}]"


def poset_arrow_id(p: str, q: str) -> str:
    return f"le[{p},{q}]"


def from_poset(elements: Sequence[str], pairs: Iterable[tuple[str, str]]) -> FiniteCategory:
    """Category of a finite poset: one morphism le[p,q] per related pair p <= q.

    Raises InvalidOrder when the reflexive-transitive closure has a cycle.
    """
    elems = list(elements)
    below = poset_below(elems, pairs)  # raises on cycles
    morphisms = [Morphism(identity_id(p), p, p) for p in elems]
    identities = {p: identity_id(p) for p in elems}
    for i, q in enumerate(elems):
        for p in sorted(p for j, p in enumerate(elems) if below[i] >> j & 1):
            if p != q:
                morphisms.append(Morphism(poset_arrow_id(p, q), p, q))

    def arrow(p, q):
        return identity_id(p) if p == q else poset_arrow_id(p, q)

    composition = {}
    for f in morphisms:
        for g in morphisms:
            if g.cod == f.dom:
                composition[(f.id, g.id)] = arrow(g.dom, f.cod)
    return FiniteCategory(elems, morphisms, identities, composition)


def one_object_category(obj: str = "pt") -> FiniteCategory:
    """The terminal backend: presheaves over it are plain sets."""
    return from_poset([obj], [])


# -- sieves -------------------------------------------------------------------

@record(frozen=True)
class Sieve:
    target: str
    members: frozenset[str]

    def __contains__(self, mid: str) -> bool:
        return mid in self.members


def sieve_violations(cat: FiniteCategory, target: str, members: frozenset[str]) -> list:
    """Empty when `members` is a sieve on `target`."""
    bad = []
    for f in sorted(members):
        fm = cat.morphism(f)
        if fm.cod != target:
            bad.append(("wrong-codomain", f))
            continue
        for g in cat.morphisms:
            if g.cod == fm.dom and cat.compose(f, g.id) not in members:
                bad.append(("not-precomposition-closed", f, g.id))
    return bad


def principal_sieve(cat: FiniteCategory, obj: str) -> Sieve:
    """All morphisms with codomain obj (the top sieve)."""
    return Sieve(obj, frozenset(cat.into(obj)))


def pullback_members(cat: FiniteCategory, f: str, members: frozenset[str]) -> frozenset[str]:
    fm = cat.morphism(f)
    return frozenset(h for h in cat.into(fm.dom) if cat.compose(f, h) in members)


def pullback_sieve(cat: FiniteCategory, f: str, sieve: Sieve) -> Sieve:
    """The sieve {h : f o h in S} on dom(f); principal when f itself is in S."""
    fm = cat.morphism(f)
    if fm.cod != sieve.target:
        raise NotASieve(f"sieve on {sieve.target!r} cannot be pulled back along {f!r}")
    bad = sieve_violations(cat, sieve.target, sieve.members)
    if bad:
        raise NotASieve(f"not a sieve on {sieve.target!r}: {bad[0]}")
    return Sieve(fm.dom, pullback_members(cat, f, sieve.members))


def _sieve_order(cat: FiniteCategory, obj: str) -> list[int]:
    """The preorder on the arrows into obj, as masks over `cat.into(obj)`: a
    sieve holding f holds every f o g.  A composite that is not an arrow into
    obj bars f from every sieve."""
    incoming = cat.into(obj)
    index = {f: i for i, f in enumerate(incoming)}
    outside = 1 << len(incoming)
    needs = [0] * len(incoming)
    for i, f in enumerate(incoming):
        for g in cat.into(cat.morphism(f).dom):
            fg = cat.compose(f, g)
            needs[i] |= 1 << index[fg] if fg in index else outside
    return preorder_closure(needs)


def sieves_on(cat: FiniteCategory, obj: str) -> list[Sieve]:
    """All sieves on obj, ordered by member-set bitmask over cat's morphism order."""
    incoming = cat.into(obj)
    masks = sorted(iter_downsets(_sieve_order(cat, obj), cap=SIEVE_ENUM_CAP,
                                 what=f"sieves on {obj!r}"))
    return [Sieve(obj, frozenset(f for i, f in enumerate(incoming) if mask >> i & 1))
            for mask in masks]


def sieve_heyting(cat: FiniteCategory, obj: str) -> DownsetAlgebra:
    """Heyting algebra of all sieves on obj, each element the frozenset of
    its members: meet and join are intersection and union, and implication
    is the down-set formula: f is in S1 => S2 when every f o g in S1 is
    also in S2."""
    return DownsetAlgebra(_sieve_order(cat, obj), cat.into(obj), f"sieves on {obj!r}")
