"""Finite categories as explicit composition tables, plus sieve machinery.

Morphisms are table entries, never generated words, so the unit,
associativity and closure laws are finite checks, and the public
`FiniteCategory` constructor runs them once: a category is lawful by
construction, and the sieve machinery assumes it.  A sieve on an object is
a precomposition-closed set of incoming morphisms, held as the frozenset of
its members, the form the classifier's stages and the sieve algebras'
element ids take too; on a poset category the sieves are exactly the lower
sets below the object.  Sieve enumeration is ordered by bitmask over the
category's fixed morphism ordering, which makes every derived structure
(the classifier, golden output) byte-stable.  The sieve algebras list in
the canonical order of every `DownsetAlgebra`.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ._canon import canon_key
from ._record import record
from .errors import ToposlangError
from .heyting import DownsetAlgebra, iter_downsets, poset_below

SIEVE_ENUM_CAP = 1 << 20


class CategoryError(ToposlangError):
    pass


class _LawViolation(CategoryError):
    pass


@record(frozen=True)
class Morphism:
    id: str
    dom: str
    cod: str


class FiniteCategory:
    """Objects, morphisms and a composition table that obey the category laws.

    The public constructor checks the names, then runs `validate_category`
    once and raises CategoryError naming the first violation of closure,
    then units, then associativity.  So every composable pair has a
    composite of the right signature, and no code downstream guards against
    a lawless table.  `from_poset` is lawful by design and builds through
    `_unchecked`, which skips both checks.
    """

    def __init__(self, objects: Sequence[str], morphisms: Sequence[Morphism],
                 identities: Mapping[str, str],
                 composition: Mapping[tuple[str, str], str]):
        self._fill(objects, morphisms, identities, composition)
        if len(self._mor) != len(self.morphisms):
            raise CategoryError("duplicate morphism ids")
        objects = set(self.objects)
        if len(objects) != len(self.objects):
            raise CategoryError("duplicate object ids")
        for m in self.morphisms:
            if m.dom not in objects or m.cod not in objects:
                raise CategoryError(f"morphism {m.id!r} has unknown dom/cod")
        for obj in self.objects:
            ident = self.identity.get(obj)
            if ident is None or ident not in self._mor:
                raise CategoryError(f"missing identity for object {obj!r}")
            im = self._mor[ident]
            if im.dom != obj or im.cod != obj:
                raise CategoryError(f"identity of {obj!r} is not an endomorphism")
        for (f, g), fg in self._compose.items():
            if f not in self._mor or g not in self._mor or fg not in self._mor:
                raise CategoryError(f"composition entry ({f!r}, {g!r}) mentions unknown morphism")
            if self._mor[g].cod != self._mor[f].dom:
                raise CategoryError(f"composition entry ({f!r}, {g!r}) is for morphisms "
                                    "that do not compose")
        report = validate_category(self)
        if not report.ok:
            first = (*report.closure, *report.units,
                     *(("associativity", *fgh) for fgh in report.associativity))[0]
            raise _LawViolation(f"violates the category laws: {first}")

    @classmethod
    def _unchecked(cls, objects, morphisms, identities, composition) -> "FiniteCategory":
        """The category of a table lawful by design: no name or law check."""
        cat = cls.__new__(cls)
        cat._fill(objects, morphisms, identities, composition)
        return cat

    def _fill(self, objects, morphisms, identities, composition):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self._mor = {m.id: m for m in self.morphisms}
        self.identity = dict(identities)
        self._compose = dict(composition)
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
        return self._compose[(f, g)]

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
    mors, comp = cat.morphisms, cat._compose
    for f in mors:
        for g in mors:
            if g.cod != f.dom:
                continue
            if (f.id, g.id) not in comp:
                closure.append(("missing", f.id, g.id))
                continue
            fg = cat.morphism(cat.compose(f.id, g.id))
            if fg.dom != g.dom or fg.cod != f.cod:
                closure.append(("bad-signature", f.id, g.id, fg.id))
    for m in mors:
        left = (cat.id_of(m.cod), m.id)
        right = (m.id, cat.id_of(m.dom))
        if left in comp and comp[left] != m.id:
            units.append(("left-unit", m.id, comp[left]))
        if right in comp and comp[right] != m.id:
            units.append(("right-unit", m.id, comp[right]))
    for f in mors:
        for g in mors:
            if g.cod != f.dom or (f.id, g.id) not in comp:
                continue
            for h in mors:
                if h.cod != g.dom:
                    continue
                if not ((g.id, h.id) in comp
                        and (cat.compose(f.id, g.id), h.id) in comp
                        and (f.id, cat.compose(g.id, h.id)) in comp):
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
    return FiniteCategory._unchecked(elems, morphisms, identities, composition)


def one_object_category(obj: str = "pt") -> FiniteCategory:
    """The terminal backend: presheaves over it are plain sets."""
    return from_poset([obj], [])


# -- sieves -------------------------------------------------------------------

def _sieve_order(cat: FiniteCategory, obj: str) -> list[int]:
    """The preorder on the arrows into obj, as masks over `cat.into(obj)`: a
    sieve holding f holds every f o g.  The masks are already reflexive (g
    may be the identity) and transitive ((f o g) o h is f o (g o h), and
    g o h is an arrow into dom(f)), so they need no closure."""
    incoming = cat.into(obj)
    index = {f: i for i, f in enumerate(incoming)}
    needs = [0] * len(incoming)
    for i, f in enumerate(incoming):
        for g in cat.into(cat.morphism(f).dom):
            needs[i] |= 1 << index[cat.compose(f, g)]
    return needs


def sieves_on(cat: FiniteCategory, obj: str) -> list[frozenset[str]]:
    """The member sets of all sieves on obj, ordered by bitmask over cat's
    morphism order."""
    incoming = cat.into(obj)
    masks = sorted(iter_downsets(_sieve_order(cat, obj), cap=SIEVE_ENUM_CAP,
                                 what=f"sieves on {obj!r}"))
    return [frozenset(f for i, f in enumerate(incoming) if mask >> i & 1) for mask in masks]


def sieve_heyting(cat: FiniteCategory, obj: str) -> DownsetAlgebra:
    """Heyting algebra of all sieves on obj, each element the frozenset of
    its members: meet and join are intersection and union, and implication
    is the down-set formula: f is in S1 => S2 when every f o g in S1 is
    also in S2."""
    return DownsetAlgebra(_sieve_order(cat, obj), cat.into(obj), f"sieves on {obj!r}")
