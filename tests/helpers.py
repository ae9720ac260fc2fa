"""Shared fixtures: small base categories, deterministic presheaf generators,
brute-force enumeration oracles, the quantified sieve and sub-object
implications, the string-keyed Kripke countermodel search, the tuple-form
G4ip prover without pruning, the `decide` benchmark corpus, the wall-clock
budget, and the oracles no library code calls: the tabulating Heyting
algebra, the exhaustive law checker, the universal-property checks of
products and exponentials, the canonical keys presheaves and natural
transformations were once compared by, and the memoized term evaluator."""
import itertools
import random
import sys
import time
from pathlib import Path
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

from toposlang._canon import canon_key
from toposlang.category import (
    FiniteCategory,
    Morphism,
    NotASieve,
    Sieve,
    from_poset,
    one_object_category,
)
from toposlang.heyting import (
    BoundedLattice,
    InvalidOrder,
    NotALattice,
    UnknownElement,
)
from toposlang.presheaf import (
    GlobalElement,
    NatTransform,
    Presheaf,
    ProductDiagram,
    ShapeMismatch,
    Subobject,
    enumerate_nats,
    exp_element,
    exp_lookup,
    exp_transpose,
    exponential,
    product_presheaf,
    validate_nat,
)
from toposlang.local.check import desugar_connectives, infer_type
from toposlang.local.syntax import App, Compr, Eq, In, Proj, Star, Term, Tup, Var
from toposlang.local.types import TypeExpr
from toposlang.prop.decide import _posets
from toposlang.prop.kripke import KripkeModel
from toposlang.prop.syntax import And, Atom, Formula, Implies, Not, Or, Prim, leaf_key, leaves
from toposlang.rep import RepresentationError, ToposRep, interpret_type

PT = one_object_category()
TWO = from_poset(["p", "q"], [("p", "q")])
CHAIN3 = from_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
VEE = from_poset(["a", "b", "c"], [("a", "b"), ("a", "c")])
DIAMOND = from_poset(["a", "b", "c", "d"],
                     [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def idempotent_monoid() -> FiniteCategory:
    """One object, one idempotent non-identity arrow; a non-poset base."""
    mors = [Morphism("id[x]", "x", "x"), Morphism("e", "x", "x")]
    comp = {("id[x]", "id[x]"): "id[x]", ("id[x]", "e"): "e",
            ("e", "id[x]"): "e", ("e", "e"): "e"}
    return FiniteCategory(["x"], mors, {"x": "id[x]"}, comp)


MONOID = idempotent_monoid()

ALL_BASES = [PT, TWO, CHAIN3, VEE, MONOID]


def set_presheaf(elements) -> Presheaf:
    """A plain finite set as a presheaf over the one-object category."""
    return Presheaf(PT, {"pt": tuple(elements)}, {})


def two_point_presheaf(at_q, at_p, down: dict) -> Presheaf:
    return Presheaf(TWO, {"q": tuple(at_q), "p": tuple(at_p)},
                    {"le[p,q]": dict(down)})


def random_presheaf(cat: FiniteCategory, rng: random.Random, max_size: int = 3,
                    attempts: int = 500) -> Presheaf:
    """Seeded rejection sampling of functorial restriction tables."""
    from toposlang.presheaf import validate_presheaf
    for _ in range(attempts):
        at = {obj: tuple(f"{obj}{i}" for i in range(rng.randint(1, max_size)))
              for obj in cat.objects}
        maps = {}
        for m in cat.morphisms:
            if m.id == cat.id_of(m.dom) and m.dom == m.cod:
                continue
            maps[m.id] = {x: rng.choice(at[m.dom]) for x in at[m.cod]}
        x = Presheaf(cat, at, maps)
        if validate_presheaf(x).ok:
            return x
    raise AssertionError("could not sample a functorial presheaf")


def presheaf_fixture_pool(count: int = 12, seed: int = 7):
    """Deterministic pool of valid presheaves over bases with <= 4 objects."""
    rng = random.Random(seed)
    bases = [PT, TWO, CHAIN3, VEE, DIAMOND, MONOID]
    out = []
    for i in range(count):
        out.append(random_presheaf(bases[i % len(bases)], rng))
    return out


class budget:
    """Fails the enclosed block when it takes `seconds` or longer."""

    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"criterion {self.criterion} took {elapsed:.2f}s (budget {self.seconds}s)"
            print(f"PASS {self.criterion} ({elapsed:.2f}s < {self.seconds}s)")
        else:
            print(f"FAIL {self.criterion} ({elapsed:.2f}s)")
        return False


# -- brute-force oracles: filters over all 2^n subsets ---------------------------

def brute_subsets(base) -> list[frozenset]:
    """Every subset of `base`, ordered by bitmask over its order."""
    out = [frozenset()]
    for x in base:
        out += [s | {x} for s in out]
    return out


def canonical_carrier_by_key(points, masks) -> list[tuple[int, frozenset]]:
    """`heyting.canonical_carrier` as it was: a frozenset per mask, sorted by
    its canon_key."""
    carrier = [(m, frozenset(p for i, p in enumerate(points) if m >> i & 1)) for m in masks]
    carrier.sort(key=lambda c: canon_key(c[1]))
    return carrier


def brute_downsets(points, below) -> list[frozenset]:
    """The subsets holding `below[x]` (a set) with each of their points x."""
    return [s for s in brute_subsets(points) if all(below[x] <= s for x in s)]


def brute_sieves(cat, obj) -> list[frozenset]:
    """Subsets of the arrows into obj closed under precomposition, ordered by
    bitmask over `cat.into(obj)`."""
    incoming = cat.into(obj)
    out = []
    for mask in range(1 << len(incoming)):
        members = {incoming[i] for i in range(len(incoming)) if mask >> i & 1}
        closed = all(cat.compose(f, g.id) in members
                     for f in members
                     for g in cat.morphisms if g.cod == cat.morphism(f).dom)
        if closed:
            out.append(frozenset(members))
    return out


def brute_subobjects(x: Presheaf) -> list[Subobject]:
    """Every stage-wise family of subsets that passes the restriction check,
    in canonical key order."""
    objs = list(x.base.objects)
    out = []

    def rec(i: int, parts: dict):
        if i == len(objs):
            k = Subobject(x, parts)
            if not k.violations():
                out.append(k)
            return
        for s in brute_subsets(x.stage(objs[i])):
            parts[objs[i]] = s
            rec(i + 1, parts)
        del parts[objs[i]]

    rec(0, {})
    out.sort(key=lambda k: canon_key(k.key()))
    return out


def brute_global_elements(x: Presheaf) -> list[GlobalElement]:
    """Every choice of one element per stage that passes the matching
    check, in canonical key order."""
    objs = list(x.base.objects)
    out = []

    def rec(i: int, choice: dict):
        if i == len(objs):
            g = GlobalElement(x, choice)
            if not g.violations():
                out.append(g)
            return
        for el in x.stage(objs[i]):
            choice[objs[i]] = el
            rec(i + 1, choice)
        del choice[objs[i]]

    rec(0, {})
    out.sort(key=lambda g: canon_key(g.key()))
    return out


def brute_upsets(upset_of) -> list[frozenset]:
    """Up-sets of an order on range(n) given as up-set tuples, ordered by bitmask."""
    n = len(upset_of)
    out = []
    for mask in range(1 << n):
        members = {i for i in range(n) if mask >> i & 1}
        if all(set(upset_of[i]) <= members for i in members):
            out.append(frozenset(members))
    return out


def brute_posets(n: int) -> tuple:
    """All reflexive-transitive-antisymmetric orders on n labeled points, each
    as a tuple of up-set tuples, by a pairwise scan of every relation on them."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for k, p in enumerate(pairs) if mask >> k & 1)
        ok = True
        for (a, b) in list(rel):
            if a != b and (b, a) in rel:
                ok = False
                break
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(tuple(j for j in range(n) if (i, j) in rel)
                             for i in range(n)))
    return tuple(out)


def brute_countermodel(formula, *, max_worlds: int = 4):
    """Smallest-first search for a model and world where the formula fails:
    every candidate is built as a `KripkeModel` and checked by its recursive,
    string-keyed forcing, with the up-sets of `brute_upsets`."""
    keys = sorted({leaf_key(leaf) for leaf in leaves(formula)})
    for n in range(1, max_worlds + 1):
        names = tuple(f"w{i}" for i in range(n))
        for upset_of in _posets(n):
            order = frozenset((names[i], names[j])
                              for i in range(n) for j in upset_of[i])
            ups = brute_upsets(upset_of)
            for assignment in itertools.product(ups, repeat=len(keys)):
                model = KripkeModel(names, order, {
                    k: frozenset(names[i] for i in ws)
                    for k, ws in zip(keys, assignment)})
                bad = model.counterexample_world(formula)
                if bad is not None:
                    return model, bad
    return None


# -- the tuple-form G4ip prover: the oracle of the interned, pruned search ------

BOT = ("bot",)


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


def reference_is_provable(formula: Formula) -> bool:
    """G4ip on tuple-form formulas, every premise searched: the prover that
    `decide.is_provable` replaced, kept verbatim as its oracle."""
    return _provable(frozenset(), _translate(formula), {})


def decide_corpus(seed: int, r: int) -> list:
    """Formula texts of round r of the `decide` benchmark workload, drawn from
    the benchmark's own generator in `perfbench/`."""
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import gen
        import wl_decide
    finally:
        sys.path.remove(perfbench)
    return [gen.text(item.formula) for item in wl_decide.corpus(seed, r)]


def transitive_closure(elements, pairs) -> dict:
    """Reflexive-transitive closure as element -> frozenset of predecessors,
    by a set-valued fixpoint.  Raises InvalidOrder on a cycle."""
    elems = list(elements)
    below = {e: {e} for e in elems}
    for p, q in pairs:
        if p not in below or q not in below:
            raise UnknownElement(f"order pair ({p!r}, {q!r}) mentions unknown element")
        below[q].add(p)
    changed = True
    while changed:
        changed = False
        for q in elems:
            extra = set()
            for p in below[q]:
                extra |= below[p]
            if not extra <= below[q]:
                below[q] |= extra
                changed = True
    for a in elems:
        for b in sorted(below[a]):
            if b != a and a in below[b]:
                raise InvalidOrder(f"cycle detected through {a!r} and {b!r}")
    return {e: frozenset(s) for e, s in below.items()}


# -- quantified implications: the definitions the down-set formula must meet ----

def sieve_implies(cat, s1: Sieve, s2: Sieve) -> Sieve:
    """{f : B -> A | every g with f o g in s1 also has f o g in s2}."""
    if s1.target != s2.target:
        raise NotASieve("implication needs sieves on the same object")
    members = set()
    for f in cat.into(s1.target):
        fm = cat.morphism(f)
        ok = True
        for g in cat.into(fm.dom):
            fg = cat.compose(f, g)
            if fg in s1.members and fg not in s2.members:
                ok = False
                break
        if ok:
            members.add(f)
    return Sieve(s1.target, frozenset(members))


def sieve_negate(cat, s: Sieve) -> Sieve:
    """Pseudo-complement: {f | no precomposite of f lands in s}."""
    return sieve_implies(cat, s, Sieve(s.target, frozenset()))


def subobject_implies(k: Subobject, l: Subobject) -> Subobject:
    """Stage-wise Heyting implication in Sub(X): the elements all of whose
    restrictions landing in K also land in L."""
    x = k.ambient
    cat = x.base
    parts = {}
    for obj in cat.objects:
        keep = []
        for el in x.stage(obj):
            ok = True
            for f in cat.into(obj):
                y = x.apply(f, el)
                if y in k.parts[cat.morphism(f).dom] and \
                        y not in l.parts[cat.morphism(f).dom]:
                    ok = False
                    break
            if ok:
                keep.append(el)
        parts[obj] = frozenset(keep)
    return Subobject(x, parts)


# -- the tabulating Heyting algebra and the exhaustive law checker ---------------

class HeytingAlgebra(BoundedLattice):
    """Bounded lattice with implication; negate(a) = implies(a, bottom).

    Implication is tabulated at construction by definition, as the largest
    g with g & a <= b: the oracle the down-set kernel is tested against."""

    def __init__(self, elements: Sequence, leq: Callable[[object, object], bool]):
        super().__init__(elements, leq)
        n, down, up = len(self._elems), self._down, self._up
        self._implies = []
        for i in range(n):
            row = []
            for j in range(n):
                bi, bj = down[i], down[j]
                candidates = [g for g in range(n) if (down[g] & bi) | bj == bj]
                common = (1 << n) - 1
                for g in candidates:
                    common &= up[g]
                got = self._by_up.get(common)
                if got is None or got not in candidates:
                    raise NotALattice(
                        f"no largest g with g & {self._elems[i]!r} <= {self._elems[j]!r}; "
                        "lattice is not a Heyting algebra")
                row.append(got)
            self._implies.append(row)

    def implies(self, a, b):
        return self._elems[self._implies[self._ix(a)][self._ix(b)]]

    def negate(self, a):
        return self._elems[self._implies[self._ix(a)][self._bottom]]


@dataclass
class LawReport:
    lattice: list = field(default_factory=list)
    distributivity: list = field(default_factory=list)
    adjunction: list = field(default_factory=list)
    double_negation: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.lattice or self.distributivity
                    or self.adjunction or self.double_negation)

    def summary(self) -> str:
        if self.ok:
            return "all laws hold"
        bits = []
        for name in ("lattice", "distributivity", "adjunction", "double_negation"):
            bad = getattr(self, name)
            if bad:
                bits.append(f"{name}: {len(bad)} violation(s), first {bad[0]}")
        return "; ".join(bits)


def check_heyting_laws(algebra) -> LawReport:
    """Exhaustively verify lattice laws, distributivity and (for algebras
    with `implies` and `negate`) the implication adjunction and a <= ~~a,
    over all triples.  Violations are report content, never exceptions.
    """
    report = LawReport()
    elems = algebra.elements
    bot, top = algebra.bottom, algebra.top
    for a in elems:
        if not algebra.leq(bot, a) or not algebra.leq(a, top):
            report.lattice.append(("bounds", a))
        if algebra.meet(a, a) != a or algebra.join(a, a) != a:
            report.lattice.append(("idempotence", a))
    for a in elems:
        for b in elems:
            if algebra.meet(a, b) != algebra.meet(b, a):
                report.lattice.append(("meet-commutativity", a, b))
            if algebra.join(a, b) != algebra.join(b, a):
                report.lattice.append(("join-commutativity", a, b))
            if algebra.meet(a, algebra.join(a, b)) != a:
                report.lattice.append(("absorption-meet-join", a, b))
            if algebra.join(a, algebra.meet(a, b)) != a:
                report.lattice.append(("absorption-join-meet", a, b))
            if algebra.leq(a, b) != (algebra.meet(a, b) == a):
                report.lattice.append(("order-meet-consistency", a, b))

    is_heyting = callable(getattr(algebra, "implies", None)) and \
        callable(getattr(algebra, "negate", None))
    for a, b, c in itertools.product(elems, repeat=3):
        if algebra.meet(algebra.meet(a, b), c) != algebra.meet(a, algebra.meet(b, c)):
            report.lattice.append(("meet-associativity", a, b, c))
        if algebra.join(algebra.join(a, b), c) != algebra.join(a, algebra.join(b, c)):
            report.lattice.append(("join-associativity", a, b, c))
        if algebra.meet(algebra.join(a, b), algebra.join(a, c)) != \
                algebra.join(a, algebra.meet(b, c)):
            report.distributivity.append((a, b, c))
        if algebra.meet(a, algebra.join(b, c)) != \
                algebra.join(algebra.meet(a, b), algebra.meet(a, c)):
            report.distributivity.append((a, b, c))
        if is_heyting:
            if algebra.leq(c, algebra.implies(a, b)) != algebra.leq(algebra.meet(c, a), b):
                report.adjunction.append((c, a, b))
    if is_heyting:
        for a in elems:
            if not algebra.leq(a, algebra.negate(algebra.negate(a))):
                report.double_negation.append((a,))
    return report


# -- universal properties of products and exponentials, by exhaustion -----------

def compose_nats(late: NatTransform, early: NatTransform) -> NatTransform:
    """late o early, checking the middle object matches on the nose."""
    if early.target != late.source:
        raise ShapeMismatch("middle objects of composition differ")
    comps = {obj: {x: late.apply(obj, early.apply(obj, x))
                   for x in early.source.stage(obj)}
             for obj in early.source.base.objects}
    return NatTransform(early.source, late.target, comps)


def pair_into_product(diagram: ProductDiagram, arrows: Sequence[NatTransform]) -> NatTransform:
    """The mediating arrow <f1,...,fn> into the product."""
    z = arrows[0].source
    comps = {obj: {el: tuple(a.apply(obj, el) for a in arrows) for el in z.stage(obj)}
             for obj in z.base.objects}
    return NatTransform(z, diagram.presheaf, comps)


def reference_presheaf_key(x: Presheaf) -> tuple:
    """The canonical key `Presheaf` once compared and hashed by: the base,
    the stages sorted by object, and each restriction table sorted by
    object id and then by the canon_key of its arguments."""
    return (
        x.base,
        tuple(sorted((o, s) for o, s in x.at.items())),
        tuple(sorted((m, tuple(sorted(t.items(), key=lambda kv: canon_key(kv[0]))))
                     for m, t in x.maps.items())),
    )


def reference_nat_key(n: NatTransform) -> tuple:
    """The canonical key `NatTransform` once compared and hashed by: both
    ends' reference keys and the component tables, sorted as above."""
    return (
        reference_presheaf_key(n.source), reference_presheaf_key(n.target),
        tuple(sorted((o, tuple(sorted(t.items(), key=lambda kv: canon_key(kv[0]))))
                     for o, t in n.components.items())),
    )


def reversed_copy(x: Presheaf) -> Presheaf:
    """An equal presheaf built from its objects, stages and tables, each
    listed in reverse order."""
    return Presheaf(x.base, {obj: x.stage(obj)[::-1] for obj in reversed(x.base.objects)},
                    {mid: dict(reversed(t.items())) for mid, t in reversed(x.maps.items())})


def assert_equality_matches_reference(items: Sequence, reference_key: Callable) -> None:
    """Over every pair: equal exactly when the reference keys are, and
    hash-equal whenever equal."""
    keys = [reference_key(a) for a in items]
    for (a, key_a), (b, key_b) in itertools.product(zip(items, keys), repeat=2):
        assert (a == b) == (key_a == key_b), (key_a, key_b)
        if a == b:
            assert hash(a) == hash(b)


def verify_product_universal(diagram: ProductDiagram, z: Presheaf) -> bool:
    """Exhaustion check of the universal property against a test object z."""
    factors = [p.target for p in diagram.projections]
    homs = [enumerate_nats(z, f) for f in factors]
    into_prod = enumerate_nats(z, diagram.presheaf)
    seen = set()
    for combo in itertools.product(*homs):
        h = pair_into_product(diagram, combo)
        if tuple(compose_nats(p, h) for p in diagram.projections) != tuple(combo):
            return False
        seen.add(h)
    return len(seen) == len(into_prod) and set(into_prod) == seen


def evaluation(x: Presheaf, y: Presheaf) -> NatTransform:
    """ev: Y^X x X -> Y, (theta, x) at stage A = theta(id_A, x)."""
    cat = x.base
    prod = product_presheaf([exponential(x, y), x])
    comps = {obj: {(theta, xv): exp_lookup(theta, obj, cat.id_of(obj), xv)
                   for (theta, xv) in prod.stage(obj)}
             for obj in cat.objects}
    return NatTransform(prod, y, comps)


def exp_untranspose(h: NatTransform, z: Presheaf, x: Presheaf, y: Presheaf) -> NatTransform:
    """Hom(Z, Y^X) -> Hom(Z x X, Y)."""
    cat = z.base
    exp = exponential(x, y)
    if h.source != z or h.target != exp:
        raise ShapeMismatch("arrow to untranspose is not Z -> Y^X")
    prod = product_presheaf([z, x])
    comps = {obj: {(zv, xv): exp_lookup(h.apply(obj, zv), obj, cat.id_of(obj), xv)
                   for (zv, xv) in prod.stage(obj)}
             for obj in cat.objects}
    return NatTransform(prod, y, comps)


def verify_exponential_adjunction(z: Presheaf, x: Presheaf, y: Presheaf) -> bool:
    """Element-for-element bijection Hom(Z x X, Y) = Hom(Z, Y^X)."""
    lhs = enumerate_nats(product_presheaf([z, x]), y)
    exp = exponential(x, y)
    rhs = enumerate_nats(z, exp)
    image = set()
    for f in lhs:
        h = exp_transpose(f, z, x, y)
        if exp_untranspose(h, z, x, y) != f:
            return False
        image.add(h)
    if len(image) != len(lhs):
        return False
    if image != set(rhs):
        return False
    for h in rhs:
        if exp_transpose(exp_untranspose(h, z, x, y), z, x, y) != h:
            return False
    return True


# -- term interpretation, one stage and environment at a time --------------------

class _Scope(NamedTuple):
    """A typing context as `interpret_term` evaluates under it: its index
    among the contexts of one call, the variables' positions in an
    environment, and their types' presheaves."""
    index: int
    ctx: tuple
    names: dict
    types: tuple


def reference_interpret_term(term: Term, context: Sequence[tuple[str, TypeExpr]],
                             rep: ToposRep) -> NatTransform:
    """`rep.interpret_term` as it once was: each subterm evaluated at one
    (stage, environment) at a time, behind a memo keyed on the node, the
    stage, the environment and the scope's index."""
    term = desugar_connectives(term)
    ctx_types = dict(context)
    target_type = infer_type(term, ctx_types, rep.signature)
    cat = rep.base

    # Eq and Compr revisit a subterm at the domain of every arrow into a
    # stage.  The memo key names the scope by index, so a lookup hashes no
    # types, and an environment's power-object elements keep their hash.
    memo: dict = {}
    scopes: dict = {}

    def scope(ctx: tuple) -> _Scope:
        found = scopes.get(ctx)
        if found is None:
            found = scopes[ctx] = _Scope(
                len(scopes), ctx, {name: i for i, (name, _) in enumerate(ctx)},
                tuple(interpret_type(t, rep) for _, t in ctx))
        return found

    def ev(n: Term, obj: str, env: tuple, sc: _Scope):
        key = (id(n), obj, env, sc.index)
        out = memo.get(key, memo)
        if out is memo:
            out = memo[key] = _ev(n, obj, env, sc)
        return out

    def env_restrict(f: str, env: tuple, sc: _Scope) -> tuple:
        return tuple(x.apply(f, v) for x, v in zip(sc.types, env))

    def _ev(n: Term, obj: str, env: tuple, sc: _Scope):
        if isinstance(n, Var):
            if n.name not in sc.names:
                raise RepresentationError(f"unbound variable {n.name!r}")
            return env[sc.names[n.name]]
        if isinstance(n, Star):
            return ()
        if isinstance(n, App):
            if n.symbol not in rep.symbols:
                raise RepresentationError(f"unassigned function symbol {n.symbol!r}")
            return rep.symbols[n.symbol].apply(obj, ev(n.arg, obj, env, sc))
        if isinstance(n, Tup):
            return tuple(ev(t, obj, env, sc) for t in n.items)
        if isinstance(n, Proj):
            return ev(n.item, obj, env, sc)[n.index - 1]
        if isinstance(n, Eq):
            members = []
            for f in cat.into(obj):
                dom = cat.morphism(f).dom
                env_f = env_restrict(f, env, sc)
                if ev(n.left, dom, env_f, sc) == ev(n.right, dom, env_f, sc):
                    members.append(f)
            return frozenset(members)
        if isinstance(n, In):
            theta = ev(n.container, obj, env, sc)
            xv = ev(n.element, obj, env, sc)
            return exp_lookup(theta, obj, cat.id_of(obj), xv)
        if isinstance(n, Compr):
            inner = scope(sc.ctx + ((n.var.name, n.var.vtype),))
            return exp_element(
                cat, obj, interpret_type(n.var.vtype, rep),
                lambda b, f, xv: ev(n.body, b, env_restrict(f, env, sc) + (xv,), inner))
        raise RepresentationError(f"cannot interpret term former {type(n).__name__}")

    source = product_presheaf([interpret_type(t, rep) for _, t in context]) \
        if context else rep.kit.terminal
    target = interpret_type(target_type, rep)
    top = scope(tuple(context))
    components = {}
    for obj in cat.objects:
        components[obj] = {env: ev(term, obj, env, top) for env in source.stage(obj)}
    arrow = NatTransform(source, target, components)
    bad = validate_nat(arrow)
    if bad.items:
        raise RepresentationError(f"interpretation is not natural: {bad.items[0]}")
    return arrow
