"""Shared fixtures: small base categories, deterministic presheaf
generators, brute-force enumeration oracles, every labelled order by pair
mask, the quantified sieve and sub-object implications, the sieve pullback
and the sieve and sub-object checks no library code calls, the
characteristic arrow and its inverse on per-stage frozensets, the global
elements built as arrows 1 -> X and their key, the string-keyed
Kripke countermodel search, the tuple-form G4ip prover without pruning, the
`decide` benchmark corpus, the wall-clock budget, and the oracles no library
code calls: the tabulating Heyting algebra, the exhaustive law checker, the
exponential-cell reader that scans an element's cells, the
universal-property checks of products and exponentials, the exponential
built through representables, the proposition family built whole over
P(R) x Sigma, the canonical keys presheaves and natural
transformations were once compared by, the memoized term evaluator and
the sequent check on it, the local language's term walkers with one branch per term former, the
`dataclasses` twins of the record classes, the endpoint-key
`Interval.contains`, and the match-loop token cursor with both languages'
parsers on it."""
import __future__
import ast
import dataclasses
import importlib
import itertools
import random
import re
import sys
import time
from pathlib import Path
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from toposlang import presheaf as presheaf_module
from toposlang._canon import canon_key
from toposlang.category import (
    CategoryError,
    FiniteCategory,
    Morphism,
    from_poset,
    one_object_category,
)
from toposlang.heyting import (
    BoundedLattice,
    InvalidOrder,
    NotALattice,
    UnknownElement,
    iter_downsets,
)
from toposlang.presheaf import (
    NatTransform,
    Presheaf,
    PresheafError,
    ProductDiagram,
    ShapeMismatch,
    Subobject,
    enumerate_nats,
    exp_transpose,
    exponential,
    power_transpose,
    product_presheaf,
    terminal_presheaf,
    validate_nat,
)
from toposlang.local.check import desugar_connectives, infer_type
from toposlang.intervals import Interval, IntervalSet
from toposlang.local.syntax import (
    STAR,
    TRUE,
    AndT,
    App,
    Compr,
    Eq,
    In,
    LsParseError,
    Proj,
    Signature,
    Star,
    Term,
    TrueLit,
    Tup,
    Var,
    format_term,
)
from toposlang.local.types import (
    OMEGA,
    RQ,
    SIGMA,
    UNIT,
    GroundType,
    PowerType,
    TypeExpr,
    product_type,
)
from toposlang.errors import CapExceeded
from toposlang.prop.decide import _AND, _ATOM, _IMP, MAX_SCAN_WORLDS, _Table, _frames
from toposlang.prop.decide import _translate as _translate_node
from toposlang.prop.kripke import KripkeModel
from toposlang.prop.syntax import (
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    ParseError,
    Prim,
    fold_formula,
    leaf_key,
    leaves,
)
from toposlang.local.axioms import Sequent
from toposlang.rep import (
    AxiomReport,
    AxiomWitness,
    RepresentationError,
    ToposRep,
    interpret_term,
    interpret_type,
)

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
    """Seeded rejection sampling of functorial restriction tables: the
    constructor refuses the others."""
    for _ in range(attempts):
        at = {obj: tuple(f"{obj}{i}" for i in range(rng.randint(1, max_size)))
              for obj in cat.objects}
        maps = {}
        for m in cat.morphisms:
            if m.id == cat.id_of(m.dom) and m.dom == m.cod:
                continue
            maps[m.id] = {x: rng.choice(at[m.dom]) for x in at[m.cod]}
        try:
            return Presheaf(cat, at, maps)
        except PresheafError:
            pass
    raise AssertionError("could not sample a functorial presheaf")


def reference_law_violations(cat: FiniteCategory, at: Mapping, maps: Mapping) -> list:
    """The functor-law check on raw stage and restriction tables, in the
    order the `Presheaf` constructor reports it: stages and tables under
    names the base lacks; then, per morphism, the stage elements its table
    misses or sends outside the domain's stage, and the table's entries for
    elements outside the codomain's stage; then the identity law per object
    and the composition law per composable pair.  Stages lose duplicates
    and list in canon_key order, and a missing identity table is the
    identity."""
    ids = {m.id for m in cat.morphisms}
    out = [("unknown-object", obj) for obj in at if obj not in cat.objects]
    out += [("unknown-morphism", mid) for mid in maps if mid not in ids]
    if out:
        return out
    stage = {obj: sorted(set(at.get(obj, ())), key=canon_key) for obj in cat.objects}
    table = {m.id: dict(maps[m.id]) if m.id in maps
             else {x: x for x in stage[m.dom]} if m.id == cat.id_of(m.dom) else {}
             for m in cat.morphisms}
    for m in cat.morphisms:
        t, dom, cod = table[m.id], set(stage[m.dom]), set(stage[m.cod])
        for el in stage[m.cod]:
            if el not in t:
                out.append(("not-total", m.id, el))
            elif t[el] not in dom:
                out.append(("bad-codomain", m.id, el))
        out += [("junk-domain", m.id, el) for el in t if el not in cod]
    if out:
        return out
    for obj in cat.objects:
        ident = table[cat.id_of(obj)]
        out += [("identity-law", obj, el) for el in stage[obj] if ident[el] != el]
    for f in cat.morphisms:
        for g in cat.morphisms:
            if g.cod == f.dom:
                fg = table[cat.compose(f.id, g.id)]
                out += [("composition-law", f.id, g.id, el) for el in stage[f.cod]
                        if table[g.id][table[f.id][el]] != fg[el]]
    return out


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
            if not subobject_violations(x, parts):
                out.append(Subobject(x, parts))
            return
        for s in brute_subsets(x.stage(objs[i])):
            parts[objs[i]] = s
            rec(i + 1, parts)
        del parts[objs[i]]

    rec(0, {})
    out.sort(key=lambda k: canon_key(k.key()))
    return out


def brute_global_elements(x: Presheaf) -> list[NatTransform]:
    """Every arrow 1 -> x, one element chosen per stage, that passes
    `validate_nat`, in `global_key` order."""
    objs = list(x.base.objects)
    out = []
    for values in itertools.product(*(x.stage(obj) for obj in objs)):
        g = global_element(x, dict(zip(objs, values)))
        if validate_nat(g).ok:
            out.append(g)
    return sorted(out, key=global_key)


def brute_upsets(upset_of) -> list[frozenset]:
    """Up-sets of an order on range(n) given as up-set tuples, ordered by bitmask."""
    n = len(upset_of)
    out = []
    for mask in range(1 << n):
        members = {i for i in range(n) if mask >> i & 1}
        if all(set(upset_of[i]) <= members for i in members):
            out.append(frozenset(members))
    return out


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


def brute_frame_classes(n: int) -> tuple:
    """The orders of `_posets(n)` that no permutation of the n points maps
    onto an earlier order, in `_posets` order."""
    def relabel(upset_of, perm):
        """The order with each point i renamed perm[i]."""
        out = [()] * n
        for i, ups in enumerate(upset_of):
            out[perm[i]] = tuple(sorted(perm[j] for j in ups))
        return tuple(out)

    earlier: set = set()
    out = []
    for upset_of in _posets(n):
        if not any(relabel(upset_of, perm) in earlier
                   for perm in itertools.permutations(range(n))):
            out.append(upset_of)
        earlier.add(upset_of)
    return tuple(out)


def brute_countermodel(formula, *, max_worlds: int = 4):
    """Smallest-first search for a model and world where the formula fails:
    every candidate is a `KripkeModel` checked by its recursive,
    string-keyed forcing, with the up-sets of `brute_upsets`.

    Each labelled order is validated once, by a `KripkeModel` valuing one
    key per up-set; a candidate is a copy of that model's attributes, its
    order and up-sets included, with the valuation replaced by one of those
    up-sets per key.  Forcing runs on a copy of the formula whose
    primitives are atoms named by their keys: it forces alike, without
    formatting a primitive's key at each visit."""
    keys = sorted({leaf_key(leaf) for leaf in leaves(formula)})
    keyed = fold_formula(formula, lambda leaf: Atom(leaf_key(leaf)), Not,
                         lambda former, v, w: former(v, w))
    for n in range(1, max_worlds + 1):
        names = tuple(f"w{i}" for i in range(n))
        for upset_of in _posets(n):
            order = frozenset((names[i], names[j])
                              for i in range(n) for j in upset_of[i])
            ups = [frozenset(names[i] for i in ws) for ws in brute_upsets(upset_of)]
            checked = KripkeModel(names, order, {f"up{i}": up for i, up in enumerate(ups)})
            for assignment in itertools.product(ups, repeat=len(keys)):
                model = object.__new__(KripkeModel)
                vars(model).update(vars(checked), valuation=dict(zip(keys, assignment)))
                bad = model.counterexample_world(keyed)
                if bad is not None:
                    return model, bad
    return None


def _scalar_scan(formula, max_worlds: int, orders) -> Optional[tuple]:
    """Smallest-first scan over the orders `orders(n)` gives on n worlds, as
    up-set bitmasks: one candidate valuation at a time, each atom (in sorted
    key order) over the order's up-sets in increasing bitmask order, every
    node evaluated on a bitmask of worlds, `a -> b` read from the order's
    `box` table, where `box[m]` is the mask of the worlds whose up-set misses
    `m`.  Returns the first candidate's model and its first failing world."""
    t = _Table()
    for key in sorted({leaf_key(leaf) for leaf in leaves(formula)}):
        t.node(_ATOM, t.atoms.setdefault(key, len(t.atoms)))
    root = _translate_node(formula, t)
    keys, start = list(t.atoms), len(t.atoms) + 1
    program = list(zip(range(start, len(t.op)), t.op[start:], t.left[start:], t.right[start:]))
    val = [0] * len(t.op)
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        for up in orders(n):
            masks = sorted(iter_downsets(up))
            box = [sum(1 << w for w in range(n) if not up[w] & m) for m in range(1 << n)]
            for assignment in itertools.product(masks, repeat=len(keys)):
                val[1:start] = assignment
                for slot, op, a, b in program:
                    if op == _IMP:
                        val[slot] = box[val[a] & ~val[b]]
                    elif op == _AND:
                        val[slot] = val[a] & val[b]
                    else:
                        val[slot] = val[a] | val[b]
                failing = full & ~val[root]
                if failing:
                    names = tuple(f"w{i}" for i in range(n))
                    model = KripkeModel(names, frozenset(
                        (names[i], names[j]) for i in range(n) for j in range(n)
                        if up[i] >> j & 1), {
                        k: frozenset(names[i] for i in range(n) if mask >> i & 1)
                        for k, mask in zip(keys, assignment)})
                    return model, names[(failing & -failing).bit_length() - 1]
    return None


def scalar_countermodel(formula, *, max_worlds: int = 4):
    """The per-candidate scan that `find_countermodel` replaced, over the same
    rooted frames of `_frames`, in the same order: its oracle."""
    return _scalar_scan(formula, max_worlds, lambda n: [up for up, _ in _frames(n)])


def all_orders_countermodel(formula, *, max_worlds: int = 4):
    """The per-candidate scan over every labelled order of `_posets(n)`, not
    only the rooted frames of one labelling per isomorphism class, every
    world tested and the first failing one returned."""
    return _scalar_scan(formula, max_worlds, lambda n: [
        [sum(1 << j for j in ups) for ups in upset_of] for upset_of in _posets(n)])


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

def sieve_implies(cat, target: str, s1: frozenset, s2: frozenset) -> frozenset:
    """{f : B -> target | every g with f o g in s1 also has f o g in s2}."""
    members = set()
    for f in cat.into(target):
        fm = cat.morphism(f)
        ok = True
        for g in cat.into(fm.dom):
            fg = cat.compose(f, g)
            if fg in s1 and fg not in s2:
                ok = False
                break
        if ok:
            members.add(f)
    return frozenset(members)


def sieve_negate(cat, target: str, s: frozenset) -> frozenset:
    """Pseudo-complement: {f | no precomposite of f lands in s}."""
    return sieve_implies(cat, target, s, frozenset())


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


# -- sieve pullbacks, the sieve and sub-object checks, the characteristic
# arrow on frozensets, global elements -----------------------------------------

class NotASieve(CategoryError):
    pass


def sieve_violations(cat: FiniteCategory, target: str, members: frozenset) -> list:
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


def principal_sieve(cat: FiniteCategory, obj: str) -> frozenset[str]:
    """All morphisms with codomain obj (the top sieve)."""
    return frozenset(cat.into(obj))


def pullback_members(cat: FiniteCategory, f: str, members: frozenset) -> frozenset:
    """{h : f o h in members}, with no check that members is a sieve."""
    return frozenset(h for h in cat.into(cat.morphism(f).dom) if cat.compose(f, h) in members)


def pullback_sieve(cat: FiniteCategory, f: str, target: str, members: frozenset) -> frozenset:
    """The sieve {h : f o h in S} on dom(f) of the sieve S on `target`;
    principal when f itself is in S.  NotASieve unless f lands in `target`
    and `members` is a sieve on it."""
    if cat.morphism(f).cod != target:
        raise NotASieve(f"sieve on {target!r} cannot be pulled back along {f!r}")
    bad = sieve_violations(cat, target, members)
    if bad:
        raise NotASieve(f"not a sieve on {target!r}: {bad[0]}")
    return pullback_members(cat, f, members)


def subobject_violations(x: Presheaf, parts: Mapping) -> list:
    """Every reason the family `parts` is not a sub-object of x, in the
    order in which the `Subobject` constructor names the first: the names
    the base lacks, in canon_key order; per object, the first element of
    the part outside its stage, in canon_key order; then the restrictions
    that leave the parts, in object, canonical-stage and `into` order."""
    cat = x.base
    bad = [("unknown-object", obj) for obj in sorted(parts, key=canon_key)
           if obj not in cat.objects]
    for obj in cat.objects:
        outside = [el for el in parts.get(obj, ()) if el not in x.stage(obj)]
        if outside:
            bad.append(("not-a-subset", obj, min(outside, key=canon_key)))
    for obj in cat.objects:
        part = set(parts.get(obj, ()))
        for el in x.stage(obj):
            if el in part:
                bad.extend(("not-restriction-closed", f, el) for f in cat.into(obj)
                           if x.apply(f, el) not in parts.get(cat.morphism(f).dom, ()))
    return bad


def subobject_of_id(x: Presheaf, key: frozenset) -> Subobject:
    """The sub-object of x that an element id of `sub_heyting(x).algebra`,
    the frozenset of its (object, element) points, stands for, through the
    public constructor."""
    parts: dict = {obj: [] for obj in x.base.objects}
    for obj, el in key:
        parts[obj].append(el)
    return Subobject(x, parts)


def reference_char_morphism(k: Subobject) -> NatTransform:
    """`char_morphism` on per-stage frozensets: every arrow f into every
    stage read against the part at dom(f), through the public
    `NatTransform` constructor."""
    x = k.ambient
    cat = x.base
    comps = {}
    for obj in cat.objects:
        reads = [(f, x.maps[f], k.parts[cat.morphism(f).dom]) for f in cat.into(obj)]
        comps[obj] = {el: frozenset([f for f, table, below in reads if table[el] in below])
                      for el in x.stage(obj)}
    return NatTransform(x, presheaf_module.classifier_kit(cat).omega, comps)


def reference_subobject_of_char(chi: NatTransform) -> Subobject:
    """`subobject_of_char` on per-stage frozensets: the stage-wise preimage
    of the principal sieve, through the public `Subobject` constructor."""
    cat = chi.source.base
    true = presheaf_module.classifier_kit(cat).true_arrow.components
    parts = {}
    for obj in cat.objects:
        top, comp = true[obj][()], chi.components[obj]
        parts[obj] = frozenset(el for el in chi.source.stage(obj) if comp[el] == top)
    return Subobject(chi.source, parts)


def global_element(x: Presheaf, choice: Mapping) -> NatTransform:
    """The arrow 1 -> x with value choice[A] at each stage A, built
    unchecked, natural or not."""
    return NatTransform._certified(terminal_presheaf(x.base), x,
                                   {obj: {(): value} for obj, value in choice.items()})


def global_key(g: NatTransform):
    """The order `global_elements` lists in: the canon_key of the sorted
    (object, value) pairs."""
    return canon_key(tuple(sorted((obj, g.apply(obj, ())) for obj in g.source.base.objects)))


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


def exp_element(cat: FiniteCategory, obj: str, x: Presheaf, value) -> tuple:
    """The element of Y^X at stage `obj` whose cell (B, g: B -> obj, xv)
    holds value(B, g, xv), written cell by cell as a plain tuple: the
    reference writer of the element format, arrows in `into_by_key` order
    and each block in X(B)'s order, which every builder in `presheaf` must
    match."""
    return tuple(((b, g, xv), value(b, g, xv))
                 for b, g in cat.into_by_key(obj) for xv in x.stage(b))


def exp_lookup(element: tuple, obj: str, f: str, xv):
    """The value in cell (obj, f, xv) of an exponential element, found by
    scanning its cells: the reader the library used before it read cells
    by position (`presheaf.exp_column`)."""
    for (o, g, x), y in element:
        if o == obj and g == f and x == xv:
            return y
    raise PresheafError(f"exponential element has no cell ({obj!r}, {f!r}, {xv!r})")


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


# -- the hom search without its Cartesian shortcut --------------------------------

def backtracking_hom_search(cat: FiniteCategory, cells: list, restrict, y: Presheaf) -> list:
    """`presheaf._hom_search` as it was before it listed propagation-free
    cells as a product: backtracking with forced propagation over every
    input, reading both caps off the `presheaf` module when called, so that
    a test may lower them."""
    cell_index = {c: i for i, c in enumerate(cells)}
    prop: list = [[] for _ in cells]
    for i, (obj, el) in enumerate(cells):
        for mid in cat.into(obj):
            dom = cat.morphism(mid).dom
            if mid != cat.id_of(dom):
                prop[i].append((mid, cell_index[(dom, restrict(mid, el))]))
    node_cap, cell_cap = presheaf_module.ENUM_NODE_CAP, presheaf_module.HOM_CELL_CAP
    assign: list = [None] * len(cells)
    out = []
    nodes = 0

    def force(i: int, value, trail: list) -> bool:
        if assign[i] is not None:
            return assign[i] == value
        assign[i] = value
        trail.append(i)
        return all(force(dst, y.apply(mid, value), trail) for mid, dst in prop[i])

    def rec(i: int):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise CapExceeded(f"hom-set enumeration exceeded {node_cap} nodes")
        while i < len(cells) and assign[i] is not None:
            i += 1
        if i == len(cells):
            if (len(out) + 1) * len(cells) > cell_cap:
                raise CapExceeded(f"hom search results of {len(cells)} cells each exceed "
                                  f"cap {cell_cap} cells after {len(out)} results")
            out.append(assign[:])
            return
        for val in y.stage(cells[i][0]):
            trail: list = []
            if force(i, val, trail):
                rec(i + 1)
            for j in trail:
                assign[j] = None

    rec(0)
    return out


# -- the exponential through a representable and a product -----------------------

def representable(cat: FiniteCategory, obj: str) -> Presheaf:
    """Hom(-, obj) with restriction by precomposition."""
    at = {b: tuple(f for f in cat.into(obj) if cat.morphism(f).dom == b)
          for b in cat.objects}
    maps = {m.id: {f: cat.compose(f, m.id) for f in at[m.cod]} for m in cat.morphisms}
    return Presheaf(cat, at, maps)


def reference_exponential(x: Presheaf, y: Presheaf) -> Presheaf:
    """Y^X as `presheaf.exponential` once built it: stage A from the
    natural transformations Hom(-,A) x X -> Y, each converted to cells,
    restriction by `exp_lookup` of the precomposed cell, and every stage
    canon-sorted by `Presheaf`."""
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


def reference_prop_family(symbol: str, rep: ToposRep) -> NatTransform:
    """The family `rep.prop_family` gives, built whole as it once was:
    ``symbol(s) in D`` interpreted over all of P(R) x Sigma, which lists
    P(R), then power-transposed over P(R)."""
    flipped = interpret_term(In(App(symbol, Var("s")), Var("D")),
                             (("D", PowerType(RQ)), ("s", SIGMA)), rep)
    return power_transpose(flipped, interpret_type(PowerType(RQ), rep),
                           interpret_type(SIGMA, rep))


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
    return NatTransform(source, target, components)


def reference_validate_axioms(rep: ToposRep, axioms: Sequence[tuple[str, Sequent]]) -> AxiomReport:
    """`rep.validate_axioms` as it once was, on `reference_interpret_term`:
    each formula interpreted as an arrow out of the whole context product,
    and at every stage and environment the meet of the premises' sieves
    compared with the conclusion's."""
    report = AxiomReport()
    for name, seq in axioms:
        context = reference_sequent_context(name, seq, rep.signature)
        concl = reference_interpret_term(seq.conclusion, context, rep)
        premises = [reference_interpret_term(g, context, rep) for g in seq.context]
        source = concl.source
        for obj in rep.base.objects:
            top = principal_sieve(rep.base, obj)
            for env in source.stage(obj):
                got = concl.apply(obj, env)
                bound = top
                for p in premises:
                    bound = bound & p.apply(obj, env)
                report.checked += 1
                if not bound <= got or (not premises and got != top):
                    report.failures.append(AxiomWitness(
                        name, obj, env, got, bound if premises else top))
    return report


def reference_sequent_context(name: str, seq: Sequent,
                               signature: Signature) -> tuple[tuple[str, TypeExpr], ...]:
    """The sorted typed context of a sequent as `rep.validate_axioms` once
    found it, in two passes: every formula's free variables and their
    annotations, then every formula's type, which must be Omega.  Both
    passes take the conclusion first and then the premises in
    `format_term` order, premises that print alike in `repr` order."""
    formulas = [seq.conclusion] + sorted(seq.context, key=lambda f: (format_term(f), repr(f)))
    var_types: dict[str, TypeExpr] = {}
    for formula in formulas:
        for vname, annots in reference_free_vars(formula).items():
            types = {t for t in annots if t is not None}
            if not types:
                raise RepresentationError(
                    f"axiom {name!r} has untyped free variable {vname!r}")
            if len(types) > 1 or (vname in var_types and var_types[vname] not in types):
                raise RepresentationError(
                    f"axiom {name!r} types variable {vname!r} inconsistently")
            var_types[vname] = types.pop()
    for formula in formulas:
        got = infer_type(formula, var_types, signature)
        if got != OMEGA:
            raise RepresentationError(
                f"axiom {name!r} has formula {format_term(formula)!r} of type {got}, "
                "not Omega")
    return tuple(sorted(var_types.items()))


# -- the local language's term walkers, one branch per term former ---------------

def reference_free_vars(term: Term) -> dict[str, set]:
    """`check.free_vars` as it was before `map_children`."""
    out: dict[str, set] = {}

    def walk(n: Term, bound: frozenset):
        if isinstance(n, Var):
            if n.name not in bound:
                out.setdefault(n.name, set()).add(n.vtype)
        elif isinstance(n, App):
            walk(n.arg, bound)
        elif isinstance(n, Tup):
            for t in n.items:
                walk(t, bound)
        elif isinstance(n, Proj):
            walk(n.item, bound)
        elif isinstance(n, Compr):
            walk(n.body, bound | {n.var.name})
        elif isinstance(n, (Eq, AndT)):
            walk(n.left, bound)
            walk(n.right, bound)
        elif isinstance(n, In):
            walk(n.element, bound)
            walk(n.container, bound)

    walk(term, frozenset())
    return out


def _reference_fresh(base: str, taken: set[str]) -> str:
    i = 1
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"


def _reference_rename_binder(node: Compr, new_name: str) -> Compr:
    new_var = Var(new_name, node.var.vtype)
    return Compr(new_var, reference_substitute(node.body, node.var.name, new_var))


def reference_substitute(term: Term, var_name: str, replacement: Term) -> Term:
    """`check.substitute` as it was before `map_children`."""
    repl_free = set(reference_free_vars(replacement))

    def walk(n: Term) -> Term:
        if isinstance(n, Var):
            return replacement if n.name == var_name else n
        if isinstance(n, (Star, TrueLit)):
            return n
        if isinstance(n, App):
            return App(n.symbol, walk(n.arg))
        if isinstance(n, Tup):
            return Tup(tuple(walk(t) for t in n.items))
        if isinstance(n, Proj):
            return Proj(n.index, walk(n.item))
        if isinstance(n, Compr):
            if n.var.name == var_name:
                return n  # occurrences below are bound, not free
            if n.var.name in repl_free:
                taken = repl_free | set(reference_free_vars(n.body)) | {var_name}
                n = _reference_rename_binder(n, _reference_fresh(n.var.name, taken))
            return Compr(n.var, walk(n.body))
        if isinstance(n, Eq):
            return Eq(walk(n.left), walk(n.right))
        if isinstance(n, In):
            return In(walk(n.element), walk(n.container))
        if isinstance(n, AndT):
            return AndT(walk(n.left), walk(n.right))
        raise TypeError(f"not a term node: {n!r}")

    return walk(term)


def reference_alpha_normal(term: Term) -> Term:
    """`check.alpha_normal` as it was before `map_children`."""
    counter = [0]

    def walk(n: Term, env: Mapping[str, str]) -> Term:
        if isinstance(n, Var):
            return Var(env.get(n.name, n.name), n.vtype)
        if isinstance(n, (Star, TrueLit)):
            return n
        if isinstance(n, App):
            return App(n.symbol, walk(n.arg, env))
        if isinstance(n, Tup):
            return Tup(tuple(walk(t, env) for t in n.items))
        if isinstance(n, Proj):
            return Proj(n.index, walk(n.item, env))
        if isinstance(n, Compr):
            counter[0] += 1
            fresh = f"%{counter[0]}"
            inner = dict(env)
            inner[n.var.name] = fresh
            return Compr(Var(fresh, n.var.vtype), walk(n.body, inner))
        if isinstance(n, Eq):
            return Eq(walk(n.left, env), walk(n.right, env))
        if isinstance(n, In):
            return In(walk(n.element, env), walk(n.container, env))
        if isinstance(n, AndT):
            return AndT(walk(n.left, env), walk(n.right, env))
        raise TypeError(f"not a term node: {n!r}")

    return walk(term, {})


def _reference_alpha_equal(a: Term, b: Term) -> bool:
    return reference_alpha_normal(a) == reference_alpha_normal(b)


REFERENCE_CORE_TRUE = Eq(Star(), Star())


def reference_desugar_connectives(term: Term) -> Term:
    """`check.desugar_connectives` as it was before `map_children`."""
    def walk(n: Term) -> Term:
        if isinstance(n, TrueLit):
            return REFERENCE_CORE_TRUE
        if isinstance(n, AndT):
            return Eq(Tup((walk(n.left), walk(n.right))),
                      Tup((REFERENCE_CORE_TRUE, REFERENCE_CORE_TRUE)))
        if isinstance(n, (Var, Star)):
            return n
        if isinstance(n, App):
            return App(n.symbol, walk(n.arg))
        if isinstance(n, Tup):
            return Tup(tuple(walk(t) for t in n.items))
        if isinstance(n, Proj):
            return Proj(n.index, walk(n.item))
        if isinstance(n, Compr):
            return Compr(n.var, walk(n.body))
        if isinstance(n, Eq):
            return Eq(walk(n.left), walk(n.right))
        if isinstance(n, In):
            return In(walk(n.element), walk(n.container))
        raise TypeError(f"not a term node: {n!r}")

    return walk(term)


def reference_replaceable(phi: Term, psi: Term, x: Term, y: Term) -> bool:
    """`axioms._replaceable` as it was before `map_children`, over the
    reference substitution and alpha equality."""
    counter = [0]

    def walk(a: Term, b: Term) -> bool:
        if _reference_alpha_equal(a, x) and _reference_alpha_equal(b, y):
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, (Var, Star, TrueLit)):
            return a == b
        if isinstance(a, App):
            return a.symbol == b.symbol and walk(a.arg, b.arg)
        if isinstance(a, Tup):
            return len(a.items) == len(b.items) and \
                all(walk(s, t) for s, t in zip(a.items, b.items))
        if isinstance(a, Proj):
            return a.index == b.index and walk(a.item, b.item)
        if isinstance(a, Compr):
            if a.var.vtype != b.var.vtype:
                return False
            counter[0] += 1
            fresh = Var(f"%r{counter[0]}", a.var.vtype)
            return walk(reference_substitute(a.body, a.var.name, fresh),
                        reference_substitute(b.body, b.var.name, fresh))
        if isinstance(a, Eq):
            return walk(a.left, b.left) and walk(a.right, b.right)
        if isinstance(a, In):
            return walk(a.element, b.element) and walk(a.container, b.container)
        if isinstance(a, AndT):
            return walk(a.left, b.left) and walk(a.right, b.right)
        return False

    return walk(phi, psi)


# -- dataclass twins of the record classes -----------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def _is_record(decorator: ast.expr) -> bool:
    call = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(call, ast.Name) and call.id == "record"


def record_twins() -> list[tuple[type, type]]:
    """Each `@record` class under src/, paired with its twin: the same class
    statement run again in a copy of its module's namespace, where `record`
    and `field` are `dataclasses.dataclass` and `dataclasses.field`."""
    pairs = []
    for path in sorted((SRC / "toposlang").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and any(_is_record(d) for d in node.decorator_list)):
                continue
            module = importlib.import_module(".".join(path.relative_to(SRC).with_suffix("").parts))
            namespace = dict(vars(module), record=dataclasses.dataclass, field=dataclasses.field)
            exec(compile(ast.Module([node], []), str(path), "exec",
                         flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
            pairs.append((getattr(module, node.name), namespace[node.name]))
    return pairs


def reference_contains(interval: Interval, q) -> bool:
    """`Interval.contains` through the endpoint keys: the point key
    `(0, q, 0)` between `lo_key` and `hi_key`."""
    return interval.lo_key <= (0, q, 0) <= interval.hi_key


# -- the match-loop tokenizer and the parsers on it ----------------------------------

class ReferenceCursor:
    """The match-loop token cursor that `_lex.Cursor` replaced: one
    `match` per token and per whitespace run, and `(kind, value, column)`
    tokens, the kind being the name of the alternative that matched (or the
    name itself when it is reserved)."""
    token: re.Pattern
    reserved: frozenset[str]
    error: type[Exception]

    def __init__(self, text: str):
        token, reserved, toks = self.token, self.reserved, []
        pos = 0
        while pos < len(text):
            m = token.match(text, pos)
            if not m:
                raise self.error(f"lexical error at column {pos}: {text[pos:pos + 10]!r}")
            kind = m.lastgroup
            if kind != "ws":
                value = m.group(kind)
                if kind == "name" and value in reserved:
                    kind = value
                toks.append((kind, value, pos))
            pos = m.end()
        toks.append(("eof", "", len(text)))
        self.toks = toks
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None) -> str:
        k, v, pos = self.next()
        if k != kind or (value is not None and v != value):
            raise self.error(f"expected {value or kind!r} at column {pos}, got {v!r}")
        return v

    def at_sym(self, ch: str) -> bool:
        kind, value, _ = self.toks[self.i]
        return value == ch and kind == "sym"

    def finish(self) -> None:
        """Raise unless every token has been read."""
        kind, value, pos = self.peek()
        if kind != "eof":
            raise self.error(f"trailing input at column {pos}: {value!r}")


_REFERENCE_FORMULA_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<num>\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_@']*)
  | (?P<sym>[~&|()\[\],+\-])
""", re.VERBOSE)

_FORMULA_RESERVED = frozenset({"in", "u", "empty", "inf"})
_FORMULA_BINARY = {"->": (Implies, 1, True), "|": (Or, 2, False), "&": (And, 3, False)}


class _ReferenceFormulaParser(ReferenceCursor):
    token, reserved, error = _REFERENCE_FORMULA_TOKEN, _FORMULA_RESERVED, ParseError

    def fail(self, what: str):
        _, v, pos = self.peek()
        raise ParseError(f"expected {what} at column {pos}, got {v!r}")

    def formula(self, floor: int) -> Formula:
        """A formula whose binary connectives, outside parentheses, bind at
        precedence `floor` or tighter: precedence climbing over _FORMULA_BINARY."""
        node = self.unary()
        while True:
            entry = _FORMULA_BINARY.get(self.peek()[1])
            if entry is None or entry[1] < floor:
                return node
            self.next()
            former, prec, right = entry
            node = former(node, self.formula(prec + (not right)))

    def unary(self) -> Formula:
        if self.at_sym("~"):
            self.next()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, value, _ = self.peek()
        if (kind, value) == ("sym", "("):
            self.next()
            node = self.formula(0)
            self.expect("sym", ")")
            return node
        if kind == "name":
            self.next()
            if self.peek()[0] == "in":
                self.next()
                return Prim(value, self.interval_set())
            return Atom(value)
        self.fail("a formula")

    # interval set := "empty" | interval ("u" interval)*
    def interval_set(self) -> IntervalSet:
        if self.peek()[0] == "empty":
            self.next()
            return IntervalSet.empty()
        parts = [self.interval()]
        while self.peek()[0] == "u":
            self.next()
            parts.append(self.interval())
        return IntervalSet.from_parts(parts)

    def interval(self) -> Interval:
        kind, value, pos = self.next()
        if (kind, value) not in (("sym", "["), ("sym", "(")):
            raise ParseError(f"expected an interval at column {pos}, got {value!r}")
        lo_closed = value == "["
        lo = self.bound("lower")
        self.expect("sym", ",")
        hi = self.bound("upper")
        kind, value, pos = self.next()
        if (kind, value) not in (("sym", "]"), ("sym", ")")):
            raise ParseError(f"unterminated interval at column {pos}, got {value!r}")
        hi_closed = value == "]"
        if lo is None and lo_closed:
            raise ParseError("interval cannot be closed at -inf")
        if hi is None and hi_closed:
            raise ParseError("interval cannot be closed at +inf")
        return Interval(lo, lo_closed, hi, hi_closed)

    def bound(self, side: str) -> Fraction | None:
        """A rational, or None for inf; an inf signed for the other side of
        the interval is refused."""
        kind, value, start = self.next()
        sign, pos = "", start
        if (kind, value) in (("sym", "-"), ("sym", "+")):
            sign = value
            kind, value, pos = self.next()
        if kind == "inf":
            if sign == ("+" if side == "lower" else "-"):
                raise ParseError(f"{sign}inf cannot be the {side} bound at column {start}")
            return None
        if kind == "num":
            try:
                return -Fraction(value) if sign == "-" else Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"malformed interval bound at column {pos}: {exc}") from None
        raise ParseError(f"expected a rational or inf at column {pos}, got {value!r}")


def reference_parse_formula(text: str) -> Formula:
    p = _ReferenceFormulaParser(text)
    node = p.formula(0)
    p.finish()
    return node


def reference_parse_interval_set(text: str) -> IntervalSet:
    p = _ReferenceFormulaParser(text)
    got = p.interval_set()
    p.finish()
    return got


_REFERENCE_TERM_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<iff><=>)
  | proj_(?P<proj>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<num>\d+)
  | (?P<sym>[{}()<>,|:*&=])
""", re.VERBOSE)

_TERM_KEYWORDS = frozenset({"in", "true", "P", "Omega", "Sigma", "R"})


class _ReferenceTermParser(ReferenceCursor):
    token, reserved, error = _REFERENCE_TERM_TOKEN, _TERM_KEYWORDS, LsParseError

    def __init__(self, text: str, signature: Optional[Signature]):
        super().__init__(text)
        self.signature = signature

    # ---- types ---------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        factors = [self.type_atom()]
        while self.at_sym("*"):
            self.next()
            factors.append(self.type_atom())
        return product_type(factors)

    def type_atom(self) -> TypeExpr:
        kind, value, pos = self.next()
        if kind == "num" and value == "1":
            return UNIT
        if kind == "Omega":
            return OMEGA
        if kind == "Sigma":
            return SIGMA
        if kind == "R":
            return RQ
        if kind == "P":
            self.expect("sym", "(")
            inner = self.type_expr()
            self.expect("sym", ")")
            return PowerType(inner)
        if (kind, value) == ("sym", "("):
            inner = self.type_expr()
            self.expect("sym", ")")
            return inner
        if kind == "name":
            return GroundType(value)
        raise LsParseError(f"expected a type at column {pos}, got {value!r}")

    # ---- terms ---------------------------------------------------------
    # term := conj ("<=>" conj)?          bi-implication is Omega equality
    # conj := rel ("&" rel)*
    # rel  := app (("=" | "in") app)?
    # app  := "*" | "true" | name "(" term ")" | name | "<" term {"," term} ">"
    #       | proj_i "(" term ")" | "{" name ":" type "|" term "}" | "(" term ")"

    def term(self) -> Term:
        left = self.conj()
        if self.peek()[0] == "iff":
            self.next()
            return Eq(left, self.conj())
        return left

    def conj(self) -> Term:
        node = self.rel()
        while self.at_sym("&"):
            self.next()
            node = AndT(node, self.rel())
        return node

    def rel(self) -> Term:
        left = self.app()
        kind, value, _ = self.peek()
        if (kind, value) == ("sym", "="):
            self.next()
            return Eq(left, self.app())
        if kind == "in":
            self.next()
            return In(left, self.app())
        return left

    def app(self) -> Term:
        kind, value, pos = self.peek()
        if (kind, value) == ("sym", "*"):
            self.next()
            return STAR
        if kind == "true":
            self.next()
            return TRUE
        if kind == "proj":
            self.next()
            self.expect("sym", "(")
            inner = self.term()
            self.expect("sym", ")")
            return Proj(int(value), inner)
        if (kind, value) == ("sym", "<"):
            self.next()
            items = [self.term()]
            while self.at_sym(","):
                self.next()
                items.append(self.term())
            self.expect("sym", ">")
            if len(items) < 2:
                raise LsParseError(f"tuples need at least two components (column {pos})")
            return Tup(tuple(items))
        if (kind, value) == ("sym", "{"):
            self.next()
            name = self.expect("name")
            self.expect("sym", ":")
            vtype = self.type_expr()
            self.expect("sym", "|")
            body = self.term()
            self.expect("sym", "}")
            return Compr(Var(name, vtype), body)
        if (kind, value) == ("sym", "("):
            self.next()
            inner = self.term()
            self.expect("sym", ")")
            return inner
        if kind == "name":
            self.next()
            if self.at_sym("("):
                if self.signature is not None and value not in self.signature.symbols:
                    raise LsParseError(f"unknown function symbol {value!r} at column {pos}")
                self.next()
                arg = self.term()
                self.expect("sym", ")")
                return App(value, arg)
            return Var(value)
        raise LsParseError(f"expected a term at column {pos}, got {value!r}")


def reference_parse_term(text: str, signature: Optional[Signature] = None) -> Term:
    p = _ReferenceTermParser(text, signature)
    node = p.term()
    p.finish()
    return node


def reference_parse_type(text: str) -> TypeExpr:
    p = _ReferenceTermParser(text, None)
    node = p.type_expr()
    p.finish()
    return node
