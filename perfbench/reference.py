"""Reference computations, written apart from the program under test.

Each function works on the benchmark's own data (the tuple trees and tables
from `gen.py`, or JSON the program printed) and shares no code with
`toposlang`.  The checks raise `Mismatch` on a wrong answer.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


class Mismatch(AssertionError):
    """The program's answer disagrees with the reference computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# -- interval membership from endpoints ------------------------------------------

def in_interval(iv, v: Fraction) -> bool:
    lo, lo_closed, hi, hi_closed = iv
    above = lo is None or lo < v or (lo_closed and lo == v)
    below = hi is None or v < hi or (hi_closed and hi == v)
    return above and below


def in_intervals(ivs, v: Fraction) -> bool:
    return any(in_interval(iv, v) for iv in ivs)


# -- classical per-state evaluator -------------------------------------------------

def classical_truth(f, value_of) -> bool:
    """Two-valued truth of a formula whose leaves are primitives, given
    value_of(quantity) at one state."""
    kind = f[0]
    if kind == "prim":
        return in_intervals(f[2], value_of(f[1]))
    if kind == "not":
        return not classical_truth(f[1], value_of)
    left = classical_truth(f[1], value_of)
    right = classical_truth(f[2], value_of)
    if kind == "and":
        return left and right
    if kind == "or":
        return left or right
    return (not left) or right


def states_satisfying(f, states, tables) -> set:
    return {s for s in states
            if classical_truth(f, lambda q, s=s: tables[q][s])}


# -- truth tables and small Kripke models ------------------------------------------

def _leaves(f) -> list:
    out: list = []

    def walk(n):
        if n[0] in ("atom", "prim"):
            if n not in out:
                out.append(n)
        else:
            for sub in n[1:]:
                walk(sub)

    walk(f)
    return out


def _eval_bool(f, val) -> bool:
    kind = f[0]
    if kind in ("atom", "prim"):
        return val[f]
    if kind == "not":
        return not _eval_bool(f[1], val)
    a, b = _eval_bool(f[1], val), _eval_bool(f[2], val)
    return (a and b) if kind == "and" else (a or b) if kind == "or" else (not a or b)


def is_tautology(f) -> bool:
    leaves = _leaves(f)
    return all(_eval_bool(f, dict(zip(leaves, row)))
               for row in itertools.product((False, True), repeat=len(leaves)))


# Rooted frames on at most three worlds, up to isomorphism, as the bitmask of
# worlds at or above each world.  Forcing at a world depends only on the
# worlds above it, which form a rooted frame, so these frames decide forcing
# in every model on at most three worlds.
SMALL_FRAMES = (
    (0b1,),                 # one world
    (0b11, 0b10),           # w0 < w1
    (0b111, 0b110, 0b100),  # w0 < w1 < w2
    (0b111, 0b010, 0b100),  # w0 < w1, w0 < w2
)


def _upsets(up) -> list:
    n = len(up)
    return [m for m in range(1 << n)
            if all(up[i] & ~m == 0 for i in range(n) if m >> i & 1)]


def _forcing_mask(f, up, val) -> int:
    """Bitmask of the worlds forcing f."""
    kind = f[0]
    if kind in ("atom", "prim"):
        return val[f]
    if kind == "not":
        a = _forcing_mask(f[1], up, val)
        return sum(1 << i for i, u in enumerate(up) if u & a == 0)
    a = _forcing_mask(f[1], up, val)
    b = _forcing_mask(f[2], up, val)
    if kind == "and":
        return a & b
    if kind == "or":
        return a | b
    return sum(1 << i for i, u in enumerate(up) if u & a & ~b == 0)


def small_countermodel(f):
    """First (frame, valuation) on at most three worlds whose root does not
    force f, or None when every such model forces it."""
    leaves = _leaves(f)
    for up in SMALL_FRAMES:
        for choice in itertools.product(_upsets(up), repeat=len(leaves)):
            val = dict(zip(leaves, choice))
            if not _forcing_mask(f, up, val) & 1:
                return up, val
    return None


def check_valid_verdict(f) -> None:
    expect(is_tautology(f), "a formula called valid is not a classical tautology")
    expect(small_countermodel(f) is None,
           "a formula called valid fails in a Kripke model on at most three worlds")


# -- Kripke frames given by the program ---------------------------------------------

def check_countermodel(f, model: dict, fails_at: str) -> None:
    """`model` is the program's JSON form (worlds, strict order pairs,
    valuation by leaf name).  The frame must be a partial order with an
    upward-closed valuation, and the world `fails_at` must not force f."""
    worlds = list(model["worlds"])
    expect(len(set(worlds)) == len(worlds) and fails_at in worlds,
           "countermodel names its worlds inconsistently")
    above = {w: {w} for w in worlds}
    for w, v in model["order"]:
        expect(w in above and v in above and w != v, f"bad order pair {w}<{v}")
        above[w].add(v)
    for w in worlds:
        for v in above[w]:
            expect(above[v] <= above[w], f"order is not transitive at {w}<{v}")
            expect(v == w or w not in above[v], f"order is not antisymmetric at {w},{v}")
    val = {k: set(ws) for k, ws in model["valuation"].items()}
    for k, ws in val.items():
        for w in ws:
            expect(above[w] <= ws, f"valuation of {k} is not upward closed at {w}")

    def forces(w, n) -> bool:
        kind = n[0]
        if kind == "atom":
            return w in val.get(n[1], ())
        if kind == "not":
            return all(not forces(v, n[1]) for v in above[w])
        if kind == "and":
            return forces(w, n[1]) and forces(w, n[2])
        if kind == "or":
            return forces(w, n[1]) or forces(w, n[2])
        if kind == "imp":
            return all(not forces(v, n[1]) or forces(v, n[2]) for v in above[w])
        raise Mismatch(f"cannot evaluate {kind} in a Kripke model")

    expect(not forces(fails_at, f), f"the countermodel forces the formula at {fails_at}")


# -- down-sets of finite posets -----------------------------------------------------

def below_sets(elements, pairs) -> dict:
    """Reflexive-transitive closure: element -> set of elements below it."""
    below = {e: {e} for e in elements}
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if not below[p] <= below[q]:
                below[q] |= below[p]
                changed = True
    return below


def count_down_sets(elements, pairs) -> int:
    below = below_sets(elements, pairs)
    elems = list(elements)
    count = 0
    for mask in range(1 << len(elems)):
        chosen = {e for i, e in enumerate(elems) if mask >> i & 1}
        if all(below[e] <= chosen for e in chosen):
            count += 1
    return count


def count_down_sets_below(elements, pairs, top) -> int:
    """Down-sets of the principal down-set of `top`: the sieves on `top` in
    the poset's category."""
    below = below_sets(elements, pairs)
    inside = below[top]
    return count_down_sets(sorted(inside), [(p, q) for p, q in pairs
                                            if p in inside and q in inside])


# -- finite groups ---------------------------------------------------------------------

def is_abelian_group(elements, add, zero, neg) -> bool:
    """Group laws of a finite table, checked directly."""
    els = list(elements)
    return (all(add[(x, zero)] == x for x in els)
            and all(add[(x, y)] == add[(y, x)] for x in els for y in els)
            and all(add[(add[(x, y)], z)] == add[(x, add[(y, z)])]
                    for x in els for y in els for z in els)
            and all(add[(x, neg[x])] == zero for x in els))


# -- sub-presheaves ----------------------------------------------------------------------

def count_subpresheaves(stages: dict, maps: dict) -> int:
    """Families of subsets, one per object, closed under every restriction
    table; `maps` gives, per arrow, (cod, dom, table) with table: cod -> dom."""
    objects = sorted(stages)
    choices = []
    for obj in objects:
        els = list(stages[obj])
        choices.append([frozenset(e for i, e in enumerate(els) if m >> i & 1)
                        for m in range(1 << len(els))])
    count = 0
    for combo in itertools.product(*choices):
        part = dict(zip(objects, combo))
        if all(table[x] in part[dom] for cod, dom, table in maps.values()
               for x in part[cod]):
            count += 1
    return count
