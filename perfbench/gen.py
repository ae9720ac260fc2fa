"""Seeded input generators for the benchmark.

Every generator takes a `random.Random` and returns plain data owned by the
benchmark: formulas as tuple trees, interval sets as endpoint tuples,
systems as value tables, posets as order pairs.  The printers turn that data
into the concrete syntax the program parses, so the reference computations
in `reference.py` never read anything the program produced.

Formula trees: ("atom", name), ("prim", quantity, intervals), ("not", f),
("and", f, g), ("or", f, g), ("imp", f, g).  An interval is
(lo, lo_closed, hi, hi_closed) with `None` for an unbounded end.
"""
from __future__ import annotations

import random
from fractions import Fraction


def rng_for(seed: int, *parts) -> random.Random:
    """A generator keyed by the seed and a path of labels (string seeding is
    stable across interpreter runs and hash seeds)."""
    return random.Random(":".join(str(p) for p in (seed,) + parts))


# -- formulas -------------------------------------------------------------------

def atom(name):
    return ("atom", name)


def neg(f):
    return ("not", f)


def conj(f, g):
    return ("and", f, g)


def disj(f, g):
    return ("or", f, g)


def imp(f, g):
    return ("imp", f, g)


def _frac_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def interval_text(iv) -> str:
    lo, lo_closed, hi, hi_closed = iv
    left = "(-inf" if lo is None else ("[" if lo_closed else "(") + _frac_text(lo)
    right = "+inf)" if hi is None else _frac_text(hi) + ("]" if hi_closed else ")")
    return f"{left},{right}"


def intervals_text(ivs) -> str:
    return " u ".join(interval_text(iv) for iv in ivs) if ivs else "empty"


def text(f) -> str:
    """Concrete syntax, parenthesized so that no precedence rule is needed."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "prim":
        return f"({f[1]} in {intervals_text(f[2])})"
    if kind == "not":
        return "~" + text(f[1])
    op = {"and": "&", "or": "|", "imp": "->"}[kind]
    return f"({text(f[1])} {op} {text(f[2])})"


def rename(f, suffix: str):
    """Same formula with every atom name suffixed; the sorted order of the
    names, and so the program's search order, is unchanged."""
    if f[0] == "atom":
        return ("atom", f[1] + suffix)
    if f[0] == "prim":
        return f
    return (f[0],) + tuple(rename(sub, suffix) for sub in f[1:])


def random_formula(rng: random.Random, leaves: list, depth: int):
    if depth == 0 or rng.random() < 0.15:
        return rng.choice(leaves)
    kind = rng.choices(("not", "and", "or", "imp"), weights=(2, 3, 3, 4))[0]
    if kind == "not":
        return neg(random_formula(rng, leaves, depth - 1))
    return (kind, random_formula(rng, leaves, depth - 1),
            random_formula(rng, leaves, depth - 1))


def schema(name: str, a, b, c):
    """Propositional schemas; the first group is intuitionistically valid,
    the second classically valid but not intuitionistically."""
    return {
        # intuitionistic theorems
        "K": imp(a, imp(b, a)),
        "S": imp(imp(a, imp(b, c)), imp(imp(a, b), imp(a, c))),
        "and-comm": imp(conj(a, b), conj(b, a)),
        "or-comm": imp(disj(a, b), disj(b, a)),
        "contrapose": imp(imp(a, b), imp(neg(b), neg(a))),
        "dni": imp(a, neg(neg(a))),
        "tne": imp(neg(neg(neg(a))), neg(a)),
        "nn-em": neg(neg(disj(a, neg(a)))),
        "or-elim": imp(conj(imp(a, c), imp(b, c)), imp(disj(a, b), c)),
        "distrib": imp(conj(a, disj(b, c)), disj(conj(a, b), conj(a, c))),
        "or-intro": imp(imp(disj(a, b), c), conj(imp(a, c), imp(b, c))),
        "de-morgan": imp(neg(disj(a, b)), conj(neg(a), neg(b))),
        "de-morgan2": imp(disj(neg(a), neg(b)), neg(conj(a, b))),
        "weaken": imp(imp(imp(a, b), c), imp(b, c)),
        "nn-dne": neg(neg(imp(neg(neg(a)), a))),
        "syllogism": imp(imp(a, b), imp(imp(b, c), imp(a, c))),
        # classical only
        "em": disj(a, neg(a)),
        "peirce": imp(imp(imp(a, b), a), a),
        "dne": imp(neg(neg(a)), a),
        "dummett": disj(imp(a, b), imp(b, a)),
        "wem": disj(neg(a), neg(neg(a))),
        "de-morgan-c": imp(neg(conj(a, b)), disj(neg(a), neg(b))),
        "material": imp(imp(a, b), disj(neg(a), b)),
        "or-from-imp": imp(imp(imp(a, b), b), disj(a, b)),
        "neg-or": imp(imp(neg(a), b), disj(a, b)),
    }[name]


VALID_SCHEMAS = ("K", "S", "and-comm", "or-comm", "contrapose", "dni", "tne", "nn-em",
                 "or-elim", "distrib", "or-intro", "de-morgan", "de-morgan2", "weaken",
                 "nn-dne", "syllogism")
CLASSICAL_SCHEMAS = ("em", "peirce", "dne", "dummett", "wem", "de-morgan-c", "material",
                     "or-from-imp", "neg-or")


def schema_instance(rng: random.Random, names, leaves: list, depth: int):
    a, b, c = (random_formula(rng, leaves, depth) for _ in range(3))
    return schema(rng.choice(names), a, b, c)


def rieger_nishimura(k: int, a):
    """n0 = a & ~a, n1 = a, n2 = ~a, n(2j+3) = n(2j+1) | n(2j+2),
    n(2j+4) = n(2j+3) -> n(2j+1)."""
    n = {0: conj(a, neg(a)), 1: a, 2: neg(a)}
    for i in range(3, k + 1):
        n[i] = disj(n[i - 2], n[i - 1]) if i % 2 else imp(n[i - 1], n[i - 3])
    return n


# -- interval sets and finite-state systems -------------------------------------

def random_intervals(rng: random.Random, points: list, pieces: int):
    """A union of `pieces` intervals whose ends sit on or between the given
    points, with random open/closed ends and the odd unbounded end."""
    pts = sorted(points)
    out = []
    for _ in range(pieces):
        lo = rng.choice(pts) - Fraction(rng.randint(0, 1), 2)
        hi = lo + Fraction(rng.randint(0, 6), 2)
        lo_v = None if rng.random() < 0.1 else lo
        hi_v = None if rng.random() < 0.1 else hi
        out.append((lo_v, lo_v is not None and rng.random() < 0.5,
                    hi_v, hi_v is not None and rng.random() < 0.5))
    return tuple(out)


def random_system(rng: random.Random, n_states: int, n_values: int, offset: int,
                  quantities=("A", "B")):
    """States s0.. with one value table per quantity.  Every table attains
    exactly the same `n_values` values, each shifted by `offset` so that no
    two systems share a value set; the tables differ, so the representation
    stays faithful."""
    states = tuple(f"s{i}" for i in range(n_states))
    values = set()
    while len(values) < n_values:
        values.add(Fraction(rng.randint(-40, 40), rng.randint(1, 4)) + offset)
    values = sorted(values)
    tables = {}
    for q in quantities:
        while True:
            pick = values + [rng.choice(values) for _ in range(n_states - n_values)]
            rng.shuffle(pick)
            table = dict(zip(states, pick))
            if table not in tables.values():
                break
        tables[q] = table
    return states, tables


# -- posets and finite categories ------------------------------------------------

def chain(names):
    return list(names), [(names[i], names[i + 1]) for i in range(len(names) - 1)]


def vee(names):
    a, b, c = names
    return [a, b, c], [(a, b), (a, c)]


def diamond(names):
    a, b, c, d = names
    return [a, b, c, d], [(a, b), (a, c), (b, d), (c, d)]


def two_point(names):
    p, q = names
    return [p, q], [(p, q)]


def _lower_covers(elements, pairs):
    below = {e: {e} for e in elements}
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if not below[p] <= below[q]:
                below[q] |= below[p]
                changed = True
    covers = {q: [p for p in sorted(below[q]) if p != q   # sorted: no hash order
                  and not any(p in below[m] and m != p for m in below[q] - {q})]
              for q in elements}
    return below, covers


def random_poset_presheaf(rng: random.Random, elements, pairs, max_size: int, prefix: str):
    """A functorial presheaf on a poset: stages named <prefix><object><i>, and
    one restriction table per arrow le[p,q] (p < q), from stage q to stage p.
    Each new element at q picks a compatible family of restrictions to the
    lower covers of q, so every path of restrictions agrees."""
    below, covers = _lower_covers(elements, pairs)
    order = sorted(elements, key=lambda e: len(below[e]))
    while True:
        stages, down = {}, {}   # down[(x)] = {p: restriction of x to p}
        ok = True
        for q in order:
            stages[q] = []
            for i in range(rng.randint(1, max_size)):
                x = f"{prefix}{q}{i}"
                lower = covers[q]
                families = []
                for _ in range(50):
                    pick = {c: rng.choice(stages[c]) for c in lower}
                    family = {q: x}
                    fits = True
                    for c, y in pick.items():
                        for p, z in down[y].items():
                            if family.setdefault(p, z) != z:
                                fits = False
                    if fits:
                        families.append(family)
                        break
                if not families:
                    ok = False
                    break
                down[x] = families[0]
                stages[q].append(x)
            if not ok:
                break
        if ok:
            break
    maps = {f"le[{p},{q}]": {x: down[x][p] for x in stages[q]}
            for q in elements for p in below[q] if p != q}
    return stages, maps


def random_idempotent_set(rng: random.Random, size: int, prefix: str):
    """A set with an idempotent endomap: a presheaf on the one-object
    category with a single idempotent arrow."""
    xs = [f"{prefix}{i}" for i in range(size)]
    image = rng.sample(xs, rng.randint(1, size))
    return xs, {x: (x if x in image else rng.choice(image)) for x in xs}
