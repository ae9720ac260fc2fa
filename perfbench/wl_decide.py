"""`decide` workload: parse_formula + decide on a seeded corpus.

Each round holds, in this order:

- a fixed instance of the S axiom on which G4ip splits heavily (see
  `_g4ip_stress`);
- 4 known-answer formulas from the literature (Peirce, excluded middle,
  ~~(a | ~a) and (a -> b) | (b -> c) | (c -> a)) and 14 copies of Dummett's
  (a -> b) | (b -> a), each with its own atom names;
- 40 intuitionistically valid formulas, each the conjunction of five
  schema instances with random depth-2 subformulas over 2-3 atoms;
- 16 classical tautologies on three atoms that are not intuitionistically
  valid and whose smallest countermodel has two worlds (so every search
  goes past one world).  Random ones that need three worlds cost 1.6, 6.5
  or 11 ms by where the search meets them, around the cost of the Dummett
  copies, so they would move the 90th percentile from seed to seed;
- 4 formulas that a one-world model refutes;
- the Rieger-Nishimura implications n10 -> n9 and n11 -> n9 on one atom.
  Their smallest countermodel has more than four worlds, so `decide`
  withholds the verdict with SearchCapExceeded: they are counted as failed.

Atoms are renamed per round (a -> a<r>) so no operation repeats an earlier
input; the names keep their sorted order, so the search order is the same.
"""
from __future__ import annotations

from typing import NamedTuple

import gen
import reference as ref

VALID_PER_ROUND = 40
# Invalid classical tautologies by the size of their smallest countermodel.
MULTIWORLD_PER_ROUND = {2: 16}
ONEWORLD_PER_ROUND = 4
# Renamed copies of Dummett's (a -> b) | (b -> a): the same three-world
# search every time, enough of them that the 90th percentile falls inside
# this group whatever the random formulas of a seed cost.
DUMMETT_PER_ROUND = 14


class Item(NamedTuple):
    formula: tuple
    verdict: str     # "valid", "invalid", or "withheld" (the known fault)


def _g4ip_stress(a, b, c):
    """An instance of the S axiom, (A -> (B -> C)) -> ((A -> B) -> (A -> C)),
    whose disjunctive antecedents make the G4ip search split heavily: about
    0.3 s and 20 MB of memo on a 2-core host.  Random depth-3 subformulas
    produce such cases now and then; one per round keeps their cost in every
    run instead of in the runs of some seeds."""
    A = gen.disj(gen.imp(gen.disj(b, b), gen.disj(c, c)), gen.disj(gen.neg(c), gen.imp(a, b)))
    B = gen.imp(gen.imp(c, gen.neg(b)), gen.imp(gen.disj(c, b), gen.disj(a, b)))
    C = gen.disj(gen.disj(c, gen.imp(a, c)), gen.disj(gen.disj(a, b), gen.imp(b, c)))
    return gen.schema("S", A, B, C)


def _known(r: int) -> list:
    a, b, c = (gen.atom(x) for x in "abc")
    rn = gen.rieger_nishimura(11, a)
    items = [
        Item(_g4ip_stress(a, b, c), "valid"),
        Item(gen.imp(gen.imp(gen.imp(a, b), a), a), "invalid"),
        Item(gen.disj(a, gen.neg(a)), "invalid"),
        Item(gen.neg(gen.neg(gen.disj(a, gen.neg(a)))), "valid"),
        Item(gen.disj(gen.disj(gen.imp(a, b), gen.imp(b, c)), gen.imp(c, a)), "invalid"),
    ]
    dummett = gen.disj(gen.imp(a, b), gen.imp(b, a))
    withheld = [Item(gen.imp(rn[10], rn[9]), "withheld"),
                Item(gen.imp(rn[11], rn[9]), "withheld")]
    suffix = str(r)
    return ([Item(gen.rename(i.formula, suffix), i.verdict) for i in items]
            + [Item(gen.rename(dummett, f"{r}x{k}"), "invalid")
               for k in range(DUMMETT_PER_ROUND)],
            [Item(gen.rename(i.formula, suffix), i.verdict) for i in withheld])


def corpus(seed: int, r: int) -> list:
    rng = gen.rng_for(seed, "decide", r)
    known, withheld = _known(r)
    out = list(known)
    for i in range(VALID_PER_ROUND):
        leaves = [gen.atom(x) for x in ("ab" if i % 3 == 0 else "abc")]
        f = gen.schema_instance(rng, gen.VALID_SCHEMAS, leaves, 2)
        for _ in range(4):
            f = gen.conj(f, gen.schema_instance(rng, gen.VALID_SCHEMAS, leaves, 2))
        out.append(Item(f, "valid"))
    need = dict(MULTIWORLD_PER_ROUND)
    while any(need.values()):
        leaves = [gen.atom(x) for x in "abc"]
        f = gen.schema_instance(rng, gen.CLASSICAL_SCHEMAS, leaves, 1)
        found = ref.small_countermodel(f)
        if found is not None and need.get(len(found[0])):
            need[len(found[0])] -= 1
            out.append(Item(f, "invalid"))
    made = 0
    while made < ONEWORLD_PER_ROUND:
        f = gen.random_formula(rng, [gen.atom(x) for x in "abc"], 4)
        if not ref.is_tautology(f):
            out.append(Item(f, "invalid"))
            made += 1
    return out + withheld


class Workload:
    trace_rounds = 3
    ops_per_round = 5 + DUMMETT_PER_ROUND + VALID_PER_ROUND \
        + sum(MULTIWORLD_PER_ROUND.values()) + ONEWORLD_PER_ROUND + 2

    def __init__(self, seed: int, out_dir):
        self.seed = seed

    def setup(self) -> None:
        # Functions are looked up on their modules at call time, so that the
        # traced run's rebinding reaches them.
        import toposlang.prop.decide as decide
        import toposlang.prop.syntax as syntax
        self.mod, self.syntax = decide, syntax
        self.withheld_error = decide.SearchCapExceeded
        # Lazy set-up a library user pays once per process: the labelled
        # posets behind the countermodel search.  The Rieger-Nishimura
        # implication n9 -> n7 on an atom no round uses has a four-world
        # countermodel that the search finds quickly.
        rn = gen.rieger_nishimura(9, gen.atom("w"))
        self.run(gen.text(gen.imp(rn[9], rn[7])))

    def run(self, source: str):
        return self.mod.decide(self.syntax.parse_formula(source))

    def ops(self, r: int, traced: bool = False) -> list:
        out = []
        for item in corpus(self.seed, r):
            source = gen.text(item.formula)
            out.append((f"decide:{item.verdict}",
                        lambda s=source: self.run(s),
                        lambda got, i=item: self.check(i, got),
                        self.withheld_error if item.verdict == "withheld" else None))
        return out

    @staticmethod
    def check(item: Item, got) -> None:
        if got.valid:
            ref.expect(item.verdict == "valid", "an invalid formula was called valid")
            ref.check_valid_verdict(item.formula)
            return
        ref.expect(item.verdict != "valid", "a valid formula was called invalid")
        ref.check_countermodel(item.formula, got.countermodel.to_json(), got.fails_at)
