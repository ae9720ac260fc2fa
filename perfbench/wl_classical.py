"""`classical` workload: the paper's classical case, one seeded finite-state
system per operation, answered through both languages.

- PL(S): `classical_rep(system).represent(formula)` and `truth_value` at
  every state.
- L(S): `EffectiveClassicalRep.build(system).preimage(q, delta)` for two
  interval sets on one quantity (the first pays for the power object of the
  value stage, the second reuses the cached proposition family).

Every system has two quantities A and B attaining the same values (shifted
per operation, so no two operations share a value stage).  A round is the
fixed list of (states, attained values) sizes below; the sizes sit on both
sides of the 128- and 256-element eager-table limits in `heyting`.
"""
from __future__ import annotations

import gen
import reference as ref

# (states, attained values) per operation of a round.  Costs on a 2-core
# host: (5, 4) 30 ms, (5, 5) 50 ms, (6, 4) 95 ms, (6, 6) 140 ms, (8, 5)
# 190 ms, (8, 6) 290 ms, (7, 7) 600 ms, (9, 8) 900 ms.  The counts put the
# median inside the 14 (8, 5) operations and the 90th percentile inside the
# 6 (8, 6) ones, not in a gap between sizes.
SLOTS = ((5, 4),) * 3 + ((5, 5),) * 3 + ((6, 4),) * 3 + ((6, 6),) * 3 + ((8, 5),) * 14 \
    + ((8, 6),) * 6 + ((7, 7),) + ((9, 8),)


class Workload:
    trace_rounds = 1
    ops_per_round = len(SLOTS)

    def __init__(self, seed: int, out_dir):
        self.seed = seed

    def setup(self) -> None:
        # Functions are looked up on their modules at call time, so that the
        # traced run's rebinding reaches them.
        import toposlang.prop.semantics as semantics
        import toposlang.prop.syntax as syntax
        import toposlang.rep as rep
        self.semantics, self.syntax, self.rep = semantics, syntax, rep

    def ops(self, r: int, traced: bool = False) -> list:
        rng = gen.rng_for(self.seed, "classical", r)
        out = []
        for i, (n_states, n_values) in enumerate(SLOTS):
            offset = 1000 * (r * len(SLOTS) + i + 1)
            states, tables = gen.random_system(rng, n_states, n_values, offset)
            points = sorted(set(tables["A"].values()))
            prims = [("prim", q, gen.random_intervals(rng, points, rng.randint(1, 2)))
                     for q in ("A", "B", "A", "B")]
            formula = gen.random_formula(rng, prims, 3)
            q = rng.choice(("A", "B"))
            deltas = [gen.random_intervals(rng, points, rng.randint(1, 3)) for _ in range(2)]
            case = (states, tables, formula, q, deltas)
            out.append((f"classical:{n_states}x{n_values}",
                        lambda c=case: self.run(*c),
                        lambda got, c=case: self.check(got, *c), None))
        return out

    def run(self, states, tables, formula, q, deltas):
        sem, syntax = self.semantics, self.syntax
        system = sem.ClassicalSystem(states, tables)
        parsed = syntax.parse_formula(gen.text(formula))
        element = sem.classical_rep(system).represent(parsed)
        truths = [sem.truth_value(parsed, s, system) for s in states]
        effective = self.rep.EffectiveClassicalRep.build(system)
        images = [effective.preimage(q, syntax.parse_interval_set(gen.intervals_text(d)))
                  for d in deltas]
        return element, truths, images

    @staticmethod
    def check(got, states, tables, formula, q, deltas) -> None:
        element, truths, images = got
        expected = ref.states_satisfying(formula, states, tables)
        ref.expect(set(element) == expected, "represent gave the wrong state set")
        ref.expect([s in expected for s in states] == [t == 1 for t in truths],
                   "truth_value disagrees with the reference evaluator")
        for d, image in zip(deltas, images):
            want = {s for s in states if ref.in_intervals(d, tables[q][s])}
            ref.expect(set(image) == want, "preimage gave the wrong state set")
