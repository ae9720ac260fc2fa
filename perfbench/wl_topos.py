"""`topos` workload: the presheaf kit over small bases.

Bases: chains of 3 to 8 points, the vee, the diamond, the two-point poset
and the one-object category with an idempotent arrow.  Every operation
builds its base and presheaves with names no earlier operation used, so the
process-wide caches on `classifier_kit` and `exponential` never answer for
it.  The operation kinds, in the proportions of `SLOTS`:

- `classifier`: `classifier_kit`; |Omega(A)| must equal the number of
  down-sets of the principal down-set of A (3 sieves on the monoid's object);
- `sieves`: `sieve_heyting` on the top object, same count;
- `subalg`: `sub_heyting` of a presheaf; its size must equal the reference
  count of restriction-closed families;
- `classify`: Sub(X) with the `char_morphism` / `subobject_of_char` round trip,
  as `toposlang sub classify` does; |Sub(X)| must equal |Hom(X, Omega)| and
  the reference count;
- `power`: `power_object` of a plain set of 6 elements; |P X| must be 2^|X|;
- `terms`: `interpret_term` on a membership, an equality and a comprehension
  term in a set-backend representation, and the power transpose of the
  membership arrow, checked value by value;
- `axioms`: `validate_axioms` with the abelian pack on Z_n, n = 3, 4, 5
  (must pass) and on a table that is not a group (must fail).
"""
from __future__ import annotations

import itertools
import gen
import reference as ref

# (kind, size) per operation of a round; the size is |X| for `power` and n
# for `axioms`.  On a 2-core host: five light operations (under 1.5 ms), ten
# between 2 and 8 ms, and the abelian pack on Z_4 three times (about 14 ms)
# with Z_5 (about 27 ms) once above it, so the median falls inside the middle
# group and the 90th percentile inside the Z_4 group, not in a gap between
# kinds.
SLOTS = (("classifier", None),) * 2 + (("sieves", None),) * 2 + (("subalg", None),) \
    + (("power", 6),) * 2 + (("classify", None),) * 4 + (("terms", None),) * 4 \
    + (("axioms", 3),) + (("axioms", 4),) * 3 + (("axioms", 5),)

# Bases for the presheaf kinds, and the larger ones for `classifier` and
# `sieves`, whose sieve scans grow as 2^(arrows into an object).
SHAPES = ("chain3", "chain4", "vee", "diamond", "two_point", "monoid")
BIG_SHAPES = ("chain6", "chain7", "chain8", "diamond", "vee", "monoid")


class Workload:
    trace_rounds = 20
    ops_per_round = len(SLOTS)

    def __init__(self, seed: int, out_dir):
        self.seed = seed

    def setup(self) -> None:
        import toposlang.category as category
        import toposlang.local as local
        import toposlang.presheaf as presheaf
        import toposlang.rep as rep
        self.category, self.presheaf, self.rep, self.local = category, presheaf, rep, local

    # -- inputs -------------------------------------------------------------------

    def _poset(self, rng, shape: str, tag: str):
        if shape.startswith("chain"):
            n = int(shape[-1])
            return gen.chain([f"{tag}c{i}" for i in range(n)])
        if shape == "vee":
            return gen.vee([f"{tag}v{i}" for i in range(3)])
        if shape == "diamond":
            return gen.diamond([f"{tag}d{i}" for i in range(4)])
        return gen.two_point([f"{tag}p", f"{tag}q"])

    def _monoid(self, tag: str):
        C = self.category
        x, one, e = f"{tag}x", f"id[{tag}x]", f"{tag}e"
        mors = [C.Morphism(one, x, x), C.Morphism(e, x, x)]
        comp = {(one, one): one, (one, e): e, (e, one): e, (e, e): e}
        return C.FiniteCategory([x], mors, {x: one}, comp), x, e

    def _base_and_presheaf(self, rng, shape, tag, max_size):
        """(category, presheaf, stages, maps for the reference)."""
        P = self.presheaf
        if shape == "monoid":
            cat, x, e = self._monoid(tag)
            xs, endo = gen.random_idempotent_set(rng, rng.randint(1, max_size + 1), f"{tag}m")
            return cat, P.Presheaf(cat, {x: xs}, {e: endo}), {x: xs}, {e: (x, x, endo)}
        elements, pairs = self._poset(rng, shape, tag)
        cat = self.category.from_poset(elements, pairs)
        stages, maps = gen.random_poset_presheaf(rng, elements, pairs, max_size, f"{tag}_")
        ref_maps = {mid: (mid[3:-1].split(",")[1], mid[3:-1].split(",")[0], table)
                    for mid, table in maps.items()}
        return cat, P.Presheaf(cat, stages, maps), stages, ref_maps

    def ops(self, r: int, traced: bool = False) -> list:
        rng = gen.rng_for(self.seed, "topos", r)
        out = []
        for i, (kind, size) in enumerate(SLOTS):
            run, check = getattr(self, f"_case_{kind}")(rng, f"r{r}o{i}", size)
            out.append((f"topos:{kind}", run, check, None))
        return out

    # -- operation kinds -----------------------------------------------------------

    def _case_classifier(self, rng, tag, size):
        shape = rng.choice(BIG_SHAPES)
        if shape == "monoid":
            cat, x, _ = self._monoid(tag)
            want = {x: 3}
        else:
            elements, pairs = self._poset(rng, shape, tag)
            cat = self.category.from_poset(elements, pairs)
            want = {obj: ref.count_down_sets_below(elements, pairs, obj) for obj in elements}

        def run():
            kit = self.presheaf.classifier_kit(cat)
            return {obj: len(kit.omega.stage(obj)) for obj in cat.objects}

        return run, lambda got: ref.expect(got == want, "|Omega(A)| is not the down-set count")

    def _case_sieves(self, rng, tag, size):
        shape = rng.choice(BIG_SHAPES)
        if shape == "monoid":
            cat, top, _ = self._monoid(tag)
            want = 3
        else:
            elements, pairs = self._poset(rng, shape, tag)
            cat = self.category.from_poset(elements, pairs)
            top = elements[-1]
            want = ref.count_down_sets_below(elements, pairs, top)

        def run():
            return len(self.category.sieve_heyting(cat, top))

        return run, lambda got: ref.expect(got == want, "sieve algebra has the wrong size")

    def _case_subalg(self, rng, tag, size):
        shape = rng.choice(SHAPES)
        cat, x, stages, maps = self._base_and_presheaf(rng, shape, tag, 2)
        want = ref.count_subpresheaves(stages, maps)
        return (lambda: len(self.presheaf.sub_heyting(x).algebra),
                lambda got: ref.expect(got == want, "Sub(X) algebra has the wrong size"))

    def _case_classify(self, rng, tag, size):
        shape = rng.choice(SHAPES)
        cat, x, stages, maps = self._base_and_presheaf(rng, shape, tag, 3)
        want = ref.count_subpresheaves(stages, maps)
        P = self.presheaf

        def run():
            subs = P.enumerate_subobjects(x)
            homs = P.enumerate_nats(x, P.classifier_kit(x.base).omega)
            round_trip = all(P.subobject_of_char(P.char_morphism(k)) == k for k in subs)
            return len(subs), len(homs), round_trip

        def check(got):
            n_subs, n_homs, round_trip = got
            ref.expect(n_subs == want, "|Sub(X)| is not the reference count")
            ref.expect(n_homs == n_subs, "|Hom(X, Omega)| differs from |Sub(X)|")
            ref.expect(round_trip, "the characteristic-arrow round trip failed")

        return run, check

    def _case_power(self, rng, tag, size):
        C, P = self.category, self.presheaf
        pt = C.one_object_category(f"{tag}pt")
        x = P.Presheaf(pt, {f"{tag}pt": [f"{tag}e{j}" for j in range(size)]}, {})

        def run():
            px = P.power_object(x)
            return len(px.stage(f"{tag}pt"))

        return run, lambda got: ref.expect(got == 2 ** size, "|P X| is not 2^|X|")

    def _set_rep(self, tag, states, values, table, extra=None):
        C, P, L = self.category, self.presheaf, self.local
        pt = C.one_object_category(f"{tag}pt")
        obj = pt.objects[0]
        sigma = P.Presheaf(pt, {obj: states}, {})
        rval = P.Presheaf(pt, {obj: values}, {})
        signature = L.Signature({"A": (L.SIGMA, L.RQ)})
        arrows = {"A": P.NatTransform(sigma, rval, {obj: table})}
        if extra is not None:
            signature = L.pack_signature(signature, extra)
        return pt, obj, sigma, rval, signature, arrows

    def _case_terms(self, rng, tag, size):
        states = [f"{tag}s{j}" for j in range(rng.randint(3, 5))]
        values = [f"{tag}v{j}" for j in range(rng.randint(3, 4))]
        table = {s: rng.choice(values) for s in states}
        R, L = self.rep, self.local

        def run():
            pt, obj, sigma, rval, signature, arrows = self._set_rep(tag, states, values, table)
            rep = R.build_rep(signature, pt, {"Sigma": sigma, "R": rval}, arrows)
            member = R.interpret_term(L.parse_term("A(s) in D", signature),
                                      (("s", L.SIGMA), ("D", L.PowerType(L.RQ))), rep)
            equal = R.interpret_term(L.parse_term("A(s) = A(t)", signature),
                                     (("s", L.SIGMA), ("t", L.SIGMA)), rep)
            compr = R.interpret_term(L.parse_term("{ s : Sigma | A(s) in D }", signature),
                                     (("D", L.PowerType(L.RQ)),), rep)
            flipped = R.interpret_term(L.parse_term("A(s) in D", signature),
                                       (("D", L.PowerType(L.RQ)), ("s", L.SIGMA)), rep)
            named = self.presheaf.power_transpose(
                flipped, R.interpret_type(L.PowerType(L.RQ), rep), sigma)
            top = frozenset([pt.id_of(obj)])
            return ([(env, member.apply(obj, env) == top) for env in member.source.stage(obj)],
                    [(env, equal.apply(obj, env) == top) for env in equal.source.stage(obj)],
                    [(env, compr.apply(obj, env), named.apply(obj, env[0]))
                     for env in compr.source.stage(obj)])

        def decode(element):
            """A power-object element of a set is a tuple of cells
            ((stage, arrow, x), truth); the subset is the x with truth held."""
            return {cell[0][2] for cell in element if cell[1]}

        def check(got):
            member, equal, compr = got
            ref.expect(len(member) == len(states) * 2 ** len(values),
                       "membership arrow has the wrong source")
            for (s, d), holds in member:
                ref.expect(holds == (table[s] in decode(d)), "membership term is wrong")
            ref.expect(len(equal) == len(states) ** 2, "equality arrow has the wrong source")
            for (s, t), holds in equal:
                ref.expect(holds == (table[s] == table[t]), "equality term is wrong")
            ref.expect(len(compr) == 2 ** len(values), "comprehension has the wrong source")
            for (d,), subset, transposed in compr:
                ref.expect(decode(subset) == {s for s in states if table[s] in decode(d)},
                           "comprehension term is wrong")
                ref.expect(decode(transposed) == decode(subset),
                           "power transpose of membership differs from the comprehension")

        return run, check

    def _case_axioms(self, rng, tag, n):
        values = [f"{tag}z{j}" for j in range(n)]
        add = {(values[a], values[b]): values[(a + b) % n] for a in range(n) for b in range(n)}
        neg = {values[a]: values[(-a) % n] for a in range(n)}
        bad = dict(add)
        a, b = rng.randrange(1, n), rng.randrange(1, n)
        bad[(values[a], values[b])] = values[(a + b + 1) % n]
        want = (ref.is_abelian_group(values, add, values[0], neg),
                ref.is_abelian_group(values, bad, values[0], neg))
        R, L, P = self.rep, self.local, self.presheaf

        def run():
            pack = L.abelian_axiom_pack()
            verdicts = []
            for table in (add, bad):
                pt, obj, sigma, rval, signature, arrows = self._set_rep(
                    tag, [f"{tag}s"], values, {f"{tag}s": values[0]}, extra=pack)
                unit = P.Presheaf(pt, {obj: [()]}, {})
                pairs = P.Presheaf(pt, {obj: list(itertools.product(values, values))}, {})
                arrows["zero"] = P.NatTransform(unit, rval, {obj: {(): values[0]}})
                arrows["add"] = P.NatTransform(pairs, rval, {obj: table})
                arrows["neg"] = P.NatTransform(rval, rval, {obj: neg})
                rep = R.ToposRep(signature, pt, {"Sigma": sigma, "R": rval}, arrows,
                                 pack.sequents)
                verdicts.append(R.validate_axioms(rep).ok)
            return tuple(verdicts)

        return run, lambda got: ref.expect(got == want == (True, False),
                                           "abelian pack verdicts are wrong")
