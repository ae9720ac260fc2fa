import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from helpers import (
    all_orders_countermodel,
    brute_countermodel,
    decide_corpus,
    reference_is_provable,
    scalar_countermodel,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toposlang.errors import CapExceeded, InputError
import toposlang.prop.decide as decide_module
from toposlang.prop.decide import (
    _ATOM,
    PLANE_BITS,
    PRUNE_WORLDS,
    Decision,
    SearchCapExceeded,
    _block,
    _frames,
    _layout,
    _Table,
    _translate,
    _width,
    decide,
    find_countermodel,
    is_provable,
)
from toposlang.prop.kripke import KripkeModel
from toposlang.prop.proofs import SCHEMAS, check_proof, double_negated_excluded_middle_proof, instantiate
from toposlang.prop.syntax import And, Atom, Implies, Not, Or, leaf_key, leaves, parse_formula

A, B, C = Atom("a"), Atom("b"), Atom("c")

VALID = [
    "a -> a",
    "a -> b -> a",
    "(a -> b -> c) -> (a -> b) -> a -> c",
    "a & b -> a",
    "a & b -> b",
    "a -> b -> a & b",
    "a -> a | b",
    "b -> a | b",
    "(a -> c) -> (b -> c) -> a | b -> c",
    "(a -> b) -> (a -> ~b) -> ~a",
    "~a -> a -> b",
    "~~(a | ~a)",
    "(a -> b) -> ~b -> ~a",
    "~~~a -> ~a",
]

INVALID = [
    "a | ~a",
    "((a -> b) -> a) -> a",
    "~~a -> a",
    "(a -> b) | (b -> a)",
    "a",
]


@pytest.mark.parametrize("text", VALID)
def test_valid_formulas(text):
    assert decide(parse_formula(text)) == Decision(valid=True)


@pytest.mark.parametrize("text", INVALID)
def test_invalid_formulas_get_confirmed_countermodels(text):
    verdict = decide(parse_formula(text))
    assert not verdict.valid
    model, world = verdict.countermodel, verdict.fails_at
    assert len(model.worlds) <= 4
    assert not model.forces(world, parse_formula(text))


def test_peirce_countermodel_has_two_worlds():
    verdict = decide(parse_formula("((a -> b) -> a) -> a"))
    assert len(verdict.countermodel.worlds) == 2


def test_excluded_middle_countermodel_has_two_worlds():
    verdict = decide(parse_formula("a | ~a"))
    assert len(verdict.countermodel.worlds) == 2


def test_kripke_model_validation_and_monotonicity():
    with pytest.raises(InputError):
        KripkeModel(("w0",), frozenset(), {})
    with pytest.raises(InputError):
        KripkeModel(("w0", "w1"),
                    frozenset({("w0", "w0"), ("w1", "w1"), ("w0", "w1")}),
                    {"a": frozenset({"w0"})})  # not up-closed
    m = KripkeModel(("w0", "w1"),
                    frozenset({("w0", "w0"), ("w1", "w1"), ("w0", "w1")}),
                    {"a": frozenset({"w1"})})
    assert not m.forces("w0", parse_formula("a | ~a"))
    assert m.forces("w1", parse_formula("a"))
    assert m.forces("w0", parse_formula("~~a"))


def test_kripke_model_refuses_an_order_that_is_not_transitive():
    # without (w0, w2), w0 would force ~a while the later w1 does not
    worlds = ("w0", "w1", "w2")
    order = frozenset({("w0", "w0"), ("w1", "w1"), ("w2", "w2"), ("w0", "w1"), ("w1", "w2")})
    with pytest.raises(InputError, match=r"not transitive: \('w0', 'w1'\) and \('w1', 'w2'\) "
                                         r"without \('w0', 'w2'\)"):
        KripkeModel(worlds, order, {"a": frozenset({"w2"})})
    KripkeModel(worlds, order | {("w0", "w2")}, {"a": frozenset({"w2"})})


def test_kripke_model_refuses_a_valuation_outside_its_worlds():
    with pytest.raises(InputError, match=r"^valuation of 'a' names unknown world 'w9'$"):
        KripkeModel(("w0",), frozenset({("w0", "w0")}), {"a": frozenset({"w9"})})


def test_kripke_model_refuses_an_order_that_is_not_antisymmetric():
    order = frozenset({("w0", "w0"), ("w1", "w1"), ("w0", "w1"), ("w1", "w0")})
    with pytest.raises(InputError, match=r"^world order is not antisymmetric: 'w0' and 'w1' "
                                         r"lie below each other$"):
        KripkeModel(("w0", "w1"), order, {})


def test_decide_consistent_with_proof_checker():
    # every schema instance is decided valid; the certified ~~(a|~a) proof's
    # conclusion is decided valid; nothing invalid has an accepted proof
    for name, pattern in SCHEMAS.items():
        inst = instantiate(pattern, {"?a": A, "?b": B, "?c": C})
        assert is_provable(inst), name
    dn = double_negated_excluded_middle_proof(A)
    assert check_proof(dn).accepted and is_provable(dn.conclusion)


def test_concrete_primitives_are_opaque_atoms():
    # distinct interval sets give distinct letters: no hidden arithmetic
    f = parse_formula("A in [0,1] | ~A in [0,1]")
    assert not decide(f).valid
    g = parse_formula("A in [0,1] -> A in [0,2]")
    assert not decide(g).valid  # no interval reasoning inside the logic engine


def test_cap_exceeded_is_reported_never_guessed():
    # provably-unprovable formula whose countermodel needs more than 1 world
    with pytest.raises(SearchCapExceeded):
        decide(parse_formula("a | ~a"), max_worlds=1)


def test_nonpositive_world_bound_is_an_input_error_before_any_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched despite an out-of-range bound")
    monkeypatch.setattr(decide_module, "is_provable", no_search)
    monkeypatch.setattr(decide_module, "find_countermodel", no_search)
    for bound in (0, -2):
        with pytest.raises(InputError, match=f"at least 1, got {bound}") as err:
            decide(parse_formula("a | ~a"), max_worlds=bound)
        assert not isinstance(err.value, CapExceeded)


def test_poset_scan_past_five_worlds_is_refused_before_it_starts():
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"over 6 worlds is past the limit of 5 worlds; lower --max-worlds to 5"):
        _frames(6)
    assert time.perf_counter() - start < 0.5


def test_classical_but_not_intuitionistic_distinctions():
    # weak excluded middle fails, its double negation holds
    assert not decide(parse_formula("~a | ~~a")).valid
    assert decide(parse_formula("~~(~a | ~~a)")).valid


def test_find_countermodel_none_for_valid():
    assert find_countermodel(parse_formula("a -> a"), max_worlds=2) is None


def test_random_agreement_between_search_and_bounded_models():
    # sampled formulas: if the prover says valid, no <=3-world countermodel
    # may exist; if invalid, decide() must confirm one
    rng = random.Random(5)

    def gen(depth):
        if depth == 0 or rng.random() < 0.35:
            return rng.choice([A, B, C])
        k = rng.randrange(4)
        if k == 0:
            return Not(gen(depth - 1))
        cls = [And, Or, Implies][k - 1]
        return cls(gen(depth - 1), gen(depth - 1))

    for _ in range(60):
        f = gen(3)
        if is_provable(f):
            assert find_countermodel(f, max_worlds=3) is None
        else:
            verdict = decide(f)
            assert not verdict.countermodel.forces(verdict.fails_at, f)


def test_countermodel_upset_algebra_matches_forcing():
    # the up-sets of a Kripke frame form a Heyting algebra in which the
    # algebraic value of a formula is exactly its forcing set; the three
    # routes (prover, forcing evaluator, algebra semantics) must cohere
    from toposlang.heyting import lower_set_algebra
    from toposlang.prop.semantics import pl_represent
    from toposlang.prop.syntax import leaf_key, leaves

    texts = ["a | ~a", "((a -> b) -> a) -> a", "~~a -> a", "(a -> b) | (b -> a)"]
    for text in texts:
        f = parse_formula(text)
        verdict = decide(f)
        assert not verdict.valid
        model = verdict.countermodel
        reversed_pairs = [(v, w) for (w, v) in model.order if w != v]
        upsets = lower_set_algebra(model.worlds, reversed_pairs)
        assignment = {leaf: frozenset(model.valuation.get(leaf_key(leaf), frozenset()))
                      for leaf in leaves(f)}
        value = pl_represent(f, assignment, upsets)
        forced = frozenset(w for w in model.worlds if model.forces(w, f))
        assert value == forced
        assert verdict.fails_at not in value
        assert value != upsets.top


def test_provable_formulas_are_top_in_every_small_algebra():
    # soundness of the prover against algebra semantics, on random formulas
    from toposlang.heyting import lower_set_algebra, open_set_algebra, powerset_algebra
    from toposlang.prop.semantics import pl_represent
    from toposlang.prop.syntax import leaves

    algebras = [
        powerset_algebra([1, 2]),
        open_set_algebra([frozenset(), frozenset({1}), frozenset({1, 2})]),
        lower_set_algebra(["p", "q", "r"], [("p", "q"), ("q", "r")]),
    ]
    rng = random.Random(13)

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice([A, B])
        k = rng.randrange(4)
        if k == 0:
            return Not(gen(depth - 1))
        return [And, Or, Implies][k - 1](gen(depth - 1), gen(depth - 1))

    provable_seen = 0
    for _ in range(150):
        f = gen(3)
        if not is_provable(f):
            continue
        provable_seen += 1
        for alg in algebras:
            for _ in range(5):
                assignment = {leaf: rng.choice(alg.elements) for leaf in leaves(f)}
                assert pl_represent(f, assignment, alg) == alg.top
    assert provable_seen >= 10


# -- the bitmask countermodel search against the string-keyed oracle -----------

def _found(result):
    return None if result is None else (result[0].to_json(), result[1])


def _rieger_nishimura(k, a):
    """n0 = a & ~a, n1 = a, n2 = ~a, n(2j+3) = n(2j+1) | n(2j+2),
    n(2j+4) = n(2j+3) -> n(2j+1)."""
    n = {0: And(a, Not(a)), 1: a, 2: Not(a)}
    for i in range(3, k + 1):
        n[i] = Or(n[i - 2], n[i - 1]) if i % 2 else Implies(n[i - 1], n[i - 3])
    return n


RN = _rieger_nishimura(11, A)
PRIM = parse_formula("A in [0,1]")  # its key sorts before the atoms'


def formulas(max_leaves=8):
    leaf = st.sampled_from([A, B, PRIM])
    return st.recursive(leaf, lambda sub: st.one_of(
        st.builds(Not, sub), st.builds(And, sub, sub),
        st.builds(Or, sub, sub), st.builds(Implies, sub, sub)), max_leaves=max_leaves)


@settings(max_examples=150, deadline=None)
@given(formulas(), st.integers(1, 4))
def test_countermodel_search_matches_the_forcing_oracle(formula, max_worlds):
    found = find_countermodel(formula, max_worlds=max_worlds)
    assert _found(found) == _found(brute_countermodel(formula, max_worlds=max_worlds))
    if found is not None:
        # a failing world's up-set would be a smaller countermodel, so the
        # first one found fails only at its least world
        model, world = found
        assert set(model.above(world)) == set(model.worlds)
        assert [w for w in model.worlds if not model.forces(w, formula)] == [world]


@settings(max_examples=500, deadline=None)
@given(formulas(), st.integers(1, 4))
def test_rooted_search_matches_the_all_orders_scan(formula, max_worlds):
    assume(not is_provable(formula))
    assert _found(find_countermodel(formula, max_worlds=max_worlds)) == \
        _found(all_orders_countermodel(formula, max_worlds=max_worlds))


@pytest.mark.parametrize("formula, worlds", [
    (parse_formula("((a -> b) -> a) -> a"), 2),
    (parse_formula("(a -> b) | (b -> a)"), 3),
    (parse_formula("(a -> b) | (b -> c) | (c -> a)"), 4),
    (Implies(RN[9], RN[7]), 4),
], ids=["peirce", "dummett", "three-cycle", "rn-n9-n7"])
def test_known_countermodels_match_the_forcing_oracle(formula, worlds):
    found = find_countermodel(formula, max_worlds=4)
    assert len(found[0].worlds) == worlds
    assert _found(found) == _found(brute_countermodel(formula, max_worlds=4))


@pytest.mark.parametrize("high", [10, 11], ids=["rn-n10-n9", "rn-n11-n9"])
def test_five_world_countermodels_match_the_all_orders_scan(high):
    formula = Implies(RN[high], RN[9])
    assert find_countermodel(formula, max_worlds=4) is None
    found = find_countermodel(formula, max_worlds=5)
    assert len(found[0].worlds) == 5
    assert _found(found) == _found(all_orders_countermodel(formula, max_worlds=5))


# -- the interned, pruned G4ip search against the tuple-form prover -------------

def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    k = rng.randrange(4)
    if k == 0:
        return Not(_random_formula(rng, atoms, depth - 1))
    return [And, Or, Implies][k - 1](_random_formula(rng, atoms, depth - 1),
                                      _random_formula(rng, atoms, depth - 1))


def _wide(text):
    """The formula over a13, a14 and a3 instead of a, b and c, or'ed with the
    conjunction of a1..a12: 14 atoms, so the truth tables wrap atoms 13 and
    14 onto the columns of a1 and a2, and every verdict stays the same."""
    named = text.replace("a", "a13").replace("b", "a14").replace("c", "a3")
    return f"({named}) | ({' & '.join(f'a{i}' for i in range(1, 13))})"


def test_pruned_search_matches_reference():
    texts = [text for seed in (101, 102, 103) for text in decide_corpus(seed, 0)]
    texts += [_wide(text) for text in VALID + INVALID]
    formulas = [parse_formula(text) for text in texts]
    rng = random.Random(2024)
    atoms = [Atom(x) for x in "abcd"]
    formulas += [_random_formula(rng, atoms[:1 + i % 4], 4) for i in range(2000)]
    verdicts = [is_provable(f) for f in formulas]
    assert verdicts == [reference_is_provable(f) for f in formulas]
    wide = verdicts[3 * 81:3 * 81 + len(VALID) + len(INVALID)]
    assert wide == [True] * len(VALID) + [False] * len(INVALID)


# The S-axiom instance of the `decide` benchmark workload on which the search
# without truth tables visits tens of thousands of sequents.
STRESS = ("(((((b | b) -> (c | c)) | (~c | (a -> b))) -> (((c -> ~b) -> ((c | b) -> (a | b)))"
          " -> ((c | (a -> c)) | ((a | b) | (b -> c))))) -> (((((b | b) -> (c | c)) | (~c | (a -> b)))"
          " -> ((c -> ~b) -> ((c | b) -> (a | b)))) -> ((((b | b) -> (c | c)) | (~c | (a -> b)))"
          " -> ((c | (a -> c)) | ((a | b) | (b -> c))))))")

COUNT_SCRIPT = """
import sys
import toposlang.prop.decide as decide
from toposlang.prop.syntax import parse_formula
calls = 0
search = decide._provable
def counted(*args):
    global calls
    calls += 1
    return search(*args)
decide._provable = counted
assert decide.is_provable(parse_formula(sys.argv[1]))
print(calls)
"""


@pytest.mark.hash_seeds
def test_stress_instance_search_is_small_and_free_of_hash_seeds(monkeypatch):
    calls = 0
    search = decide_module._provable

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(decide_module, "_provable", counted)
    assert is_provable(parse_formula(STRESS))
    assert 0 < calls <= 1000
    src = str(Path(__file__).resolve().parent.parent / "src")
    counts = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", COUNT_SCRIPT, STRESS], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        counts.append(int(proc.stdout))
    assert counts == [calls] * 3


# -- the bit-parallel forcing evaluator ----------------------------------------

def _table(formula):
    """A table holding the formula, its atoms interned first in sorted key
    order, as `find_countermodel` interns them; its keys and goal node."""
    t = _Table()
    keys = sorted({leaf_key(leaf) for leaf in leaves(formula)})
    for key in keys:
        t.node(_ATOM, t.atoms.setdefault(key, len(t.atoms)))
    return t, keys, _translate(formula, t)


@settings(max_examples=50, deadline=None)
@given(formulas())
def test_forcing_evaluator_matches_kripke_forcing_up_to_three_worlds(formula):
    t, keys, goal = _table(formula)
    frames = [frame for n in range(1, PRUNE_WORLDS + 1) for frame in _frames(n)]
    values = []
    for up, masks in frames:
        n = len(up)
        assert _width(len(masks), len(keys)) == len(keys)
        size, columns, _, shifts = _block((up, masks), len(keys))
        t.load((1 << n * size) - 1, shifts, list(columns))
        value = t.mask(goal)
        values.append(value)
        names = tuple(f"w{i}" for i in range(n))
        order = frozenset((names[i], names[j]) for i in range(n) for j in range(n)
                          if up[i] >> j & 1)
        for v, assignment in enumerate(itertools.product(masks, repeat=len(keys))):
            model = KripkeModel(names, order, {
                key: frozenset(names[i] for i in range(n) if mask >> i & 1)
                for key, mask in zip(keys, assignment)})
            assert [value >> w * size + v & 1 for w in range(n)] == \
                [model.forces(name, formula) for name in names]
    # the proof search's wide table holds the same values side by side
    t.widen(PRUNE_WORLDS)
    wide = t.mask(goal)
    _, _, blocks = _layout(PRUNE_WORLDS, len(keys))
    assert [wide >> offset & (1 << len(up) * len(masks) ** width) - 1
            for (offset, width, _), (up, masks) in zip(blocks, frames)] == values


def test_evaluator_ints_are_at_most_worlds_times_a_plane():
    for atoms in range(1, 15):
        full, _, blocks = _layout(PRUNE_WORLDS, min(atoms, 12))
        worlds = sum(len(up) for n in range(1, PRUNE_WORLDS + 1) for up, _ in _frames(n))
        assert worlds == 9 and full.bit_length() <= worlds * PLANE_BITS
        for n in range(1, 6):
            for up, masks in _frames(n):
                size = _block((up, masks), _width(len(masks), atoms))[0]
                assert size <= PLANE_BITS and (atoms <= 12 or size * len(masks) > PLANE_BITS)


def test_wide_formulas_widen_with_atoms_folded_onto_every_block(monkeypatch):
    widths = []
    layout = decide_module._layout

    def spy(worlds, atoms):
        widths.append((worlds, atoms))
        return layout(worlds, atoms)

    monkeypatch.setattr(decide_module, "_layout", spy)
    for text in INVALID[:3]:
        assert not is_provable(parse_formula(_wide(text)))
    assert (PRUNE_WORLDS, 12) in widths
    _, _, blocks = layout(PRUNE_WORLDS, 12)
    assert [width for _, width, _ in blocks] == [12, 7, 5, 6]


# Dummett's formula needs the 3-world fork, whose 5^6 or 5^7 valuations span
# chunks of 5^5, one per up-set of the leading atoms.  `a`, whose key sorts
# first, fails at the root in every chunk but the last, or, in the last
# formula, makes the implication fail in every chunk but the first.
FORK_WIDE = [
    "a | (b -> c) | (c -> b) | d & e & f",
    "a | (b -> c) | (c -> b) | d & e & f & g",
    "(b -> c) | (c -> b) | (a & d & e -> f)",
]


@pytest.mark.hash_seeds
@pytest.mark.parametrize("text", FORK_WIDE, ids=["six-atoms", "seven-atoms", "six-atoms-last"])
def test_fork_countermodels_past_one_chunk_match_the_scalar_scan(text):
    formula = parse_formula(text)
    found = find_countermodel(formula, max_worlds=5)
    assert [len(found[0].worlds), found[0].to_json()["order"]] == [3, [["w0", "w1"], ["w0", "w2"]]]
    assert _found(found) == _found(scalar_countermodel(formula, max_worlds=5))


@pytest.mark.hash_seeds
@pytest.mark.parametrize("atoms, loads", [(3, 15), (4, 88), (5, 746)])
def test_the_countermodel_scan_loads_a_counted_number_of_chunks(monkeypatch, atoms, loads):
    # n8 -> n7 fails first on a 4-world frame, and a conjunction of fresh
    # atoms, which fails there too, widens every frame's valuations: the
    # chunks loaded grow about ninefold per atom (6,643 and 59,539 at 6 and
    # 7 atoms), so one column fewer per plane, or a frame per class of
    # orders rather than per rooted frame, moves these counts.
    count, load = 0, _Table.load

    def spy(self, *args):
        nonlocal count
        count += 1
        return load(self, *args)

    monkeypatch.setattr(_Table, "load", spy)
    conjunction = Atom("b1")
    for i in range(2, atoms + 1):
        conjunction = And(conjunction, Atom(f"b{i}"))
    found = find_countermodel(Or(Implies(RN[8], RN[7]), conjunction), max_worlds=4)
    assert (len(found[0].worlds), count) == (4, loads)


@pytest.mark.hash_seeds
@settings(max_examples=150, deadline=None)
@given(formulas(), st.integers(1, 5))
def test_chunked_search_matches_the_scalar_scan(formula, max_worlds):
    assume(not is_provable(formula))
    assert _found(find_countermodel(formula, max_worlds=max_worlds)) == \
        _found(scalar_countermodel(formula, max_worlds=max_worlds))


@pytest.mark.hash_seeds
@pytest.mark.parametrize("high", [9, 10, 11], ids=["rn-n9-n7", "rn-n10-n9", "rn-n11-n9"])
def test_rieger_nishimura_countermodels_match_the_scalar_scan(high):
    formula = Implies(RN[high], RN[7 if high == 9 else 9])
    for bound in range(1, 6):
        assert _found(find_countermodel(formula, max_worlds=bound)) == \
            _found(scalar_countermodel(formula, max_worlds=bound))


def _provable_calls(monkeypatch, formula):
    calls = 0
    search = decide_module._provable

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(decide_module, "_provable", counted)
    verdict = is_provable(formula)
    monkeypatch.setattr(decide_module, "_provable", search)
    return verdict, calls


def test_kripke_prune_keeps_the_hard_searches_small(monkeypatch):
    # 472, 423 and 366 calls with the truth tables alone
    verdict, calls = _provable_calls(monkeypatch, parse_formula(STRESS))
    assert verdict and calls <= 150
    for high in (10, 11):
        verdict, calls = _provable_calls(monkeypatch, Implies(RN[high], RN[9]))
        assert not verdict and calls <= 200


def test_the_choice_after_a_failed_one_is_checked_on_the_widened_models(monkeypatch):
    # ~~s -> s passes the truth tables and fails its search, which widens
    # the table; p | ~p passes the truth tables too, but the 2-world chain
    # refutes it, so it is never searched
    _, first = _provable_calls(monkeypatch, parse_formula("~~s -> s"))
    assert _provable_calls(monkeypatch, parse_formula("(~~s -> s) | (p | ~p)")) == \
        (False, first + 1)


def test_kripke_prune_adds_no_search_on_valid_formulas(monkeypatch):
    # the truth tables alone made 8770 calls on the valid formulas
    total = 0
    for seed in (101, 102, 103):
        for text in decide_corpus(seed, 0):
            verdict, calls = _provable_calls(monkeypatch, parse_formula(text))
            total += calls if verdict else 0
    assert total <= 8770
