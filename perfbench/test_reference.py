"""Tests of the benchmark's own checks: each reference computation, and each
workload check built on it, must reject a planted wrong answer.

    python3 -m pytest perfbench/test_reference.py -q
"""
import os
import sys
from collections import namedtuple
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import gen  # noqa: E402
import reference as ref  # noqa: E402
import wl_classical  # noqa: E402
import wl_decide  # noqa: E402
import wl_topos  # noqa: E402

a, b, c = gen.atom("a"), gen.atom("b"), gen.atom("c")
PEIRCE = gen.imp(gen.imp(gen.imp(a, b), a), a)
DUMMETT = gen.disj(gen.imp(a, b), gen.imp(b, a))
Decision = namedtuple("Decision", "valid countermodel fails_at")


class Model(dict):
    def to_json(self):
        return dict(self)


# -- Kripke frames and forcing -------------------------------------------------------

def test_forcing_evaluator_accepts_a_true_countermodel_and_rejects_a_false_one():
    good = {"worlds": ["w0", "w1"], "order": [["w0", "w1"]],
            "valuation": {"a": ["w1"], "b": []}}
    ref.check_countermodel(PEIRCE, good, "w0")
    forcing = {"worlds": ["w0"], "order": [], "valuation": {"a": ["w0"], "b": []}}
    with pytest.raises(ref.Mismatch):
        ref.check_countermodel(PEIRCE, forcing, "w0")


def test_forcing_evaluator_rejects_a_frame_that_is_not_a_model():
    not_upward = {"worlds": ["w0", "w1"], "order": [["w0", "w1"]],
                  "valuation": {"a": ["w0"], "b": []}}
    with pytest.raises(ref.Mismatch):
        ref.check_countermodel(PEIRCE, not_upward, "w0")
    cyclic = {"worlds": ["w0", "w1"], "order": [["w0", "w1"], ["w1", "w0"]],
              "valuation": {"a": [], "b": []}}
    with pytest.raises(ref.Mismatch):
        ref.check_countermodel(PEIRCE, cyclic, "w0")


def test_decide_check_rejects_wrong_verdicts():
    check = wl_decide.Workload.check
    with pytest.raises(ref.Mismatch):     # Peirce called valid
        check(wl_decide.Item(PEIRCE, "invalid"), Decision(True, None, None))
    with pytest.raises(ref.Mismatch):     # a theorem called invalid
        check(wl_decide.Item(gen.imp(a, a), "valid"), Decision(False, Model(), "w0"))
    forcing = Model(worlds=["w0"], order=[], valuation={"a": ["w0"], "b": []})
    with pytest.raises(ref.Mismatch):     # a countermodel that forces the formula
        check(wl_decide.Item(PEIRCE, "invalid"), Decision(False, forcing, "w0"))


# -- truth tables and small models ------------------------------------------------------

def test_truth_table_and_small_models():
    assert ref.is_tautology(PEIRCE) and not ref.is_tautology(gen.imp(a, b))
    assert ref.small_countermodel(gen.neg(gen.neg(gen.disj(a, gen.neg(a))))) is None
    up, _ = ref.small_countermodel(DUMMETT)
    assert len(up) == 3
    with pytest.raises(ref.Mismatch):     # classically valid, not intuitionistically
        ref.check_valid_verdict(PEIRCE)
    with pytest.raises(ref.Mismatch):     # not even a tautology
        ref.check_valid_verdict(gen.imp(a, b))


def test_generated_verdicts_hold_by_reference():
    generated = wl_decide.corpus(7, 0)[15:-2]    # without the fixed formulas
    for item in generated:
        if item.verdict == "valid":
            ref.check_valid_verdict(item.formula)
        else:
            assert ref.small_countermodel(item.formula) is not None


# -- intervals and the classical evaluator ---------------------------------------------

def test_interval_membership_from_endpoints():
    two, five = Fraction(2), Fraction(5)
    assert ref.in_interval((two, True, five, True), two)
    assert not ref.in_interval((two, False, five, True), two)
    assert not ref.in_interval((two, True, five, False), five)
    assert ref.in_interval((None, False, None, False), Fraction(-10 ** 9))
    assert not ref.in_intervals((), two)


def _system():
    states = ("s1", "s2", "s3")
    tables = {"A": {"s1": Fraction(1), "s2": Fraction(5, 2), "s3": Fraction(4)},
              "B": {"s1": Fraction(4), "s2": Fraction(1), "s3": Fraction(5, 2)}}
    window = ((Fraction(2), True, Fraction(5), True),)
    return states, tables, window


def test_classical_evaluator_and_check_reject_wrong_state_sets():
    states, tables, window = _system()
    formula = ("prim", "A", window)
    assert ref.states_satisfying(formula, states, tables) == {"s2", "s3"}
    assert ref.states_satisfying(gen.neg(formula), states, tables) == {"s1"}
    check = wl_classical.Workload.check
    right = ({"s2", "s3"}, [0, 1, 1], [{"s2", "s3"}])
    check(right, states, tables, formula, "A", [window])
    for wrong in (({"s1", "s2"}, [0, 1, 1], [{"s2", "s3"}]),     # represent
                  ({"s2", "s3"}, [1, 1, 1], [{"s2", "s3"}]),     # truth values
                  ({"s2", "s3"}, [0, 1, 1], [{"s3"}])):          # preimage
        with pytest.raises(ref.Mismatch):
            check(wrong, states, tables, formula, "A", [window])


# -- down-sets, sub-presheaves and groups -------------------------------------------------

def test_down_set_counter():
    assert ref.count_down_sets(*gen.chain(["x", "y", "z"])) == 4
    assert ref.count_down_sets(*gen.vee(["x", "y", "z"])) == 5
    assert ref.count_down_sets(*gen.diamond(["w", "x", "y", "z"])) == 6
    assert ref.count_down_sets_below(*gen.vee(["x", "y", "z"]), "y") == 3
    two = {"p": ["*"], "q": ["*"]}
    assert ref.count_subpresheaves(two, {"le[p,q]": ("q", "p", {"*": "*"})}) == 3


def test_topos_checks_reject_wrong_counts():
    wl = wl_topos.Workload(1, None)
    wl.setup()
    rng = gen.rng_for(1, "test")
    run, check = wl._case_classifier(rng, "t0", None)
    got = run()
    check(got)
    planted = dict(got)
    key = next(iter(planted))
    planted[key] += 1
    with pytest.raises(ref.Mismatch):
        check(planted)
    run, check = wl._case_classify(rng, "t1", None)
    n_subs, n_homs, round_trip = run()
    check((n_subs, n_homs, round_trip))
    with pytest.raises(ref.Mismatch):
        check((n_subs + 1, n_homs + 1, round_trip))
    with pytest.raises(ref.Mismatch):
        check((n_subs, n_homs, False))


def test_group_check():
    els = [0, 1, 2]
    add = {(x, y): (x + y) % 3 for x in els for y in els}
    neg = {x: (-x) % 3 for x in els}
    assert ref.is_abelian_group(els, add, 0, neg)
    add[(1, 2)] = 1
    assert not ref.is_abelian_group(els, add, 0, neg)


def test_generated_presheaves_are_functorial():
    rng = gen.rng_for(3, "test")
    elements, pairs = gen.diamond(["a", "b", "c", "d"])
    for _ in range(20):
        stages, maps = gen.random_poset_presheaf(rng, elements, pairs, 3, "x")
        below = ref.below_sets(elements, pairs)
        for q in elements:
            for m in below[q] - {q}:
                for p in below[m] - {m}:
                    for x in stages[q]:
                        assert maps[f"le[{p},{m}]"][maps[f"le[{m},{q}]"][x]] == \
                            maps[f"le[{p},{q}]"][x]
