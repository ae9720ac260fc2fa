"""Heyting-valued and classical representations of propositional formulas.

A representation assigns each primitive leaf an element of a Heyting
algebra and pushes the connectives onto the algebra's operations.  The
classical representation of a finite-state system interprets "A in D" as
the preimage of D under the quantity's value table, inside the Boolean
powerset algebra of states, which never lists its subsets: each connective
costs a few bit operations; a state then assigns each formula a two-valued
truth value by direct recursion.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping

from .._record import field, record
from ..errors import InputError, ToposlangError
from ..heyting import DownsetAlgebra, powerset_algebra
from ..intervals import IntervalSet, Rational
from .syntax import And, Atom, Formula, Implies, Or, Prim, fold_formula, leaves


# `sample_interval_sets` pads each quantity's points, half-lines and brackets
# with random intervals up to this many, besides the empty set and the line.
SAMPLES_PER_QUANTITY = 12


class SemanticsError(ToposlangError):
    pass


def pl_represent(formula: Formula, assignment: Mapping, algebra: DownsetAlgebra):
    """Evaluate a formula in an algebra, given elements for its leaves.

    Conjunction, disjunction, negation and implication land on the algebra's
    meet, join, pseudo-complement and relative pseudo-complement.
    """
    def leaf(n):
        if n not in assignment:
            raise SemanticsError(f"unassigned primitive {n!r}")
        return assignment[n]

    ops = {And: algebra.meet, Or: algebra.join, Implies: algebra.implies}
    return fold_formula(formula, leaf, algebra.negate, lambda former, v, w: ops[former](v, w))


def _distinct_states(states) -> set:
    """The set of `states`; InputError names the first state listed twice."""
    distinct = set(states)
    if len(distinct) != len(states):
        repeat = next(s for i, s in enumerate(states) if s in states[:i])
        raise InputError(f"state {repeat!r} occurs twice")
    return distinct


@record(frozen=True)
class ClassicalSystem:
    """Finite state set with exact rational value tables per quantity.

    The constructor converts each table value once, to an `intervals.Rational`,
    and keeps one object per distinct value across all quantities:
    `quantities` holds these, and every reader (`value`, `ClassicalRep`,
    `sample_interval_sets`, `rep.EffectiveClassicalRep`) uses them as they
    are, so each value is hashed once and found by identity.  A value is
    anything `Fraction` accepts: an int, a `Fraction`, a decimal string or a
    finite float.  InputError when `states` repeats a name, a table misses a
    state, has an entry for a state outside `states`, or holds a value that
    is not a rational."""
    states: tuple[str, ...]
    quantities: Mapping[str, Mapping[str, Fraction]]

    def __post_init__(self):
        interned: dict = {}
        tables = {}
        states = _distinct_states(self.states)
        for name, table in self.quantities.items():
            missing = states - set(table)
            if missing:
                raise InputError(
                    f"quantity {name!r} is not total: missing {sorted(missing)}")
            tables[name] = converted = {}
            for state, raw in table.items():
                if state not in states:
                    raise InputError(f"quantity {name!r} mentions unknown state {state!r}")
                try:
                    q = Rational(raw)
                except (TypeError, ValueError, ArithmeticError):
                    raise InputError(f"quantity {name!r} has a value that is not a rational "
                                     f"at state {state!r}: {raw!r}") from None
                # Keyed by the int pair, which hashes without a modular inverse.
                converted[state] = interned.setdefault((q.numerator, q.denominator), q)
        object.__setattr__(self, "quantities", tables)

    def value(self, quantity: str, state: str) -> Fraction:
        if quantity not in self.quantities:
            raise InputError(f"unknown quantity name {quantity!r}")
        if state not in self.quantities[quantity]:
            raise InputError(f"unknown state {state!r}")
        return self.quantities[quantity][state]


@record(frozen=True)
class ClassicalRep:
    """Powerset-of-states algebra plus the preimage assignment of primitives."""
    system: ClassicalSystem
    algebra: DownsetAlgebra

    def __post_init__(self):
        # Each quantity's states grouped by value, so that a preimage
        # decides membership once per value.
        by_value = {}
        for name, table in self.system.quantities.items():
            groups: dict = {}
            for s in self.system.states:
                groups.setdefault(table[s], []).append(s)
            by_value[name] = tuple(groups.items())
        object.__setattr__(self, "_by_value", by_value)

    def preimage(self, quantity: str, delta: IntervalSet) -> frozenset:
        if quantity not in self._by_value:
            raise InputError(f"unknown quantity name {quantity!r}")
        return frozenset(s for value, states in self._by_value[quantity]
                         if delta.member(value) for s in states)

    def assign(self, prim: Prim) -> frozenset:
        if not isinstance(prim, Prim):
            raise SemanticsError(
                f"classical representation needs concrete primitives, got {prim!r}")
        return self.preimage(prim.quantity, prim.delta)

    def represent(self, formula: Formula) -> frozenset:
        assignment = {leaf: self.assign(leaf) for leaf in leaves(formula)}
        return pl_represent(formula, assignment, self.algebra)


def classical_rep(system: ClassicalSystem) -> ClassicalRep:
    return ClassicalRep(system, powerset_algebra(system.states))


def truth_value(formula: Formula, state: str, system: ClassicalSystem) -> int:
    """Two-valued truth at a state: a primitive holds iff the quantity's
    value lies in the interval set; connectives evaluate classically."""
    if state not in system.states:
        raise InputError(f"unknown state {state!r}")

    def leaf(n) -> int:
        if isinstance(n, Atom):
            raise SemanticsError(f"abstract atom {n.name!r} has no classical truth value")
        return 1 if n.delta.member(system.value(n.quantity, state)) else 0

    ops = {And: min, Or: max, Implies: lambda v, w: max(1 - v, w)}
    return fold_formula(formula, leaf, lambda v: 1 - v, lambda former, v, w: ops[former](v, w))


# -- the optional interval axioms, verified per representation ------------------

@record
class OptionalAxiomReport:
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def sample_interval_sets(system: ClassicalSystem, *, seed: int = 0
                         ) -> Mapping[str, list[IntervalSet]]:
    """Deterministic interval samples that straddle each quantity's attained
    values: brackets between consecutive values, half-lines, the empty set
    and the full line."""
    rng = random.Random(seed)
    out = {}
    for name, table in system.quantities.items():
        values = sorted(set(table.values()))
        deltas = [IntervalSet.empty(), IntervalSet.full()]
        for v in values:
            deltas.append(IntervalSet.point(v))
            deltas.append(IntervalSet.interval(None, False, v, True))
            deltas.append(IntervalSet.interval(v, False, None, False))
        for lo, hi in zip(values, values[1:]):
            deltas.append(IntervalSet.interval(lo, True, hi, False))
        while len(deltas) < SAMPLES_PER_QUANTITY + 2:
            lo = rng.choice(values) - Fraction(rng.randint(0, 3), rng.randint(1, 4))
            hi = lo + Fraction(rng.randint(0, 5), rng.randint(1, 3))
            deltas.append(IntervalSet.interval(lo, bool(rng.getrandbits(1)),
                                               hi, bool(rng.getrandbits(1))))
        out[name] = deltas
    return out


def check_optional_axioms(system: ClassicalSystem, *, seed: int = 0) -> OptionalAxiomReport:
    """Verify that preimages turn interval intersection, union and complement
    into state-set intersection, union and complement, for sampled interval
    pairs over every quantity.  Classically none of these can fail; failures
    are report content for broken inputs, not exceptions."""
    rep = classical_rep(system)
    report = OptionalAxiomReport()
    everything = frozenset(system.states)
    for name, ds in sample_interval_sets(system, seed=seed).items():
        preimages = [rep.preimage(name, d) for d in ds]
        for d1, p1 in zip(ds, preimages):
            comp = everything - p1
            if rep.preimage(name, d1.complement()) != comp:
                report.failures.append(("complement", name, str(d1)))
            report.checked += 1
            for d2, p2 in zip(ds, preimages):
                if p1 & p2 != rep.preimage(name, d1.intersect(d2)):
                    report.failures.append(("conjunction", name, str(d1), str(d2)))
                if p1 | p2 != rep.preimage(name, d1.union(d2)):
                    report.failures.append(("disjunction", name, str(d1), str(d2)))
                report.checked += 2
    return report
