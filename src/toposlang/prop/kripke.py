"""Finite Kripke models: the semantic side of the propositional logic engine.

A model is a finite poset of worlds with an upward-closed valuation per
primitive; the constructor refuses an order that is not a partial order on
the worlds and a valuation that names a world outside them.  Forcing is the usual clause set: implication and negation
quantify over all later worlds, so monotonicity propagates automatically.
"""
from __future__ import annotations

from typing import Mapping

from .._record import record
from ..errors import InputError
from .syntax import And, Atom, Formula, Implies, Not, Or, Prim, leaf_key


@record(frozen=True)
class KripkeModel:
    worlds: tuple[str, ...]
    order: frozenset[tuple[str, str]]  # reflexive-transitive (w, v) pairs, w <= v
    valuation: Mapping[str, frozenset[str]]  # primitive key -> worlds forcing it

    def __post_init__(self):
        ws = set(self.worlds)
        for w in self.worlds:
            if (w, w) not in self.order:
                raise InputError(f"world order is not reflexive at {w!r}")
        for w, v in self.order:
            if w not in ws or v not in ws:
                raise InputError(f"order pair ({w!r}, {v!r}) mentions unknown world")
        # each world's up-set, computed once; not a field, so equality, the
        # hash and the JSON stay those of the three fields
        above = {w: tuple(v for v in self.worlds if (w, v) in self.order) for w in self.worlds}
        object.__setattr__(self, "_above", above)
        for w in self.worlds:
            for v in above[w]:
                if v != w and (v, w) in self.order:
                    raise InputError(f"world order is not antisymmetric: {w!r} and {v!r} "
                                     f"lie below each other")
                for u in above[v]:
                    if (w, u) not in self.order:
                        raise InputError(
                            f"world order is not transitive: ({w!r}, {v!r}) and "
                            f"({v!r}, {u!r}) without ({w!r}, {u!r})")
        for key, ups in self.valuation.items():
            for w in ups:
                if w not in ws:
                    raise InputError(f"valuation of {key!r} names unknown world {w!r}")
                for v in above[w]:
                    if v not in ups:
                        raise InputError(
                            f"valuation of {key!r} is not upward closed at {w!r}")

    def above(self, w: str) -> tuple[str, ...]:
        return self._above.get(w, ())

    def forces(self, world: str, formula: Formula) -> bool:
        if isinstance(formula, (Prim, Atom)):
            return world in self.valuation.get(leaf_key(formula), frozenset())
        if isinstance(formula, And):
            return self.forces(world, formula.left) and self.forces(world, formula.right)
        if isinstance(formula, Or):
            return self.forces(world, formula.left) or self.forces(world, formula.right)
        # An implication or negation quantifies over the later worlds in a
        # loop of its own, so each connective costs one stack frame.
        if isinstance(formula, Implies):
            for v in self._above.get(world, ()):
                if self.forces(v, formula.left) and not self.forces(v, formula.right):
                    return False
            return True
        if isinstance(formula, Not):
            for v in self._above.get(world, ()):
                if self.forces(v, formula.operand):
                    return False
            return True
        raise TypeError(f"not a formula node: {formula!r}")

    def counterexample_world(self, formula: Formula) -> str | None:
        for w in self.worlds:
            if not self.forces(w, formula):
                return w
        return None

    def to_json(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "order": sorted([w, v] for w, v in self.order if w != v),
            "valuation": {k: sorted(ws) for k, ws in sorted(self.valuation.items())},
        }
