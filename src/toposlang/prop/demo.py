"""Headline demonstrations: where Boolean reasoning breaks.

`nondistributivity_demo` builds the rank-two subspace lattice on the three
rational rays spanned by (1,0), (0,1) and (1,1) in exact arithmetic and
exhibits the distributivity failure a&(b|c) != (a&b)|(a&c); any valuation
of primitive propositions into such a lattice therefore cannot satisfy the
distributive bi-implication that the propositional deductive system proves.

`excluded_middle_demo` contrasts a Boolean powerset algebra, where a | ~a
is always the top element, with the Sierpinski open-set algebra and the
sieve algebra on the top of the two-point poset, where witnesses fail it.
"""
from __future__ import annotations

from .._canon import jsonable
from .._record import record
from ..category import from_poset, sieve_heyting
from ..heyting import (
    FULL_PLANE,
    ZERO_SUBSPACE,
    open_set_algebra,
    powerset_algebra,
    ray_label,
    subspace_lattice_2d,
)


@record(frozen=True)
class NondistributivityReport:
    rays: tuple[str, str, str]
    lhs: str   # a & (b | c)
    rhs: str   # (a & b) | (a & c)
    join_bc: str
    meet_ab: str
    meet_ac: str

    @property
    def distributive(self) -> bool:
        return self.lhs == self.rhs

    def to_json(self) -> dict:
        return {
            "rays": list(self.rays),
            "join_bc": self.join_bc,
            "meet_ab": self.meet_ab,
            "meet_ac": self.meet_ac,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "distributive": self.distributive,
            "conclusion": (
                "no valuation of primitive propositions by rank-2 projections "
                "can satisfy the distributive bi-implication proved by the "
                "propositional deductive system"),
        }


def nondistributivity_demo() -> NondistributivityReport:
    a, b, c = ray_label((1, 0)), ray_label((0, 1)), ray_label((1, 1))
    lat = subspace_lattice_2d([(1, 0), (0, 1), (1, 1)])
    join_bc = lat.join(b, c)
    lhs = lat.meet(a, join_bc)
    rhs = lat.join(lat.meet(a, b), lat.meet(a, c))
    report = NondistributivityReport(
        rays=(a, b, c), lhs=lhs, rhs=rhs, join_bc=join_bc,
        meet_ab=lat.meet(a, b), meet_ac=lat.meet(a, c))
    assert report.join_bc == FULL_PLANE
    assert report.lhs == a != ZERO_SUBSPACE
    assert report.rhs == ZERO_SUBSPACE
    return report


def excluded_middle_demo() -> dict:
    boolean = powerset_algebra([1, 2, 3])
    boolean_holds = all(boolean.join(x, boolean.negate(x)) == boolean.top
                        for x in boolean.elements)
    sierpinski = open_set_algebra([frozenset(), frozenset({1}), frozenset({1, 2})])
    s_witness = next(x for x in sierpinski.elements
                     if sierpinski.join(x, sierpinski.negate(x)) != sierpinski.top)
    cat = from_poset(["p", "q"], [("p", "q")])
    omega_q = sieve_heyting(cat, "q")
    o_witness = next(x for x in omega_q.elements
                     if omega_q.join(x, omega_q.negate(x)) != omega_q.top)
    return {
        "powerset": {"base": ["1", "2", "3"], "law_holds_everywhere": boolean_holds},
        "sierpinski_witness": {
            "alpha": jsonable(s_witness),
            "alpha_or_not_alpha": jsonable(
                sierpinski.join(s_witness, sierpinski.negate(s_witness))),
            "top": jsonable(sierpinski.top),
        },
        "two_point_sieve_witness": {
            "alpha": jsonable(o_witness),
            "alpha_or_not_alpha": jsonable(
                omega_q.join(o_witness, omega_q.negate(o_witness))),
            "top": jsonable(omega_q.top),
        },
    }
