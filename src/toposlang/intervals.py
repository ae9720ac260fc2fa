"""Exact interval sets over the rationals.

An :class:`IntervalSet` is a normalized finite union of pairwise disjoint,
non-adjacent intervals with rational endpoints (or unbounded ends), each
endpoint tagged open/closed.  The class is closed under union, intersection
and complement, and membership is decided exactly, so structural equality of
the normal form is semantic equality.

Endpoints are compared through (rank, value, epsilon) triples: rank orders
-inf < finite < +inf, and epsilon resolves open/closed ties the usual way
(an open lower bound sits just above the point, an open upper bound just
below it).

:class:`Rational` is the exact rational that a classical system stores for
each of its values: a `Fraction` that keeps its hash after the first use,
and is otherwise a `Fraction` in every way its users see (equality, hash,
order, `str`, `repr`, pickling, and arithmetic, whose results are plain
`Fraction`s).  A system holds one per distinct value, so every later lookup
finds it by identity and never hashes it again.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from ._record import record


class Rational(Fraction):
    """A `Fraction` that hashes once: equal, and hash-equal, to the
    `Fraction` of the same value, with its `repr`.  A `Fraction` does not
    keep its hash, and each one costs a modular inverse."""
    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = Fraction.__hash__(self)
            return self._hash

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


_UNBOUNDED_LO = (-1, Fraction(0), 0)
_UNBOUNDED_HI = (1, Fraction(0), 0)


def _exact(q) -> Fraction:
    """q as an exact rational, kept as it is when it already is one."""
    return q if isinstance(q, Fraction) else Fraction(q)


def _succ(hi_key):
    # Smallest lower-bound key strictly "touching" this upper bound; used to
    # decide whether two intervals merge. No successor past +inf.
    rank, value, eps = hi_key
    if rank == 1:
        return (2, value, 0)
    return (rank, value, eps + 1)


@record(frozen=True)
class Interval:
    lo: Optional[Fraction]  # None = unbounded below
    lo_closed: bool
    hi: Optional[Fraction]  # None = unbounded above
    hi_closed: bool

    def __post_init__(self):
        if self.lo is None and self.lo_closed:
            raise ValueError("an unbounded end cannot be closed")
        if self.hi is None and self.hi_closed:
            raise ValueError("an unbounded end cannot be closed")
        # the endpoint keys, computed once: every comparison reads them
        object.__setattr__(self, "lo_key", _UNBOUNDED_LO if self.lo is None
                           else (0, self.lo, 0 if self.lo_closed else 1))
        object.__setattr__(self, "hi_key", _UNBOUNDED_HI if self.hi is None
                           else (0, self.hi, 0 if self.hi_closed else -1))

    @property
    def is_empty(self) -> bool:
        return self.lo_key > self.hi_key

    def contains(self, q: Fraction) -> bool:
        point = (0, q, 0)
        return self.lo_key <= point <= self.hi_key

    def __str__(self) -> str:
        left = "(-inf" if self.lo is None else ("[" if self.lo_closed else "(") + str(self.lo)
        right = "+inf)" if self.hi is None else str(self.hi) + ("]" if self.hi_closed else ")")
        return f"{left},{right}"


def _merge(parts: Iterable[Interval]) -> tuple[Interval, ...]:
    live = sorted((p for p in parts if not p.is_empty), key=lambda p: (p.lo_key, p.hi_key))
    merged: list[Interval] = []
    for part in live:
        if merged and part.lo_key <= _succ(merged[-1].hi_key):
            last = merged[-1]
            if part.hi_key > last.hi_key:
                merged[-1] = Interval(last.lo, last.lo_closed, part.hi, part.hi_closed)
        else:
            merged.append(part)
    return tuple(merged)


@record(frozen=True)
class IntervalSet:
    parts: tuple[Interval, ...]

    @staticmethod
    def from_parts(parts: Iterable[Interval]) -> "IntervalSet":
        return IntervalSet(_merge(parts))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @staticmethod
    def full() -> "IntervalSet":
        return IntervalSet((Interval(None, False, None, False),))

    @staticmethod
    def interval(lo, lo_closed: bool, hi, hi_closed: bool) -> "IntervalSet":
        lo = None if lo is None else _exact(lo)
        hi = None if hi is None else _exact(hi)
        return IntervalSet.from_parts([Interval(lo, lo_closed, hi, hi_closed)])

    @staticmethod
    def point(q) -> "IntervalSet":
        q = _exact(q)
        return IntervalSet((Interval(q, True, q, True),))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def member(self, q) -> bool:
        q = _exact(q)
        return any(p.contains(q) for p in self.parts)

    def __contains__(self, q) -> bool:
        return self.member(q)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_parts(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a in self.parts:
            for b in other.parts:
                lo_key = max(a.lo_key, b.lo_key)
                hi_key = min(a.hi_key, b.hi_key)
                if lo_key > hi_key:
                    continue
                src_lo = a if a.lo_key >= b.lo_key else b
                src_hi = a if a.hi_key <= b.hi_key else b
                out.append(Interval(src_lo.lo, src_lo.lo_closed, src_hi.hi, src_hi.hi_closed))
        return IntervalSet.from_parts(out)

    def complement(self) -> "IntervalSet":
        if self.is_empty:
            return IntervalSet.full()
        gaps = []
        first = self.parts[0]
        if first.lo is not None:
            gaps.append(Interval(None, False, first.lo, not first.lo_closed))
        for cur, nxt in zip(self.parts, self.parts[1:]):
            gaps.append(Interval(cur.hi, not cur.hi_closed, nxt.lo, not nxt.lo_closed))
        last = self.parts[-1]
        if last.hi is not None:
            gaps.append(Interval(last.hi, not last.hi_closed, None, False))
        return IntervalSet.from_parts(gaps)

    def __str__(self) -> str:
        if not self.parts:
            return "empty"
        return " u ".join(str(p) for p in self.parts)
