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
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional


def _lo_key(lo: Optional[Fraction], closed: bool):
    if lo is None:
        return (-1, Fraction(0), 0)
    return (0, lo, 0 if closed else 1)


def _hi_key(hi: Optional[Fraction], closed: bool):
    if hi is None:
        return (1, Fraction(0), 0)
    return (0, hi, 0 if closed else -1)


def _succ(hi_key):
    # Smallest lower-bound key strictly "touching" this upper bound; used to
    # decide whether two intervals merge. No successor past +inf.
    rank, value, eps = hi_key
    if rank == 1:
        return (2, value, 0)
    return (rank, value, eps + 1)


@dataclass(frozen=True)
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

    @property
    def lo_key(self):
        return _lo_key(self.lo, self.lo_closed)

    @property
    def hi_key(self):
        return _hi_key(self.hi, self.hi_closed)

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


@dataclass(frozen=True)
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
        lo = None if lo is None else Fraction(lo)
        hi = None if hi is None else Fraction(hi)
        return IntervalSet.from_parts([Interval(lo, lo_closed, hi, hi_closed)])

    @staticmethod
    def point(q) -> "IntervalSet":
        q = Fraction(q)
        return IntervalSet((Interval(q, True, q, True),))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def member(self, q) -> bool:
        q = Fraction(q)
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
