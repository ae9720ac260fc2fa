"""Canonical ordering and JSON projection for heterogeneous element values.

Stage elements throughout the toolkit are plain hashables: strings, ints,
exact rationals, tuples and frozensets. A single total order keeps every
enumeration deterministic, which in turn keeps printed output byte-stable.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction

# Emptied when full, so that a long-running process does not grow with it.
KEY_CACHE_LIMIT = 1 << 16
_KEY_CACHE: dict = {}


def canon_key(value):
    """Total order key over the element kinds the engine produces.

    Numbers order by value: the key is the nearest float, ±inf past float
    range, then the exact value to break ties, so ints and equal Fractions
    share a key.  Keys of structured values are memoized, up to
    KEY_CACHE_LIMIT entries: the same stage elements get sorted many times
    across enumerations.
    """
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, int) and not isinstance(value, bool):
        return (0, _approx(value), value)
    cached = _KEY_CACHE.get(value)
    if cached is not None:
        return cached
    if isinstance(value, bool):
        key = (0, float(value), int(value))
    elif isinstance(value, Fraction):
        key = (0, _approx(value), value)
    elif isinstance(value, tuple):
        key = (2, tuple(canon_key(v) for v in value))
    elif isinstance(value, frozenset):
        key = (3, tuple(sorted(canon_key(v) for v in value)))
    else:
        raise TypeError(f"no canonical order for {type(value).__name__}")
    if len(_KEY_CACHE) >= KEY_CACHE_LIMIT:
        _KEY_CACHE.clear()
    _KEY_CACHE[value] = key
    return key


def _approx(number) -> float:
    """The float nearest an int or Fraction, or ±inf past float range:
    rounding is monotone, so the float orders numbers up to ties."""
    try:
        return float(number)
    except OverflowError:
        return math.inf if number > 0 else -math.inf


def canon_sorted(values):
    return sorted(values, key=canon_key)


def jsonable(value):
    """Project an element to JSON-compatible data.

    Rationals print in lowest terms ("5/2", "4"); the empty tuple is the
    terminal-object point and prints as "*"; frozensets print as sorted lists.
    """
    if value == ():
        return "*"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return [jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return [jsonable(v) for v in canon_sorted(value)]
    raise TypeError(f"not JSON-projectable: {type(value).__name__}")


def canonical_json(payload) -> str:
    """Sorted keys, no whitespace, one trailing newline: byte-stable output."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
