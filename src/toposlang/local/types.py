"""Type expressions of the typed higher-order language.

Ground types: the state type (surface token `Sigma`), the quantity-value
type (`R`), plus user-declared grounds.  Built-ins: the unit type `1`, the
truth-value type `Omega`, finite products `T1*...*Tn` and power types
`P(T)`.  The empty product normalizes to the unit type and the singleton
product to its component, so product types always have two or more factors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union


@dataclass(frozen=True)
class UnitType:
    def __str__(self):
        return "1"


@dataclass(frozen=True)
class TruthType:
    def __str__(self):
        return "Omega"


@dataclass(frozen=True)
class StateType:
    def __str__(self):
        return "Sigma"


@dataclass(frozen=True)
class QuantityType:
    def __str__(self):
        return "R"


@dataclass(frozen=True)
class GroundType:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class ProductType:
    factors: tuple["TypeExpr", ...]

    def __str__(self):
        return "*".join(_atom_str(f) for f in self.factors)


@dataclass(frozen=True)
class PowerType:
    inner: "TypeExpr"

    def __str__(self):
        return f"P({self.inner})"


TypeExpr = Union[UnitType, TruthType, StateType, QuantityType,
                 GroundType, ProductType, PowerType]

UNIT = UnitType()
OMEGA = TruthType()
SIGMA = StateType()
RQ = QuantityType()


def _atom_str(t: TypeExpr) -> str:
    return f"({t})" if isinstance(t, ProductType) else str(t)


def product_type(factors: Sequence[TypeExpr]) -> TypeExpr:
    """Smart constructor: () normalizes to 1, a single factor to itself."""
    factors = tuple(factors)
    if not factors:
        return UNIT
    if len(factors) == 1:
        return factors[0]
    return ProductType(factors)
