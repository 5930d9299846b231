"""Exact half-integer spin bookkeeping.

Quantum numbers stored as doubled integers, so sector arithmetic stays
exact, and the multiplicity of each total spin among n coupled spin-1/2
particles.  The cation blocks themselves are written from ladder operators
in ``hamiltonians.coupling_block``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from types import MappingProxyType


@dataclass(frozen=True, order=True)
class HalfInt:
    """A spin or magnetic quantum number stored as twice its value."""

    twice_value: int

    @staticmethod
    def from_float(x: float) -> "HalfInt":
        twice = round(2 * x)
        if abs(2 * x - twice) > 1e-12:
            raise ValueError(f"{x} is not a half-integer")
        return HalfInt(twice)

    @property
    def as_float(self) -> float:
        return self.twice_value / 2

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice_value + other.twice_value)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice_value - other.twice_value)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice_value)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice_value))

    def __repr__(self) -> str:
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


HALF = HalfInt(1)


def multiplicity(I: HalfInt) -> int:
    """Number of magnetic sublevels 2I+1."""
    return I.twice_value + 1


@lru_cache(maxsize=None)
def spin_addition_counts(n: int) -> Mapping[HalfInt, int]:
    """Multiplicity of each total spin I for n coupled spin-1/2 particles.

    Row n of the spin-addition table in closed form: the states with m = I
    number C(n, n/2 - I), and those with m = I + 1 C(n, n/2 - I - 1), so I
    occurs C(n, k) - C(n, k - 1) times with k = n/2 - I.  The identity
    sum_I mult(I) * (2I+1) = 2**n holds exactly.  Memoized per n: the row is
    a read-only view whose keys run from the largest I down, the order
    callers' sums follow.
    """
    if n <= 0:
        raise ValueError(f"particle count must be >= 1, got {n}")
    return MappingProxyType({HalfInt(n - 2 * k): comb(n, k) - (comb(n, k - 1) if k else 0)
                             for k in range(n // 2 + 1)})
