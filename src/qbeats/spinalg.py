"""Exact half-integer spin bookkeeping.

Quantum numbers stored as doubled integers, so sector arithmetic stays
exact; the one rule for which total spins n coupled spin-1/2 particles have,
and the multiplicity of each.  The cation blocks themselves are written from
ladder operators in ``hamiltonians.build_cation_blocks``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
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

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice_value))

    def __repr__(self) -> str:
        if self.twice_value % 2 == 0:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def multiplicity(I: HalfInt) -> int:
    """Number of magnetic sublevels 2I+1."""
    return I.twice_value + 1


def check_total_spin(n: int, I: HalfInt, name: str = "I") -> None:
    """Refuse all but a total spin I of n >= 1 coupled spin-1/2s: 0 <= 2I <= n, n - 2I even."""
    if n <= 0:
        raise ValueError(f"particle count must be >= 1, got {n}")
    if not (0 <= I.twice_value <= n and (n - I.twice_value) % 2 == 0):
        raise ValueError(f"{name}={I} is not a valid total spin for {n} nuclei")


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
    row = [1]  # C(n, k) = C(n, k - 1) (n - k + 1) / k, exact in integers
    for k in range(1, n // 2 + 1):
        row.append(row[-1] * (n - k + 1) // k)
    return MappingProxyType({HalfInt(n - 2 * k): row[k] - (row[k - 1] if k else 0)
                             for k in range(n // 2 + 1)})
