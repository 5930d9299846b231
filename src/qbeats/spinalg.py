"""Exact half-integer spin bookkeeping.

Spin-addition multiplicity counting for n coupled spin-1/2 particles, and the
Clebsch-Gordan change-of-basis blocks for adding one spin-1/2 to an arbitrary
spin I.  Quantum numbers are stored as doubled integers so sector arithmetic
stays exact; floats only appear inside the CG matrices themselves.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from types import MappingProxyType

import numpy as np


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

    Row n of the spin-addition table: adding one spin-1/2 to a total spin I
    yields I+1/2 and (for I > 0) I-1/2, so row n+1 follows from row n by the
    Pascal-like recurrence.  The identity sum_I mult(I) * (2I+1) = 2**n holds
    exactly.  Memoized per n: the row is a read-only view whose keys run from
    the largest I down, the order callers' sums follow.
    """
    if n <= 0:
        raise ValueError(f"particle count must be >= 1, got {n}")
    row: dict[HalfInt, int] = {HALF: 1}
    for _ in range(n - 1):
        nxt: dict[HalfInt, int] = {}
        for I, count in row.items():
            up = I + HALF
            nxt[up] = nxt.get(up, 0) + count
            if I.twice_value > 0:
                down = I - HALF
                nxt[down] = nxt.get(down, 0) + count
        row = nxt
    return MappingProxyType(row)


def product_basis_labels(I: HalfInt) -> list[tuple[HalfInt, int]]:
    """Product-basis ordering for the I (+) 1/2 coupling.

    m runs from +I down to -I; each |I,m> is immediately followed by its two
    electronic sublevels (up = 0, then down = 1).  Every downstream index
    table assumes exactly this ordering.
    """
    out = []
    for tm in range(I.twice_value, -I.twice_value - 2, -2):
        out.append((HalfInt(tm), 0))
        out.append((HalfInt(tm), 1))
    return out


def coupled_basis_labels(I: HalfInt) -> list[tuple[HalfInt, HalfInt]]:
    """Coupled-basis ordering (J, M) for I (+) 1/2.

    M runs from I+1/2 down to -(I+1/2); within each M the J = I+1/2 state
    comes before J = I-1/2 (when the latter exists).
    """
    up = I + HALF
    down = I - HALF
    out = []
    for tM in range(up.twice_value, -up.twice_value - 2, -2):
        M = HalfInt(tM)
        out.append((up, M))
        if I.twice_value > 0 and abs(tM) <= down.twice_value:
            out.append((down, M))
    return out


@lru_cache(maxsize=None)
def cg_block_matrix(I: HalfInt) -> np.ndarray:
    """Clebsch-Gordan block for coupling spin I with one spin-1/2.

    Real orthogonal matrix of dimension 2(2I+1); rows are product states
    (``product_basis_labels`` order), columns are coupled states
    (``coupled_basis_labels`` order).  Condon-Shortley phases: the J = I+1/2
    column built on the highest-m product state has a positive coefficient.
    The resulting matrix is symmetric (each 2x2 mixing block is a reflection).
    Memoized per I, so the matrix is read-only.
    """
    if I.twice_value < 0:
        raise ValueError("total spin must be >= 0")
    dim = 2 * multiplicity(I)
    rows = product_basis_labels(I)
    cols = coupled_basis_labels(I)
    row_index = {lab: i for i, lab in enumerate(rows)}
    two_I = I.twice_value
    mat = np.zeros((dim, dim))
    for j, (J, M) in enumerate(cols):
        # |I+1/2, M> =  alpha |I, M-1/2>|up> + beta |I, M+1/2>|down>
        # |I-1/2, M> = -beta  |I, M-1/2>|up> + alpha |I, M+1/2>|down>
        # alpha = sqrt((I+M+1/2)/(2I+1)), beta = sqrt((I-M+1/2)/(2I+1))
        alpha = sqrt((two_I + M.twice_value + 1) / (2 * (two_I + 1)))
        beta = sqrt((two_I - M.twice_value + 1) / (2 * (two_I + 1)))
        m_up = M - HALF
        m_dn = M + HALF
        plus = J.twice_value == two_I + 1
        if abs(m_up.twice_value) <= two_I:
            mat[row_index[(m_up, 0)], j] = alpha if plus else -beta
        if abs(m_dn.twice_value) <= two_I:
            mat[row_index[(m_dn, 1)], j] = beta if plus else alpha
    mat.setflags(write=False)
    return mat


def coupled_hfc_eigenvalues(I: HalfInt) -> np.ndarray:
    """Hyperfine eigenvalues (units of a) along the coupled-basis ordering.

    a I.S has eigenvalue I/2 on the J = I+1/2 manifold and -(I+1)/2 on the
    J = I-1/2 manifold.
    """
    lam_plus = I.twice_value / 4  # I/2 with I = twice_value/2
    lam_minus = -(I.twice_value + 2) / 4
    return np.array(
        [lam_plus if J.twice_value == I.twice_value + 1 else lam_minus
         for J, _ in coupled_basis_labels(I)]
    )
