"""Gate-level circuit representation.

Circuits are the oracle of the noise methods' closed forms: the tests and
``validate`` build them, ``simulate`` and ``trmfe`` never do.  Sites are qubit
indices; site 0 is the leftmost (most significant) tensor factor.
Probabilistic gates carry an insertion probability; the density backend
applies each one as an exact mixture, never a sample.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

KINDS_2Q = ("CNOT", "CRX")
PARAM_COUNTS = {"X": 0, "H": 0, "Z": 0, "RX": 1, "RZ": 1, "U3": 3, "DELAY": 1,
                "CNOT": 0, "CRX": 1}


@dataclass(frozen=True)
class Gate:
    """One circuit element; DELAY params hold the duration in ns."""

    kind: str
    sites: tuple[int, ...]
    params: tuple[float, ...] = ()
    prob: float | None = None
    matrix: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind == "UNITARY":
            if self.matrix is None:
                raise ValueError("UNITARY gate requires a matrix")
            d = 2 ** len(self.sites)
            if self.matrix.shape != (d, d):
                raise ValueError("UNITARY matrix size does not match site count")
        elif self.kind in PARAM_COUNTS:
            if len(self.params) != PARAM_COUNTS[self.kind]:
                raise ValueError(f"{self.kind} expects {PARAM_COUNTS[self.kind]} params")
            n_sites = 2 if self.kind in KINDS_2Q else 1
            if len(self.sites) != n_sites:
                raise ValueError(f"{self.kind} expects {n_sites} site(s)")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.prob is not None and not 0.0 <= self.prob <= 1.0:
            raise ValueError("gate probability must be in [0, 1]")
        if len(set(self.sites)) != len(self.sites):
            raise ValueError("gate sites must be distinct")
        if not all(isinstance(p, numbers.Real) and math.isfinite(p) for p in self.params):
            raise ValueError("gate parameters must be finite real numbers")

    @property
    def duration(self) -> float:
        return self.params[0] if self.kind == "DELAY" else 0.0


@dataclass
class Circuit:
    """Ordered gate list over a fixed number of qubit sites."""

    site_count: int
    gates: list[Gate] = field(default_factory=list)

    def add(self, kind: str, sites, params=(), prob=None, matrix=None) -> "Circuit":
        sites = (sites,) if isinstance(sites, int) else tuple(sites)
        params = (params,) if isinstance(params, (int, float)) else tuple(params)
        gate = Gate(kind, sites, params, prob, matrix)
        if any(s < 0 or s >= self.site_count for s in gate.sites):
            raise ValueError(f"gate sites {gate.sites} out of range for {self.site_count} sites")
        self.gates.append(gate)
        return self

    def extend(self, other: "Circuit") -> "Circuit":
        if other.site_count != self.site_count:
            raise ValueError("site counts differ")
        self.gates.extend(other.gates)
        return self

    @property
    def probabilistic_gates(self) -> list[int]:
        return [i for i, g in enumerate(self.gates) if g.prob is not None]
