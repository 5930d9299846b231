"""Statevector and density-matrix circuit backends: the gate-level oracle.

The statevector backend runs deterministic circuits.  The density backend
also runs probabilistic gates, each as the exact mixture (1 - p) rho +
p U rho U^dagger, never a sample, and optionally attaches a synthetic
thermal noise model: during every delay each of its sites relaxes at one
(T1, T2) shared by all sites and accumulates its own deterministic drift
phase.  That one mechanism is the gate-level oracle of the noisy-identity-gate
method and of the echo-delay runs of the delay-based inherent-noise method,
whose closed forms the pipeline reads instead; ``simulate`` and ``trmfe``
never load this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .dynamics import DensityMatrix
from .hamiltonians import SIGMA_X, SIGMA_Z, check_relaxation_times
from .kak import CNOT_01, u3_matrix
from .relaxation import thermal_map

STATEVECTOR_MAX_SITES = 12
DENSITY_NOISE_MAX_SITES = 6


@dataclass(frozen=True)
class SyntheticQubitNoise:
    """Thermal relaxation during delays standing in for inherent hardware noise."""

    T1: float  # ns, for every site
    T2: float
    # deterministic per-site Z-phase accumulated during delays, rad/ns;
    # a common-mode rate is invisible to the singlet subspace
    drift_phase_rate: tuple[float, ...] | float = 0.0

    def site_drift(self, site: int) -> float:
        if isinstance(self.drift_phase_rate, tuple):
            return self.drift_phase_rate[site]
        return self.drift_phase_rate


def _gate_matrix(gate: Gate) -> np.ndarray:
    k = gate.kind
    if k == "UNITARY":
        return gate.matrix
    if k == "X":
        return SIGMA_X
    if k == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    if k == "Z":
        return SIGMA_Z
    if k == "DELAY":
        return np.eye(2, dtype=complex)
    if k == "RX":
        th = gate.params[0] / 2
        return np.array([[math.cos(th), -1j * math.sin(th)],
                         [-1j * math.sin(th), math.cos(th)]], dtype=complex)
    if k == "RZ":
        th = gate.params[0] / 2
        return np.diag([np.exp(-1j * th), np.exp(1j * th)])
    if k == "U3":
        return u3_matrix(*gate.params)
    if k == "CNOT":
        return CNOT_01
    if k == "CRX":
        rx = _gate_matrix(Gate("RX", (0,), (gate.params[0],)))
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = rx
        return out
    raise ValueError(f"unknown gate kind {k!r}")


def apply_unitary_to_state(psi: np.ndarray, U: np.ndarray, sites: tuple[int, ...],
                           n: int) -> np.ndarray:
    """Apply U on the given sites of an n-qubit statevector."""
    order = list(sites) + [q for q in range(n) if q not in sites]  # the gate's sites first
    work = psi.reshape([2] * n).transpose(order)
    work = (U @ work.reshape(len(U), -1)).reshape(work.shape)
    return work.transpose(np.argsort(order)).reshape(-1)


def apply_unitary_to_density(rho: np.ndarray, U: np.ndarray, sites: tuple[int, ...],
                             n: int) -> np.ndarray:
    """U rho U^dagger on the given sites: U on the ket indices, conj(U) on the bra ones."""
    work = apply_unitary_to_state(rho.reshape(-1), U, sites, 2 * n)
    bra = tuple(n + s for s in sites)
    return apply_unitary_to_state(work, U.conj(), bra, 2 * n).reshape(rho.shape)


def _relax_sites(rho: np.ndarray, gate: Gate, noise: SyntheticQubitNoise,
                 n: int) -> np.ndarray:
    """Per-site thermal map for the gate's duration, in place on a (d, d) state.

    ``relaxation.thermal_map`` on each of the gate's sites, its coherence factor
    exp(-dt/T2) times the drift phase exp(-i rate dt): the thermal channel
    followed by the drift RZ.  Only a delay lasts; a gate with dt <= 0 leaves
    the state as it is.
    """
    dt = gate.duration
    if dt <= 0.0:
        return rho
    check_relaxation_times(noise.T1, noise.T2)
    with np.errstate(over="ignore"):  # dt/T past the float range: exp(-inf) = 0 exactly
        damping, decay = np.exp(-dt / noise.T1), np.exp(-dt / noise.T2)
    work = rho.reshape((2,) * (2 * n))
    for s in gate.sites:
        coherence = decay * np.exp(-1j * noise.site_drift(s) * dt)
        thermal_map(np.moveaxis(work, (s, n + s), (0, 1)), damping, coherence)  # in place
    return work.reshape(rho.shape)


def run_statevector(circuit: Circuit, psi0: np.ndarray | None = None) -> np.ndarray:
    """Deterministic statevector simulation (no probabilistic gates, no noise)."""
    n = circuit.site_count
    if n > STATEVECTOR_MAX_SITES:
        raise ValueError(f"statevector backend capped at {STATEVECTOR_MAX_SITES} sites")
    if circuit.probabilistic_gates:
        raise ValueError("probabilistic gates require run_density")
    if psi0 is None:
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.array(psi0, dtype=complex)
    for g in circuit.gates:
        psi = apply_unitary_to_state(psi, _gate_matrix(g), g.sites, n)
    return psi


def run_density(circuit: Circuit, rho0: np.ndarray | None = None,
                noise: SyntheticQubitNoise | None = None) -> DensityMatrix:
    """Density-matrix simulation with exact probabilistic-gate mixtures.

    With a noise model attached, each delay relaxes its sites for its duration
    and accumulates the model's deterministic drift phase.
    """
    n = circuit.site_count
    if noise is not None and n > DENSITY_NOISE_MAX_SITES:
        raise ValueError(f"density backend with noise capped at {DENSITY_NOISE_MAX_SITES} sites")
    if noise is None and n > STATEVECTOR_MAX_SITES // 2:
        raise ValueError("density backend capped at "
                         f"{STATEVECTOR_MAX_SITES // 2} sites without noise")
    if rho0 is None:
        rho = np.zeros((2**n, 2**n), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho = np.array(rho0, dtype=complex)

    for g in circuit.gates:
        if g.kind != "DELAY":
            applied = apply_unitary_to_density(rho, _gate_matrix(g), g.sites, n)
            rho = applied if g.prob is None else (1.0 - g.prob) * rho + g.prob * applied
        if noise is not None:
            rho = _relax_sites(rho, g, noise, n)
    return DensityMatrix(rho, (2,) * n, tuple(f"q{i}" for i in range(n)))


def partial_trace(rho: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """Trace out all sites except ``keep`` (result ordered as ``keep``)."""
    work = rho.reshape((2,) * (2 * n))
    m = n
    for s in sorted((s for s in range(n) if s not in keep), reverse=True):
        # descending order keeps lower site axes in place
        work = np.trace(work, axis1=s, axis2=s + m)
        m -= 1
    k = len(keep)
    rank = list(np.argsort(np.argsort(keep)))
    return np.transpose(work, rank + [k + r for r in rank]).reshape(2**k, 2**k)
