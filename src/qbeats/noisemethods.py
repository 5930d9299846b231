"""The three relaxation pipelines: closed-form Kraus, per-gate noisy identity,
and the synthetic-hardware echo-delay procedure with statistics correction.

All three act on electron-pair trajectories produced by the coherent
pipelines.  The per-gate method inserts a noisy delay gate of duration t into
a two-site circuit holding the pair state (the noise model realizes the
thermal channel gate-wise).  The echo-synthetic method reproduces the
delay-based hardware procedure: run with matched-duration echo delays under
synthetic qubit noise, run a delay-only reference, solve the correction
equations, then inject the target channel statistics.  Each circuit is one
template run by the batched density backend over the whole time grid.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .backends import SyntheticQubitNoise, partial_trace, run_density
from .circuits import Circuit
from .config import HardwareModel
from .dynamics import SINGLET, TimeSeries, pair_probabilities, singlet_values
from .hamiltonians import BlockHamiltonian
from .library import add_singlet_prep, echo_pulse_circuit, rz_encode_angle
from .noisecal import MeasurementStats, correct_stats, inject_singlet
from .relaxation import relaxed_pair_probabilities, relaxed_singlet_values


def kraus_singlet_values(traj: np.ndarray, times: np.ndarray,
                         T1: float, T2: float) -> np.ndarray:
    """Closed-form channel on both electron sites at each measurement time."""
    return relaxed_singlet_values(traj, times, T1, T2, sites="both")


def per_gate_singlet_values(traj: np.ndarray, times: np.ndarray,
                            T1: float, T2: float) -> np.ndarray:
    """Noisy-identity-gate method: a delay of duration t on both pair sites.

    One two-site circuit runs over the whole grid (row i starts in traj[i]
    and idles for times[i]); the backend's per-gate thermal map coincides
    with the closed-form channel.
    """
    t = np.asarray(times, dtype=float)
    c = Circuit(2)
    c.add("DELAY", 0, (t,))
    c.add("DELAY", 1, (t,))
    return singlet_values(run_density(c, rho0=traj, noise=SyntheticQubitNoise(T1, T2)).matrix)


def _bell_probabilities(rho: np.ndarray, e1: int, e2: int, n: int) -> np.ndarray:
    """(..., 4) Bell-outcome probabilities of the (e1, e2) pair, clipped at 0."""
    return np.clip(pair_probabilities(partial_trace(rho, (e1, e2), n)), 0.0, None)


def echo_targets(times: np.ndarray, T1: float, T2: float,
                 hardware: HardwareModel) -> MeasurementStats:
    """Desired-decay statistics at every grid time from matched echo-delay runs.

    At time t a singlet pair idles for N = (T_qubit/(T_RP t_identity)) t
    identity gates (echo pulses interleaved) under the synthetic qubit noise,
    so its decay at the end of the run matches the radical-pair decay at
    simulated time t; one template circuit covers the grid.  With infinite
    T1 the hardware cannot switch off amplitude damping, so the closed-form
    dephasing-only channel supplies the statistics instead.
    """
    t = np.asarray(times, dtype=float)
    if math.isinf(T1):
        singlet = np.broadcast_to(np.outer(SINGLET, SINGLET.conj()), (len(t), 4, 4))
        return MeasurementStats.from_array(relaxed_pair_probabilities(singlet, t, T1, T2))
    N = hardware.delay_counts(t, T1, T2)
    noise = SyntheticQubitNoise(T1=hardware.T1_ns, T2=hardware.T2_ns,
                                drift_phase_rate=hardware.drift_phase_rate)
    c = Circuit(2)
    add_singlet_prep(c, 0, 1)
    c.extend(echo_pulse_circuit(N, hardware.identity_ns, (0, 1), 2))
    return MeasurementStats.from_array(_bell_probabilities(run_density(c, noise=noise).matrix,
                                                           0, 1, 2))


def _corrected_injection(site_count: int, e1: int, e2: int, hardware: HardwareModel,
                         target: MeasurementStats, rows: int = 1, **evolution) -> np.ndarray:
    """Steps (a)-(d) of the delay-based procedure over the whole grid.

    (a) singlet prep, the batched ``evolution`` gate (``Circuit.add``
    arguments) and circuit-duration delays under the light circuit noise;
    (b) the same run without the evolution gate as the reference; (c) the
    statistics correction recovering the undamped outcome; (d) injection
    of the desired-decay ``target`` statistics.  The evolution batch holds
    ``rows`` consecutive grids; the result is (rows, T).
    """
    noise = SyntheticQubitNoise(T1=hardware.T1_ns, T2=hardware.T2_ns)
    stats = []
    for gate in (evolution, None):
        c = Circuit(site_count)
        add_singlet_prep(c, e1, e2)
        if gate:
            c.add(**gate)
        for s in (e1, e2):
            c.add("DELAY", s, (float(hardware.u_circuit_ns),))
        p = _bell_probabilities(run_density(c, noise=noise).matrix, e1, e2, site_count)
        stats.append(MeasurementStats.from_array(p.reshape((rows, -1, 4)) if gate else p))
    measured, reference = stats
    return inject_singlet(correct_stats(measured, reference), target)


def echo_synthetic_sector_values(blocks: Sequence[BlockHamiltonian], times: np.ndarray,
                                 target: MeasurementStats,
                                 hardware: HardwareModel) -> np.ndarray:
    """Delay-based noise procedure with full Hamiltonian blocks (3-site systems).

    One damped run covers every (block, time) row: the evolution gate is the
    stack of U(t) over the grid for each block in turn.  ``target`` is
    ``echo_targets`` of the same grid; the result is (blocks, T).
    """
    t = np.asarray(times, dtype=float)
    U = np.empty((len(blocks), len(t), 8, 8), dtype=complex)
    for b, H in enumerate(blocks):
        if H.dims != (2, 2, 2):
            raise ValueError("echo-synthetic full-Hamiltonian route needs a 3-qubit block")
        w, v = H.eig()
        U[b] = (v * np.exp(-1j * np.multiply.outer(t, w))[:, None, :]) @ v.conj().T
    return _corrected_injection(3, 2, 0, hardware, target, rows=len(blocks),
                                kind="UNITARY", sites=(0, 1, 2), matrix=U.reshape(-1, 8, 8))


def echo_synthetic_encoded_values(coherent: TimeSeries, target: MeasurementStats,
                                  hardware: HardwareModel) -> np.ndarray:
    """Delay-based noise procedure with S(t) encoded in an Rz rotation.

    Used when the Hamiltonian block is too large for the noisy backend: the
    coherent singlet probability is folded into a two-qubit rotation angle,
    exactly like the hardware treatment of the larger radical pair.
    ``target`` is ``echo_targets`` of the trace's grid.
    """
    return _corrected_injection(2, 0, 1, hardware, target, kind="RZ", sites=1,
                                params=(rz_encode_angle(coherent.values),))[0]
