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

import numpy as np

from .backends import SyntheticQubitNoise, partial_trace, run_density
from .circuits import Circuit
from .config import HardwareModel
from .dynamics import SINGLET, TimeSeries, pair_probabilities, singlet_values
from .hamiltonians import BlockHamiltonian
from .library import add_singlet_prep, delay_gate_count, echo_pulse_circuit, rz_encode_angle
from .noisecal import MeasurementStats, correct_stats, inject_singlet
from .relaxation import relaxed_pair_probabilities, relaxed_singlet_values


def effective_decay_constant(T1: float, T2: float) -> float:
    """Radical-pair decay constant for delay-count matching (mean of finite values)."""
    finite = [T for T in (T1, T2) if math.isfinite(T)]
    if not finite:
        raise ValueError("echo-based noise requires at least one finite relaxation time")
    return sum(finite) / len(finite)


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


def _bell_stats_from_density(rho: np.ndarray, e1: int, e2: int, n: int) -> MeasurementStats:
    pair = partial_trace(rho, (e1, e2), n)
    return MeasurementStats.from_array(np.clip(pair_probabilities(pair), 0.0, None))


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
    T_rp = effective_decay_constant(T1, T2)
    T_qubit = (hardware.T1_ns + hardware.T2_ns) / 2
    N = delay_gate_count(t, T_qubit, T_rp, hardware.identity_ns)
    noise = SyntheticQubitNoise(T1=hardware.T1_ns, T2=hardware.T2_ns,
                                drift_phase_rate=hardware.drift_phase_rate)
    c = Circuit(2)
    add_singlet_prep(c, 0, 1)
    c.extend(echo_pulse_circuit(N, hardware.identity_ns, (0, 1), 2))
    return _bell_stats_from_density(run_density(c, noise=noise).matrix, 0, 1, 2)


def _corrected_injection(site_count: int, e1: int, e2: int, hardware: HardwareModel,
                         target: MeasurementStats, **evolution) -> np.ndarray:
    """Steps (a)-(d) of the delay-based procedure over the whole grid.

    (a) singlet prep, the batched ``evolution`` gate (``Circuit.add``
    arguments) and circuit-duration delays under the light circuit noise;
    (b) the same run without the evolution gate as the reference; (c) the
    statistics correction recovering the undamped outcome; (d) injection
    of the desired-decay ``target`` statistics.
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
        stats.append(_bell_stats_from_density(run_density(c, noise=noise).matrix,
                                              e1, e2, site_count))
    measured, reference = stats
    return inject_singlet(correct_stats(measured, reference), target)


def echo_synthetic_sector_values(H: BlockHamiltonian, times: np.ndarray,
                                 target: MeasurementStats,
                                 hardware: HardwareModel) -> np.ndarray:
    """Delay-based noise procedure with full Hamiltonian blocks (3-site systems).

    The evolution gate is the stack of U(t) over the grid; ``target`` is
    ``echo_targets`` of the same grid.
    """
    if H.dims != (2, 2, 2):
        raise ValueError("echo-synthetic full-Hamiltonian route needs a 3-qubit block")
    w, v = H.eig()
    phases = np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=float), w))
    U = (v * phases[:, None, :]) @ v.conj().T
    return _corrected_injection(3, 2, 0, hardware, target,
                                kind="UNITARY", sites=(0, 1, 2), matrix=U)


def echo_synthetic_encoded_values(coherent: TimeSeries, target: MeasurementStats,
                                  hardware: HardwareModel) -> np.ndarray:
    """Delay-based noise procedure with S(t) encoded in an Rz rotation.

    Used when the Hamiltonian block is too large for the noisy backend: the
    coherent singlet probability is folded into a two-qubit rotation angle,
    exactly like the hardware treatment of the larger radical pair.
    ``target`` is ``echo_targets`` of the trace's grid.
    """
    return _corrected_injection(2, 0, 1, hardware, target, kind="RZ", sites=1,
                                params=(rz_encode_angle(coherent.values),))
