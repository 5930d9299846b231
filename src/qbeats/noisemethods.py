"""The three relaxation pipelines: closed-form Kraus, per-gate noisy identity,
and the synthetic-hardware echo-delay procedure with statistics correction.

All three act on electron-pair states produced by the coherent pipelines.
The per-gate method inserts a noisy delay gate of duration t on both sites
of a circuit holding the pair state; that delay is the both-site thermal
channel of duration t, so ``pipeline.simulate`` reads it in closed form
from the pair correlators, exactly as for the Kraus method.
``per_gate_singlet_values`` runs the gate-level circuit on the batched
density backend over a whole time grid and stays as its oracle.  The
echo-synthetic method reproduces the delay-based hardware procedure: a
damped run and a delay-only reference, the correction equations, then
injection of the target statistics of matched-duration echo-delay runs.
All three of its runs are read out in closed form from pair correlators;
the gate-level circuits stay in the tests as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .backends import SyntheticQubitNoise, run_density
from .circuits import Circuit
from .config import HardwareModel
from .dynamics import singlet_values
from .noisecal import MeasurementStats, correct_stats, inject_singlet
from .relaxation import SINGLET_CORRELATORS, relaxed_bell_probabilities, relaxed_singlet_values


def kraus_singlet_values(traj: np.ndarray, times: np.ndarray,
                         T1: float, T2: float) -> np.ndarray:
    """Closed-form channel on both electron sites at each measurement time."""
    return relaxed_singlet_values(traj, times, T1, T2, sites="both")


def per_gate_singlet_values(traj: np.ndarray, times: np.ndarray,
                            T1: float, T2: float) -> np.ndarray:
    """Gate-level oracle of the noisy-identity-gate method: a delay of duration t on
    both pair sites.

    One two-site circuit runs over the whole grid (row i starts in traj[i]
    and idles for times[i]); the backend's per-gate thermal map coincides
    with the closed-form channel that ``pipeline.simulate`` reads instead.
    """
    t = np.asarray(times, dtype=float)
    c = Circuit(2)
    c.add("DELAY", 0, (t,))
    c.add("DELAY", 1, (t,))
    return singlet_values(run_density(c, rho0=traj, noise=SyntheticQubitNoise(T1, T2)).matrix)


def echo_targets(times: np.ndarray, T1: float, T2: float,
                 hardware: HardwareModel) -> MeasurementStats:
    """Desired-decay statistics at every grid time from matched echo-delay runs.

    At time t a singlet pair idles for N = (T_qubit/(T_RP t_identity)) t
    identity gates (echo pulses interleaved) under the synthetic qubit noise,
    so its decay at the end of the run matches the radical-pair decay at
    simulated time t.  The per-site thermal map commutes with X and the
    delay segments N/8, N/4, N/4, N/4, N/8 between the four X pulses sum the
    drift phase to zero, so the run is the both-site channel of duration
    N t_identity at the hardware (T1, T2), read out in closed form.  With
    infinite T1 the hardware cannot switch off amplitude damping, so the
    dephasing-only channel of duration t supplies the statistics instead.
    """
    t = np.asarray(times, dtype=float)
    if not math.isinf(T1):
        t, T1, T2 = (hardware.delay_counts(t, T1, T2) * hardware.identity_ns,
                     hardware.T1_ns, hardware.T2_ns)
    p = relaxed_bell_probabilities(SINGLET_CORRELATORS[:, None], t, T1, T2)
    return MeasurementStats.from_array(np.clip(p, 0.0, None))


def echo_synthetic_values(correlators: np.ndarray, target: MeasurementStats,
                          hardware: HardwareModel) -> np.ndarray:
    """Steps (a)-(d) of the delay-based procedure over the whole grid.

    ``correlators`` (4, ..., T) are the (w, <ZZ>, <XX + YY>, <Z1 + Z2>) of the
    evolved pair, ``target`` is ``echo_targets`` of the same grid.  In the
    hardware run only the two circuit-duration delays after the evolution
    relax, so (a) the damped run and (b) its delay-only reference on a fresh
    singlet are the both-site channel at ``u_circuit_ns`` under the light
    circuit noise, read out in closed form; then (c) the statistics
    correction recovers the undamped outcome and (d) the desired-decay
    ``target`` statistics are injected.
    """
    def measured(c: np.ndarray) -> MeasurementStats:
        p = relaxed_bell_probabilities(c, hardware.u_circuit_ns, hardware.T1_ns, hardware.T2_ns)
        return MeasurementStats.from_array(np.clip(p, 0.0, None))

    return inject_singlet(correct_stats(measured(correlators), measured(SINGLET_CORRELATORS)),
                          target)


def rz_encoded_correlators(singlet: np.ndarray) -> np.ndarray:
    """(4, T) correlators of a singlet pair after the Rz rotation that encodes S(t) in
    its singlet outcome, the hardware treatment of a pair too large for the device:
    only <XX + YY> = 2 (1 - 2 S) moves."""
    s = np.asarray(singlet, dtype=float)
    return np.stack(np.broadcast_arrays(1.0, -1.0, 2 * (1 - 2 * s), 0.0))
