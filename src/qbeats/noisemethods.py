"""The three relaxation methods as both-site thermal channels, with their gate-level
oracles: closed-form Kraus, per-gate noisy identity, and the synthetic-hardware
echo-delay procedure with statistics correction.

Every method is one both-site channel (elapsed, T1, T2) that ``pipeline.simulate``
reads S(t) through.  The per-gate method inserts a noisy delay gate of duration t
on both sites of a circuit holding the pair state; that delay is the Kraus channel
of duration t.  ``per_gate_singlet_values`` runs the gate-level circuit on the
batched density backend over a whole time grid and stays as its oracle.

The echo-synthetic method reproduces the delay-based hardware procedure: (a) a
damped run and (b) a delay-only reference, (c) the correction equations, then (d)
injection of the target statistics of matched-duration echo-delay runs.  Read
exactly, it is the target channel ``echo_channel`` applied to the evolved pair:

- for a unit-trace pair, ``noisecal.correct_stats`` of the ``u_circuit_ns`` damped
  and reference runs returns the undamped S and T0 exactly;
- it returns T+- = (1 + <ZZ>)/4 +- <Z1 + Z2>/(4 g_u), not the undamped T+-;
- the target has T+'' = T-'', so the <Z1 + Z2> part cancels on injection, which
  leaves (w - g^2 <ZZ> - f^2 <XX + YY>)/4 with g, f the target channel's factors.

So runs (a) and (b), and ``u_circuit_ns`` with them, reach S(t) only through
the correction floor, which ``config`` checks at parse time.  Steps (a)-(d) on
gate-level circuits stay in the tests and in ``validate --suite correction`` as
the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .backends import SyntheticQubitNoise, run_density
from .circuits import Circuit
from .config import HardwareModel
from .dynamics import singlet_values
from .relaxation import relaxed_singlet_values


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


def echo_channel(times: np.ndarray, T1: float, T2: float, hardware: HardwareModel):
    """The both-site channel (elapsed, T1, T2) of the echo-delay target runs on a grid.

    At time t a singlet pair idles for N = (T_qubit/(T_RP t_identity)) t
    identity gates (echo pulses interleaved) under the synthetic qubit noise,
    so its decay at the end of the run matches the radical-pair decay at
    simulated time t.  The per-site thermal map commutes with X and the
    delay segments N/8, N/4, N/4, N/4, N/8 between the four X pulses sum the
    drift phase to zero, so the run is the both-site channel of duration
    N t_identity at the hardware (T1, T2).  With infinite T1 the hardware
    cannot switch off amplitude damping, so the dephasing-only channel of
    duration t, the Kraus channel, supplies the target instead.
    """
    t = np.asarray(times, dtype=float)
    if math.isinf(T1):
        return t, T1, T2
    return hardware.delay_counts(t, T1, T2) * hardware.identity_ns, hardware.T1_ns, hardware.T2_ns


def rz_encoded_correlators(singlet: np.ndarray) -> np.ndarray:
    """(4, T) correlators of a singlet pair after the Rz rotation that encodes S(t) in
    its singlet outcome, the hardware treatment of a pair too large for the device:
    only <XX + YY> = 2 (1 - 2 S) moves."""
    s = np.asarray(singlet, dtype=float)
    return np.stack(np.broadcast_arrays(1.0, -1.0, 2 * (1 - 2 * s), 0.0))
