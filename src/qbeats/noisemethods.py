"""Gate-level oracles of two relaxation methods: the per-gate noisy identity and the
synthetic-hardware echo-delay procedure with statistics correction.  The Kraus
method has its oracles elsewhere: the operator sum ``relaxation.apply_channel`` and
the ancilla circuit ``library.kraus_circuit``.

Every method is one both-site channel (elapsed, T1, T2) that ``pipeline.simulate``
reads S(t) through, so neither ``simulate`` nor ``trmfe`` loads this module; the
tests and ``validate`` do.  The per-gate method inserts a noisy delay gate of
duration t on both sites of a circuit holding the pair state; that delay is the
Kraus channel of duration t.  ``per_gate_singlet_values`` runs that circuit on the
density backend at every grid point and stays as its oracle.

The echo-synthetic method reproduces the delay-based hardware procedure: (a) a
damped run and (b) a delay-only reference, (c) the correction equations, then (d)
injection of the target statistics of matched-duration echo-delay runs.  Read
exactly, it is the target channel ``config.HardwareModel.echo_channel`` applied to
the evolved pair:

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

import numpy as np

from .backends import SyntheticQubitNoise, run_density
from .circuits import Circuit
from .dynamics import singlet_values


def per_gate_singlet_values(traj: np.ndarray, times: np.ndarray,
                            T1: float, T2: float) -> np.ndarray:
    """Gate-level oracle of the noisy-identity-gate method: a delay of duration t on
    both pair sites.

    One two-site circuit runs per grid point (it starts in traj[i] and idles
    for times[i]); the backend's per-gate thermal map coincides with the
    closed-form channel that ``pipeline.simulate`` reads instead.
    """
    noise, rows = SyntheticQubitNoise(T1, T2), []
    for rho, t in zip(traj, times):
        c = Circuit(2).add("DELAY", 0, (float(t),)).add("DELAY", 1, (float(t),))
        rows.append(run_density(c, rho, noise).matrix)
    return singlet_values(np.array(rows))
