"""Builders for the experiment-level circuits.

Singlet preparation, the ancilla Kraus realization of the thermal channel,
nuclear-register purification, echo-pulse delay runs, and first-order
product-formula evolution over Pauli strings.
"""

from __future__ import annotations

import math

from .circuits import Circuit
from .relaxation import RelaxationParams

# ---------------------------------------------------------------------------
# Singlet preparation (X, H, CNOT pattern)
# ---------------------------------------------------------------------------

def add_singlet_prep(circuit: Circuit, e1: int, e2: int) -> Circuit:
    """Prepare (|01> - |10>)/sqrt(2) on (e1, e2) from |00>."""
    circuit.add("X", e1)
    circuit.add("X", e2)
    circuit.add("H", e1)
    circuit.add("CNOT", (e1, e2))
    return circuit


# ---------------------------------------------------------------------------
# Kraus circuit (exemplary system qubit + electron pair + ancilla)
# ---------------------------------------------------------------------------

def kraus_circuit(params: RelaxationParams, system_site: int, ancilla_site: int,
                  site_count: int) -> Circuit:
    """Ancilla realization of the infinite-temperature thermal channel.

    Probabilistic X at p = 1/2 flips the amplitude-damping direction
    (infinite temperature); two CNOTs plus a controlled-X rotation implement
    the damping itself; the probabilistic Z adds dephasing.  Tracing the
    ancilla reproduces the closed-form channel exactly.
    """
    c = Circuit(site_count)
    if params.p_x > 0:
        c.add("X", ancilla_site, prob=0.5)
        c.add("CNOT", (system_site, ancilla_site))
        c.add("CRX", (ancilla_site, system_site), (params.phi_x,))
        c.add("CNOT", (system_site, ancilla_site))
    if params.p_z > 0:
        c.add("Z", system_site, prob=params.p_z)
    return c


# ---------------------------------------------------------------------------
# Purification
# ---------------------------------------------------------------------------

def purification_circuit(n_nuclear_sites: int) -> Circuit:
    """Maximally entangle n nuclear sites with n ancillas.

    Sites 0..n-1 are the ancillas, n..2n-1 the nuclear register; tracing the
    ancillas from the output leaves identity/2^n on the nuclear block.
    """
    c = Circuit(2 * n_nuclear_sites)
    for k in range(n_nuclear_sites):
        c.add("H", k)
    for k in range(n_nuclear_sites):
        c.add("CNOT", (k, n_nuclear_sites + k))
    return c


# ---------------------------------------------------------------------------
# Echo-pulse delay runs
# ---------------------------------------------------------------------------

def echo_pulse_circuit(N: int, t_identity: float, sites: tuple[int, ...],
                       site_count: int) -> Circuit:
    """Delay pattern I^(N/8) X I^(N/4) X I^(N/4) X I^(N/4) X I^(N/8).

    N identity gates in total, required divisible by 8; each delay segment is
    one DELAY gate of the aggregate duration.  The four X pulses cancel the
    deterministic drift phase accumulated during the delays.
    """
    if N % 8 != 0:
        raise ValueError(f"delay count must be divisible by 8, got {N}")
    if N < 0:
        raise ValueError("delay count must be nonnegative")
    c = Circuit(site_count)
    segments = [N // 8, N // 4, N // 4, N // 4, N // 8]
    for i, seg in enumerate(segments):
        for s in sites:
            c.add("DELAY", s, (seg * t_identity,))
        if i < 4:
            for s in sites:
                c.add("X", s)
    return c


# ---------------------------------------------------------------------------
# First-order Trotter circuits over Pauli strings
# ---------------------------------------------------------------------------

def _add_pauli_exponential(c: Circuit, coeff: float, string: str, dt: float) -> None:
    """Append exp(-i coeff P dt) for one Pauli string."""
    letters = [(site, ch) for site, ch in enumerate(string) if ch != "I"]
    if not letters:
        return  # global phase only
    # basis changes into Z
    for site, ch in letters:
        if ch == "X":
            c.add("H", site)
        elif ch == "Y":
            c.add("RX", site, (math.pi / 2,))
    chain = [site for site, _ in letters]
    for a, b in zip(chain, chain[1:]):
        c.add("CNOT", (a, b))
    c.add("RZ", chain[-1], (2.0 * coeff * dt,))
    for a, b in reversed(list(zip(chain, chain[1:]))):
        c.add("CNOT", (a, b))
    for site, ch in letters:
        if ch == "X":
            c.add("H", site)
        elif ch == "Y":
            c.add("RX", site, (-math.pi / 2,))


def trotterized_pauli_evolution(terms: list[tuple[float, str]], t: float,
                                steps: int) -> Circuit:
    """First-order product formula over the given (coefficient, string) terms.

    Error versus the exact exponential decreases as O(1/steps).  Identity
    strings contribute only a global phase and are skipped.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = len(terms[0][1])
    if any(len(s) != n for _, s in terms):
        raise ValueError("all Pauli strings must have equal length")
    c = Circuit(n)
    dt = t / steps
    for _ in range(steps):
        for coeff, string in terms:
            _add_pauli_exponential(c, coeff, string, dt)
    return c
