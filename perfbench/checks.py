"""Output checks of the benchmark, computed apart from qbeats.

Each check returns a list of failure messages; an empty list passes. The
references are properties the methods must have, or a dense product-space
evolution written here with numpy alone, never a stored copy of an output.
"""

from __future__ import annotations

import math

import numpy as np

# mu_B / hbar in rad s^-1 T^-1: the model constant stated in the README of qbeats
MU_B_OVER_HBAR = 8.794e10

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_A = np.array([[0.0, -1.0], [1.0, 0.0]])  # sigma_y = i A, so Y x Y = -A x A is real
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_I2 = np.eye(2)


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a qbeats CSV by header name ('#' lines are metadata)."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {key: data[:, i] for i, key in enumerate(header)}


def check_trace(cols: dict, rows: int) -> list[str]:
    """Properties every TR-MFE output has: row count, finite values, S(0) = 1,
    0 <= S <= 1, and ratio = I_B / I_0 with both intensities positive."""
    errors = []
    if len(cols["time_ns"]) != rows:
        errors.append(f"{len(cols['time_ns'])} rows, expected {rows}")
    for key, col in cols.items():
        if not np.all(np.isfinite(col)):
            errors.append(f"{key}: non-finite values")
    if errors:
        return errors
    if cols["time_ns"][0] != 0.0:
        errors.append(f"first row at t = {cols['time_ns'][0]}, expected 0")
    for key in ("S_B", "S_0"):
        s = cols[key]
        if abs(s[0] - 1.0) > 1e-9:
            errors.append(f"{key}(0) = {s[0]!r}, expected 1")
        if s.min() < 0.0 or s.max() > 1.0:
            errors.append(f"{key} outside [0, 1]: [{s.min()!r}, {s.max()!r}]")
    if cols["I_B"].min() <= 0.0 or cols["I_0"].min() <= 0.0:
        errors.append("non-positive intensity")
    else:
        rel = np.abs(cols["ratio"] - cols["I_B"] / cols["I_0"]) / np.abs(cols["ratio"])
        if rel.max() > 1e-12:
            errors.append(f"ratio differs from I_B/I_0 by {rel.max():.2e} (relative)")
    return errors


def _decay(t, T: float):
    """exp(-t/T); exactly 1 for T = inf."""
    return np.exp(-np.asarray(t, dtype=float) / T)


def check_envelope(cols: dict, relaxation: dict) -> list[str]:
    """Thermal relaxation bounds the singlet trace around its limit 1/4.

    S = (1 - f^2 <XX> - f^2 <YY> - g^2 <ZZ>) / 4 with f = exp(-t/T2) and
    g = exp(-t/T1) on both electrons, so |S - 1/4| <= (2 f^2 + g^2) / 4.
    """
    errors = []
    t = cols["time_ns"]
    for key, regime in (("S_B", "high"), ("S_0", "zero")):
        T1, T2 = relaxation[regime]
        bound = (2 * _decay(t, T2) ** 2 + _decay(t, T1) ** 2) / 4
        excess = np.abs(cols[key] - 0.25) - bound
        if excess.max() > 1e-12:
            i = int(excess.argmax())
            errors.append(f"{key} at t = {t[i]} ns is {cols[key][i]!r}, "
                          f"outside 1/4 +- {bound[i]:.3e}")
    return errors


def check_agreement(cols: dict, ref: dict, tol_high: float, tol_zero: float,
                    label: str) -> list[str]:
    """S_B and S_0 within the given distances of a reference run."""
    errors = []
    if not np.array_equal(cols["time_ns"], ref["time_ns"]):
        return [f"grid differs from the {label} grid"]
    for key, tol in (("S_B", tol_high), ("S_0", tol_zero)):
        dev = float(np.abs(cols[key] - ref[key]).max())
        if not dev <= tol:
            errors.append(f"{key} differs from {label} by {dev:.2e} (tolerance {tol:g})")
    return errors


def _collective(n: int, P: np.ndarray) -> np.ndarray:
    """Sum over n spin-1/2 sites of the Pauli matrix P on that site."""
    out = np.zeros((2**n, 2**n))
    for k in range(n):
        out += np.kron(np.kron(np.eye(2**k), P), np.eye(2 ** (n - k - 1)))
    return out


def dense_singlet(system: dict, regime: str, times: np.ndarray) -> np.ndarray:
    """Relaxed S(t) of one nuclear group, evolved on the full product space.

    Sites (e1, e2, nucleus 1..n); H = a I.S1 - b1 Z_e1 - b2 Z_e2 with
    a = mu_B g1 A / hbar and b = mu_B g B / (2 hbar); the nuclei start fully
    mixed, the electrons in the singlet. The closed-form infinite-temperature
    channel on both electrons scales <XX>, <YY> by f^2 and <ZZ> by g^2.
    """
    (group,) = system["groups"]
    n = int(group["count"])
    a_mT = float(group["hfc_mT"]) if "hfc_mT" in group else 0.1 * float(group["hfc_G"])
    g_e1, g_e2 = float(system["g1"]), float(system["g2"])
    B = float(system["field_B"]) if regime == "high" else 0.0
    T1, T2 = (float(system["relaxation"][regime][k]) for k in ("T1", "T2"))
    a = MU_B_OVER_HBAR * g_e1 * a_mT * 1e-12
    b1, b2 = (0.5 * MU_B_OVER_HBAR * g * B * 1e-9 for g in (g_e1, g_e2))

    N = 2**n
    H = a / 4 * (np.kron(np.kron(_X, _I2), _collective(n, _X))
                 - np.kron(np.kron(_A, _I2), _collective(n, _A))
                 + np.kron(np.kron(_Z, _I2), _collective(n, _Z)))
    H -= b1 * np.kron(np.kron(_Z, _I2), np.eye(N))
    H -= b2 * np.kron(np.kron(_I2, _Z), np.eye(N))
    w, V = np.linalg.eigh(H)

    psi0 = np.zeros((4, N, N))  # (pair e1e2, nucleus, column r): |S> x |r>
    psi0[1] = np.eye(N) / math.sqrt(2)
    psi0[2] = -np.eye(N) / math.sqrt(2)
    C = V.T @ psi0.reshape(4 * N, N)
    xx, yy, zz = np.kron(_X, _X), -np.kron(_A, _A), np.kron(_Z, _Z)
    ev = np.empty((len(times), 3))  # <XX>, <YY>, <ZZ> of the unrelaxed pair
    for i, t in enumerate(times):
        M = (V @ (np.exp(-1j * w * t)[:, None] * C)).reshape(4, N * N)
        rho = M @ M.conj().T / N
        ev[i] = [np.real(np.trace(rho @ P)) for P in (xx, yy, zz)]
    f2, g2 = _decay(times, T2) ** 2, _decay(times, T1) ** 2
    return (1.0 - f2 * (ev[:, 0] + ev[:, 1]) - g2 * ev[:, 2]) / 4


def check_dense(cols: dict, system: dict, indices, tol_high: float,
                tol_zero: float) -> list[str]:
    """S_B and S_0 at the given rows against the dense evolution."""
    errors = []
    idx = np.asarray(sorted(indices))
    times = cols["time_ns"][idx]
    for key, regime, tol in (("S_B", "high", tol_high), ("S_0", "zero", tol_zero)):
        dev = np.abs(cols[key][idx] - dense_singlet(system, regime, times))
        if not dev.max() <= tol:
            i = int(dev.argmax())
            errors.append(f"{key} at t = {times[i]} ns differs from the dense evolution "
                          f"by {dev[i]:.2e} (tolerance {tol:g})")
    return errors
