"""KAK decomposition of 4x4 unitaries into 3 CNOTs and 8 single-site U3 gates.

Fixed circuit template (site 0 = first tensor factor):

    q0: -- U3 -- X -- U3 -- o -- U3 ------- X -- U3 --
    q1: -- U3 -- o -- U3 -- X -- U3(id) --- o -- U3 --

i.e. locals, CNOT(1->0), locals, CNOT(0->1), locals, CNOT(1->0), locals.
The interior rotation angles come from the eigenphases of
gamma(U) = (E^dag U' E)(E^dag U' E)^T with U' = e^{i pi/4} SWAP U, and the
outer locals from simultaneous diagonalization of gamma(U)/gamma(V) in the
magic basis E.  Everything is deterministic; degenerate spectra are handled
by retrying the real/imaginary mixing weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit

MAGIC = np.array(
    [[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]], dtype=complex
) / math.sqrt(2)
MAGIC_DAG = MAGIC.conj().T

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CNOT_01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CNOT_10 = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
CNOTS = ((1, 0), (0, 1), (1, 0))  # (control, target) of the template's three CNOTs

# Deterministic (real, imag) mixing weights for the eigh-based simultaneous
# diagonalization; later entries only engage on degenerate spectra.
_MIX_WEIGHTS = [(1.0, 1.0), (1 / math.pi, math.pi), (0.37454, 1.95071),
                (1.39986, 0.29653), (0.15616, 0.86618)]


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


def u3_angles(V: np.ndarray) -> tuple[float, float, float]:
    """(theta, phi, lam) with u3_matrix(...) = V up to global phase."""
    a, b = abs(V[0, 0]), abs(V[1, 0])
    theta = 2.0 * math.atan2(b, a)
    if a > 1e-9:
        g = np.angle(V[0, 0])
        phi = float(np.angle(V[1, 0]) - g) if b > 1e-12 else 0.0
        lam = float(np.angle(-V[0, 1]) - g) if b > 1e-12 else float(np.angle(V[1, 1]) - g)
    else:
        phi = float(np.angle(V[1, 0]))
        lam = float(np.angle(-V[0, 1]))
    return theta, phi, lam


def _kron_factor(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split M = A kron B for a (numerically) product 4x4 matrix."""
    r, c = np.unravel_index(np.argmax(np.abs(M)), M.shape)
    r1, r2, c1, c2 = r >> 1, r & 1, c >> 1, c & 1
    B = M[2 * r1:2 * r1 + 2, 2 * c1:2 * c1 + 2].copy()
    A = np.array(
        [[M[2 * i + r2, 2 * j + c2] for j in range(2)] for i in range(2)], dtype=complex
    ) / B[r2, c2]
    # balance magnitudes; phases stay consistent by construction
    sa = np.sqrt(np.abs(np.linalg.det(A)))
    if sa > 0:
        A, B = A / sa, B * sa
    return A, B


def _so4_diagonalizer(gamma: np.ndarray, wr: float, wi: float) -> np.ndarray:
    _, p = np.linalg.eigh(wr * gamma.real + wi * gamma.imag)
    if np.linalg.det(p) < 0:
        p[:, -1] = -p[:, -1]
    return p


@dataclass
class KakDecomposition:
    """3-CNOT/8-U3 realization of a two-qubit unitary, up to global phase."""

    u3_layers: tuple  # 4 layers x 2 sites of (theta, phi, lam)
    global_phase: complex = 1.0 + 0j

    def local_layer_matrix(self, layer: int) -> np.ndarray:
        g0 = u3_matrix(*self.u3_layers[layer][0])
        g1 = u3_matrix(*self.u3_layers[layer][1])
        return np.kron(g0, g1)

    def reconstruct(self) -> np.ndarray:
        cnot = {(0, 1): CNOT_01, (1, 0): CNOT_10}
        out = self.local_layer_matrix(0)
        for i, placement in enumerate(CNOTS):
            out = cnot[placement] @ out
            out = self.local_layer_matrix(i + 1) @ out
        return self.global_phase * out

    def to_circuit(self, sites: tuple[int, int] = (0, 1), site_count: int = 2) -> Circuit:
        c = Circuit(site_count)
        for layer in range(4):
            for q in range(2):
                theta, phi, lam = self.u3_layers[layer][q]
                c.add("U3", sites[q], (theta, phi, lam))
            if layer < 3:
                ctrl, targ = CNOTS[layer]
                c.add("CNOT", (sites[ctrl], sites[targ]))
        return c


def kak_decompose(U: np.ndarray) -> KakDecomposition:
    """Decompose a 4x4 unitary into the fixed 3-CNOT/8-U3 template.

    Raises for non-unitary input; reconstruction agrees with U up to global
    phase to well below 1e-9 for generic and special inputs alike.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if np.abs(U @ U.conj().T - np.eye(4)).max() > 1e-11:
        raise ValueError("input matrix is not unitary")

    det = np.linalg.det(U)
    U_su = U * det ** (-0.25)

    swap_U = np.exp(1j * math.pi / 4) * (SWAP @ U_su)
    u = MAGIC_DAG @ swap_U @ MAGIC
    gamma_u = u @ u.T

    evs = np.linalg.eigvals(gamma_u)
    angles = np.sort(np.angle(evs))
    x, y, z = angles[0], angles[1], angles[2]
    alpha, beta, delta = (x + y) / 2, (x + z) / 2, (z + y) / 2

    # Interior circuit (gate order): CNOT10, RZ(delta) x RY(beta), CNOT01,
    # 1 x RY(alpha), CNOT10; a SWAP restores det compatibility with swap_U.
    rzd = u3_matrix(0.0, 0.0, delta) * np.exp(-1j * delta / 2)
    ryb = u3_matrix(beta, 0.0, 0.0)
    rya = u3_matrix(alpha, 0.0, 0.0)
    V = SWAP @ CNOT_10 @ np.kron(np.eye(2), rya) @ CNOT_01 @ np.kron(rzd, ryb) @ CNOT_10

    v = MAGIC_DAG @ V @ MAGIC
    gamma_v = v @ v.T

    best = None
    for wr, wi in _MIX_WEIGHTS:
        p = _so4_diagonalizer(gamma_u, wr, wi)
        q = _so4_diagonalizer(gamma_v, wr, wi)
        G = p @ q.T
        H = v.conj().T @ G.T @ u
        AB = MAGIC @ G @ MAGIC_DAG
        CD = MAGIC @ H @ MAGIC_DAG
        A, B = _kron_factor(AB)
        C, D = _kron_factor(CD)
        recon = np.kron(A, B) @ V @ np.kron(C, D)
        err = np.abs(recon - swap_U).max()
        if best is None or err < best[0]:
            best = (err, A, B, C, D)
        if err < 1e-11:
            break
    err, A, B, C, D = best
    if err > 1e-8:
        raise ArithmeticError(f"KAK prefactor extraction failed (residual {err:.2e})")

    # Assemble template layers.  swap_U = (A x B) V (C x D) with
    # V = SWAP CNOT10 (1 x RYa) CNOT01 (RZd x RYb) CNOT10 gives
    # U ~ (B x A) . CNOT10 (1 x RYa) CNOT01 (RZd x RYb) CNOT10 . (C x D)
    # after commuting the SWAP into the last local pair.
    layers = (
        ((u3_angles(C)), (u3_angles(D))),
        ((u3_angles(rzd)), (u3_angles(ryb))),
        ((0.0, 0.0, 0.0), (u3_angles(rya))),
        ((u3_angles(B)), (u3_angles(A))),
    )
    dec = KakDecomposition(u3_layers=layers)
    rec = dec.reconstruct()
    idx = np.unravel_index(np.argmax(np.abs(rec)), rec.shape)
    phase = U[idx] / rec[idx]
    dec.global_phase = phase / abs(phase)
    return dec
