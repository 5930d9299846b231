"""Helpers shared by several test modules, and the oracles that only tests use."""

import functools
import operator
from math import sqrt

import numpy as np

from qbeats.dynamics import (SINGLET, PairSpectrum, evaluate_rows, evaluate_spectrum,
                             one_group_weights, pair_probabilities)
from qbeats.hamiltonians import (PAULI, BlockHamiltonian, SpinSystemSpec, _direct_sum,
                                 build_cation_one_group, build_two_group_block)
from qbeats.noisecal import MeasurementStats
from qbeats.pipeline import one_group_sector_trajectories, two_group_sector_spectrum
from qbeats.relaxation import (CORRELATOR_TRIU, RelaxationParams, relax_pair_trajectory,
                               relaxed_singlet_values)
from qbeats.spinalg import HALF, HalfInt, multiplicity, spin_addition_counts


def half_rate_equivalence_check(spec: SpinSystemSpec, times: np.ndarray,
                                tol: float = 1e-10) -> bool:
    """Both-site channel at (T1,T2) vs single-site at (T1/2,T2/2), spec-level.

    Runs the system's standard coherent pipeline and compares the relaxed
    singlet traces pointwise.
    """
    if len(spec.groups) == 1:
        trajs = one_group_sector_trajectories(spec, times)
        traj = sum(t.trajectory for t in trajs.values()) / len(trajs)
    else:
        I2_max = max(spin_addition_counts(spec.groups[1].count))
        traj = evaluate_spectrum(two_group_sector_spectrum(build_two_group_block(I2_max, spec)),
                                 times)
    both = relaxed_singlet_values(traj, times, spec.T1, spec.T2, sites="both")
    single = relaxed_singlet_values(traj, times, spec.T1 / 2, spec.T2 / 2, sites="e1")
    return bool(np.abs(both - single).max() <= tol)


def cation_register(h: np.ndarray, b2: float) -> BlockHamiltonian:
    """The unpadded (e2, nuc, e1) register 1_e2 x h - b2 Z_e2 x 1 of a cation block."""
    K = len(h) // 2
    matrix = np.kron(np.eye(2), h) - b2 * np.kron(np.diag([1.0, -1.0]), np.eye(2 * K))
    return BlockHamiltonian(matrix, (2, K, 2), ("e2", "nuc", "e1"))


def pauli_matrix(s: str) -> np.ndarray:
    """Matrix of a Pauli string such as 'IZX', its first letter the leftmost factor."""
    return functools.reduce(np.kron, [PAULI[c] for c in s])


def class_average(n: int, field_regime: str, per_sector: dict):
    """Count-weighted average of per-|I, m=I> values or spectra over the mixed nuclear state.

    Each representative stands in for its degeneracy class: total spin I at
    zero field, |m| at high field.
    """
    weights = one_group_weights(n, field_regime)
    total = sum(weights.values())
    terms = [(w / total) * per_sector[abs(k)] for k, w in weights.items()]
    return functools.reduce(operator.add, terms)


def channel_target_stats(params: RelaxationParams, sites: str = "both") -> MeasurementStats:
    """Bell statistics of the thermal channel applied to a fresh singlet pair."""
    rho = np.outer(SINGLET, SINGLET.conj())[None, :, :]
    relaxed = relax_pair_trajectory(rho, np.array([params.t]), params.T1, params.T2, sites)
    return MeasurementStats.from_array(pair_probabilities(relaxed)[0])


def pair_correlators(spectrum: PairSpectrum, times: np.ndarray) -> np.ndarray:
    """(4, T) correlators (w, <ZZ>, <XX + YY>, <Z1 + Z2>) of a beat spectrum; w is the trace."""
    return evaluate_rows(spectrum, np.asarray(times, dtype=float), CORRELATOR_TRIU).real


# ---------------------------------------------------------------------------
# Spin-addition recurrence and Clebsch-Gordan tables: independent oracles of
# the closed-form counts and of the ladder-operator cation blocks
# ---------------------------------------------------------------------------

def spin_addition_counts_by_recurrence(n: int) -> dict[HalfInt, int]:
    """Row n of the spin-addition table by the Pascal-like recurrence: adding one
    spin-1/2 to a total spin I yields I+1/2 and (for I > 0) I-1/2."""
    row: dict[HalfInt, int] = {HALF: 1}
    for _ in range(n - 1):
        nxt: dict[HalfInt, int] = {}
        for I, count in row.items():
            up = I + HALF
            nxt[up] = nxt.get(up, 0) + count
            if I.twice_value > 0:
                down = I - HALF
                nxt[down] = nxt.get(down, 0) + count
        row = nxt
    return row


def product_basis_labels(I: HalfInt) -> list[tuple[HalfInt, int]]:
    """Product-basis ordering for the I (+) 1/2 coupling.

    m runs from +I down to -I; each |I,m> is immediately followed by its two
    electronic sublevels (up = 0, then down = 1), the order of the cation blocks.
    """
    out = []
    for tm in range(I.twice_value, -I.twice_value - 2, -2):
        out.append((HalfInt(tm), 0))
        out.append((HalfInt(tm), 1))
    return out


def coupled_basis_labels(I: HalfInt) -> list[tuple[HalfInt, HalfInt]]:
    """Coupled-basis ordering (J, M) for I (+) 1/2.

    M runs from I+1/2 down to -(I+1/2); within each M the J = I+1/2 state
    comes before J = I-1/2 (when the latter exists).
    """
    up = I + HALF
    down = I - HALF
    out = []
    for tM in range(up.twice_value, -up.twice_value - 2, -2):
        M = HalfInt(tM)
        out.append((up, M))
        if I.twice_value > 0 and abs(tM) <= down.twice_value:
            out.append((down, M))
    return out


@functools.lru_cache(maxsize=None)
def cg_block_matrix(I: HalfInt) -> np.ndarray:
    """Clebsch-Gordan block for coupling spin I with one spin-1/2.

    Real orthogonal matrix of dimension 2(2I+1); rows are product states
    (``product_basis_labels`` order), columns are coupled states
    (``coupled_basis_labels`` order).  Condon-Shortley phases: the J = I+1/2
    column built on the highest-m product state has a positive coefficient.
    The resulting matrix is symmetric (each 2x2 mixing block is a reflection).
    Memoized per I, so the matrix is read-only.
    """
    if I.twice_value < 0:
        raise ValueError("total spin must be >= 0")
    dim = 2 * multiplicity(I)
    rows = product_basis_labels(I)
    cols = coupled_basis_labels(I)
    row_index = {lab: i for i, lab in enumerate(rows)}
    two_I = I.twice_value
    mat = np.zeros((dim, dim))
    for j, (J, M) in enumerate(cols):
        # |I+1/2, M> =  alpha |I, M-1/2>|up> + beta |I, M+1/2>|down>
        # |I-1/2, M> = -beta  |I, M-1/2>|up> + alpha |I, M+1/2>|down>
        # alpha = sqrt((I+M+1/2)/(2I+1)), beta = sqrt((I-M+1/2)/(2I+1))
        alpha = sqrt((two_I + M.twice_value + 1) / (2 * (two_I + 1)))
        beta = sqrt((two_I - M.twice_value + 1) / (2 * (two_I + 1)))
        m_up = M - HALF
        m_dn = M + HALF
        plus = J.twice_value == two_I + 1
        if abs(m_up.twice_value) <= two_I:
            mat[row_index[(m_up, 0)], j] = alpha if plus else -beta
        if abs(m_dn.twice_value) <= two_I:
            mat[row_index[(m_dn, 1)], j] = beta if plus else alpha
    mat.setflags(write=False)
    return mat


def coupled_hfc_eigenvalues(I: HalfInt) -> np.ndarray:
    """Hyperfine eigenvalues (units of a) along the coupled-basis ordering.

    a I.S has eigenvalue I/2 on the J = I+1/2 manifold and -(I+1)/2 on the
    J = I-1/2 manifold.
    """
    lam_plus = I.twice_value / 4  # I/2 with I = twice_value/2
    lam_minus = -(I.twice_value + 2) / 4
    return np.array(
        [lam_plus if J.twice_value == I.twice_value + 1 else lam_minus
         for J, _ in coupled_basis_labels(I)]
    )


def reduced_cation_block(spec: SpinSystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The per-I cation blocks of a one-group system as one block over the reduced
    basis (index 2 * ``one_group_reduced_index`` + e1), with 2M per index."""
    blocks = build_cation_one_group(spec).values()
    return (_direct_sum([h for h, _ in blocks]),
            np.concatenate([twice_m for _, twice_m in blocks]))
