"""Helpers shared by several test modules, and the oracles that only tests use."""

import functools
import operator
from math import sqrt

import numpy as np

from qbeats.circuits import Circuit
from qbeats.dynamics import (PAIR_TRIU, SINGLET, DensityMatrix, cation_spectrum,
                             evaluate_spectrum, one_group_weights, pair_probabilities,
                             pair_slice_indices, singlet_values, singlet_vector)
from qbeats.hamiltonians import (SIGMA_X, SIGMA_Y, SIGMA_Z, BlockHamiltonian, SpinSystemSpec,
                                 build_two_group_block, build_cation_blocks, distinct_spins,
                                 nuclear_states)
from qbeats.library import add_singlet_prep
from qbeats.noisecal import MeasurementStats
from qbeats.pipeline import one_group_sector_spectra
from qbeats.relaxation import (CORRELATOR_TRIU, RelaxationParams, apply_channel,
                               infinite_temperature_thermal_channel, relaxed_singlet)
from qbeats.spinalg import HalfInt, multiplicity, spin_addition_counts


def half_rate_equivalence_check(spec: SpinSystemSpec, times: np.ndarray,
                                tol: float = 1e-10) -> bool:
    """Both-site channel at (T1,T2) vs single-site at (T1/2,T2/2), spec-level.

    Reads the both-site channel in closed form (``relaxed_singlet``) from the beat spectrum
    of the even mixture of the |I, m=I> of one group, or of the largest I2 sector of two, and
    applies the single-site one to its evaluated pair trajectory as an operator sum; compares
    the relaxed singlet traces pointwise.
    """
    if len(spec.groups) == 1:
        spectra = list(one_group_sector_spectra(spec).values())
        spectrum = functools.reduce(operator.add, [(1 / len(spectra)) * s for s in spectra])
    else:
        sector = build_two_group_block(max(spin_addition_counts(spec.groups[1].count)), spec)
        spectrum = cation_spectrum(sector.blocks, sector.b2)
    both = relaxed_singlet(spectrum, times, times, spec.T1, spec.T2)
    single = singlet_values(np.array([
        operator_sum_pair(rho, t, spec.T1 / 2, spec.T2 / 2, ("e1",))
        for rho, t in zip(evaluate_spectrum(spectrum, times), times)]))
    return bool(np.abs(both - single).max() <= tol)


def sector_columns(result) -> dict:
    """Label -> sector column of a ``pipeline.SimulationResult``."""
    return dict(zip(result.labels, result.sectors.T))


def operator_sum_pair(rho: np.ndarray, t: float, T1: float, T2: float,
                      sites=("e1", "e2")) -> np.ndarray:
    """A (4, 4) pair state, e1 its first factor, after the thermal channel of duration t on
    ``sites``, applied as the operator sum ``apply_channel``."""
    state = DensityMatrix(rho, (2, 2), ("e1", "e2"))
    for site in sites:
        channel = infinite_temperature_thermal_channel(RelaxationParams(float(t), T1, T2), site)
        state = apply_channel(state, channel)
    return state.matrix


def trajectory_correlators(traj: np.ndarray) -> np.ndarray:
    """(4, T) correlators (w, <ZZ>, <XX + YY>, <Z1 + Z2>) of a (T, 4, 4) pair trajectory;
    w is the trace."""
    return CORRELATOR_TRIU @ traj[:, PAIR_TRIU[0], PAIR_TRIU[1]].real.T


def cation_register(h: np.ndarray, b2: float) -> BlockHamiltonian:
    """The unpadded (e2, nuc, e1) register 1_e2 x h - b2 Z_e2 x 1 of a cation block."""
    K = len(h) // 2
    matrix = np.kron(np.eye(2), h) - b2 * np.kron(np.diag([1.0, -1.0]), np.eye(2 * K))
    return BlockHamiltonian(matrix, (2, K, 2))


@functools.lru_cache(maxsize=4)
def dense_eig(H):
    """One ``np.linalg.eigh`` of the whole matrix, blocks ignored."""
    return np.linalg.eigh(H.matrix)


def mixed_singlet_density(K: int) -> DensityMatrix:
    """|S><S| x 1/K on the (e2, nuclear, e1) register: the equal-weight ensemble of the K
    singlet-born nuclear basis states, which ``pair_spectrum`` takes, as one matrix."""
    psi = singlet_vector(np.eye(K), (2, K, 2))
    return DensityMatrix(psi.T @ psi.conj() / K, (2, K, 2), ("e2", "nuc", "e1"))


def dense_pair_trajectory(H, psi0, times):
    """Pair trajectory (T, 4, 4) of a statevector, from ``dense_eig``."""
    w, v = dense_eig(H)
    c = v.conj().T @ psi0
    psi_t = v @ (c[:, None] * np.exp(-1j * np.outer(w, times)))
    amps = psi_t[pair_slice_indices(H.dims)]
    return np.einsum("art,brt->tab", amps, amps.conj())


def dense_density_trajectory(H, rho0, times):
    """Pair trajectory (T, 4, 4) of a density matrix, from ``dense_eig``:
    rho_ab(t) = sum_jl R_jl Q_jl exp(-i (w_j - w_l) t), with R = v^dag rho0 v the initial
    state in the eigenbasis and Q_jl = sum_n <a n|j> <l|b n>."""
    w, v = dense_eig(H)
    idx = pair_slice_indices(H.dims)
    R = v.conj().T @ rho0 @ v
    phases = np.exp(-1j * np.outer(w, times))
    out = np.empty((len(times), 4, 4), dtype=complex)
    for a in range(4):
        for b in range(a, 4):
            M = R * (v[idx[a]].T @ v[idx[b]].conj())
            out[:, a, b] = np.einsum("jt,jt->t", phases, M @ phases.conj())
            out[:, b, a] = out[:, a, b].conj()
    return out


PAULI = {"I": np.eye(2, dtype=complex), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


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


def channel_target_stats(params: RelaxationParams) -> MeasurementStats:
    """Bell statistics of the both-site thermal channel applied to a fresh singlet pair."""
    relaxed = operator_sum_pair(np.outer(SINGLET, SINGLET), params.t, params.T1, params.T2)
    return MeasurementStats.from_array(pair_probabilities(relaxed))


def inject_singlet(undamped: MeasurementStats, target: MeasurementStats) -> float:
    """Noisy singlet probability with the target channel's statistics folded in."""
    return (undamped.s * target.s + undamped.t0 * target.t0
            + undamped.tp * target.tp + undamped.tm * target.tm)


def add_singlet_unprep(circuit: Circuit, e1: int, e2: int) -> Circuit:
    """Inverse basis change: the singlet maps to |11> before measurement."""
    circuit.add("CNOT", (e1, e2))
    circuit.add("H", e1)
    return circuit


def rz_encode_angle(s_value):
    """theta(t) = 2 acos(sqrt(S(t))), elementwise for an array of values."""
    s_value = np.asarray(s_value, dtype=float)
    outside = ~((s_value >= -1e-12) & (s_value <= 1 + 1e-12))
    if np.any(outside):
        raise ValueError(f"singlet probability {s_value[outside].flat[0]} outside [0, 1]")
    return 2.0 * np.arccos(np.sqrt(np.clip(s_value, 0.0, 1.0)))


def rz_encode_circuit(s_value: float, noise_block: Circuit | None = None) -> Circuit:
    """Two-site trace-encoding circuit: prep, Rz(theta) on site 1, un-prep.

    The noiseless singlet outcome equals the encoded probability exactly.
    """
    c = Circuit(2)
    add_singlet_prep(c, 0, 1)
    c.add("RZ", 1, (rz_encode_angle(s_value),))
    if noise_block is not None:
        c.extend(noise_block)
    add_singlet_unprep(c, 0, 1)
    return c


def werner_trajectory(singlet):
    """Pair states S |S><S| + (1 - S) / 3 (1 - |S><S|), one per S(t): the rotation-invariant
    pair state of that singlet probability."""
    s = np.asarray(singlet)[:, None, None]
    projector = np.outer(SINGLET, SINGLET)
    return s * projector + (1 - s) / 3 * (np.eye(4) - projector)


# ---------------------------------------------------------------------------
# Spin-addition recurrence, the spins and slots read off the exact row, and
# Clebsch-Gordan tables: independent oracles of the closed-form counts, spins
# and slots and of the ladder-operator cation blocks
# ---------------------------------------------------------------------------

def spin_addition_counts_by_recurrence(n: int) -> dict[HalfInt, int]:
    """Row n of the spin-addition table by the Pascal-like recurrence: adding one
    spin-1/2 to a total spin I yields I+1/2 and (for I > 0) I-1/2."""
    row: dict[HalfInt, int] = {HalfInt(1): 1}
    for _ in range(n - 1):
        nxt: dict[HalfInt, int] = {}
        for I, count in row.items():
            up = HalfInt(I.twice_value + 1)
            nxt[up] = nxt.get(up, 0) + count
            if I.twice_value > 0:
                down = HalfInt(I.twice_value - 1)
                nxt[down] = nxt.get(down, 0) + count
        row = nxt
    return row


def distinct_spins_by_row(n: int) -> list[HalfInt]:
    """Distinct total spins of n coupled spin-1/2s, descending, read off the keys of the
    exact spin-addition row: the oracle of ``distinct_spins`` and ``check_total_spin``."""
    return list(spin_addition_counts(n))


def check_total_spin_by_row(n: int, I: HalfInt, name: str = "I") -> None:
    """Refuse an I that is not a key of the exact row of n spin-1/2s."""
    if I not in distinct_spins_by_row(n):
        raise ValueError(f"{name}={I} is not a valid total spin for {n} nuclei")


def one_group_reduced_index_by_loop(n: int, I: HalfInt, m: HalfInt) -> int:
    """Slot of |I,m> in the degeneracy-free ordering, summing the multiplicity of every
    spin above I: the oracle of ``one_group_reduced_index``."""
    if abs(m.twice_value) > I.twice_value or (I.twice_value - m.twice_value) % 2:
        raise ValueError(f"no state |I={I}, m={m}>: m must be one of I, I-1, ..., -I")
    idx = 0
    for J in distinct_spins_by_row(n):
        if J == I:
            return idx + (I.twice_value - m.twice_value) // 2
        idx += multiplicity(J)
    raise ValueError(f"I={I} is not a valid total spin for {n} nuclei")


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
    up = HalfInt(I.twice_value + 1)
    down = HalfInt(I.twice_value - 1)
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
        m_up = HalfInt(M.twice_value - 1)
        m_dn = HalfInt(M.twice_value + 1)
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


def one_group_blocks(spec: SpinSystemSpec, weights):
    """The cation blocks that sum_r weights[r] |r><r| reaches, the |I, m> of a one-group
    system in ``one_group_reduced_index`` order."""
    two_I, two_m = nuclear_states(
        spec, [I.twice_value for I in distinct_spins(spec.groups[0].count)])
    return build_cation_blocks(spec, two_I, two_m, weights)


def cation_matrix(blocks) -> tuple[np.ndarray, np.ndarray]:
    """The cation blocks' matrix h (``CationBlocks.dense``) and 2M per index."""
    h, labels, _ = blocks.dense()
    return h, np.repeat(labels[:, 1::2].sum(axis=1), 2) + np.tile([1, -1], len(labels))


def reduced_cation_block(spec: SpinSystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The cation blocks of every |I, m> of a one-group system as one block over the reduced
    basis (index 2 * ``one_group_reduced_index`` + e1), with 2M per index."""
    n_slots = sum(multiplicity(I) for I in distinct_spins(spec.groups[0].count))
    return cation_matrix(one_group_blocks(spec, np.ones(n_slots)))


def exponential_kernel(tau_f: float, step: float, n: int) -> np.ndarray:
    """Causal exp(-t/tau_f) sampled with trapezoidal weights on n points, uncut: convolved
    with x and cut to its grid, the oracle of ``postprocess.exponential_scan``."""
    w = step * np.exp(-np.arange(n) * step / tau_f)
    w[0] *= 0.5
    return w
