"""Closed-system evolution, initial states, and singlet-probability traces.

The electron pair always occupies the outermost (e2) and innermost (e1)
tensor factors; everything in between is the nuclear register.  The
electron-pair basis used throughout is p = 2*e1 + e2, i.e.
(up,up), (up,down), (down,up), (down,down) with the first arrow = e1.

Nothing materializes rho(t).  A pure state is propagated only on the exact
invariant blocks of the Hamiltonian that it touches (``BlockHamiltonian.blocks``),
each through that block's own eigenpairs, and its pair trajectory is
contracted over the nuclear slots those blocks reach.  Density-matrix
initial conditions go through an eigenbasis phase sum that evaluates the
required traces directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import BlockHamiltonian
from .spinalg import HalfInt, multiplicity, spin_addition_counts

log = logging.getLogger(__name__)

SQRT_HALF = np.sqrt(0.5)

# Electron-pair states in the p = 2*e1 + e2 basis.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) * SQRT_HALF
TRIPLET_0 = np.array([0.0, 1.0, 1.0, 0.0]) * SQRT_HALF
TRIPLET_PLUS = np.array([1.0, 0.0, 0.0, 0.0])
TRIPLET_MINUS = np.array([0.0, 0.0, 0.0, 1.0])
BELL_BASIS = np.stack([SINGLET, TRIPLET_0, TRIPLET_PLUS, TRIPLET_MINUS])
BELL_LABELS = ("S", "T0", "T+", "T-")

PROBABILITY_EPS = 1e-9


@dataclass
class DensityMatrix:
    """Positive semidefinite unit-trace matrix over a labeled register.

    The batched density backend returns a (B, d, d) stack in ``matrix``.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        if self.matrix.shape[-2:] != (self.dim, self.dim) or self.matrix.ndim > 3:
            raise ValueError("matrix shape does not match register dims")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def validate(self, tol_trace=1e-12, tol_herm=1e-13, tol_pos=1e-10) -> "DensityMatrix":
        if abs(np.trace(self.matrix) - 1) > tol_trace:
            raise ValueError(f"trace = {np.trace(self.matrix)} is not 1")
        if np.abs(self.matrix - self.matrix.conj().T).max() > tol_herm:
            raise ValueError("density matrix is not Hermitian")
        if np.linalg.eigvalsh(self.matrix).min() < -tol_pos:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        return self


@dataclass
class TimeSeries:
    """Gridded scalar trace with unit metadata (times in ns)."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


def time_grid(t_start: float = 0.0, t_end: float = 100.0, step: float = 0.1) -> np.ndarray:
    """Uniform grid including both endpoints (default 0..100 ns at 0.1 ns)."""
    n = int(round((t_end - t_start) / step)) if t_end > t_start else 0
    return t_start + step * np.arange(n + 1)


class NumericalError(ValueError):
    """A computed probability trace is non-finite or out of range."""


def clip_probabilities(values: np.ndarray, label: str = "") -> np.ndarray:
    """Clamp tiny negative roundoff to 0; larger violations are errors."""
    if not np.isfinite(values).all():
        raise NumericalError(f"probability trace {label!r} has non-finite values")
    lo = values.min() if len(values) else 0.0
    hi = values.max() if len(values) else 0.0
    if lo < -PROBABILITY_EPS or hi > 1 + PROBABILITY_EPS:
        raise NumericalError(f"probability trace {label!r} out of range: [{lo}, {hi}]")
    if lo < 0 or hi > 1:
        if lo < -1e-12 or hi > 1 + 1e-12:
            log.warning("clipping probability roundoff in %r (min %.3e, max 1+%.3e)",
                        label, lo, hi - 1)
        return np.clip(values, 0.0, 1.0)
    return values


# ---------------------------------------------------------------------------
# Register index helpers
# ---------------------------------------------------------------------------

def _nuclear_dim(dims: tuple[int, ...]) -> int:
    if len(dims) < 2 or dims[0] != 2 or dims[-1] != 2:
        raise ValueError("register must be (e2, nuclear..., e1) with 2-dim electrons")
    return int(np.prod(dims[1:-1])) if len(dims) > 2 else 1

def pair_slice_indices(dims: tuple[int, ...]) -> np.ndarray:
    """index[p, r] of electron-pair state p with nuclear configuration r."""
    K = _nuclear_dim(dims)
    r = np.arange(K)
    out = np.empty((4, K), dtype=np.intp)
    for p in range(4):
        e1, e2 = p >> 1, p & 1
        out[p] = e2 * (K * 2) + r * 2 + e1
    return out


def singlet_vector(nuclear_vec: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """|nuclear> x |S> as a statevector on the (e2, nuclear, e1) register."""
    idx = pair_slice_indices(dims)
    psi = np.zeros(int(np.prod(dims)), dtype=complex)
    psi[idx[1]] = SQRT_HALF * nuclear_vec   # e1 up, e2 down
    psi[idx[2]] = -SQRT_HALF * nuclear_vec  # e1 down, e2 up
    return psi


def sector_statevector(index: int, nuclear_dim: int) -> np.ndarray:
    if not 0 <= index < nuclear_dim:
        raise ValueError(f"nuclear index {index} out of range 0..{nuclear_dim - 1}")
    nuc = np.zeros(nuclear_dim, dtype=complex)
    nuc[index] = 1.0
    return singlet_vector(nuc, (2, nuclear_dim, 2))


def initial_sector_state(index: int, nuclear_dim: int) -> DensityMatrix:
    """Pure |index><index| on the nuclear register, singlet on the electrons."""
    psi = sector_statevector(index, nuclear_dim)
    return DensityMatrix(np.outer(psi, psi.conj()), (2, nuclear_dim, 2), ("e2", "nuc", "e1"))


def maximally_mixed_nuclear_state(n_nuclear_dims: int) -> DensityMatrix:
    """(1/n) identity on the nuclear block, singlet on the electron pair."""
    if n_nuclear_dims < 1:
        raise ValueError("nuclear dimension must be >= 1")
    dims = (2, n_nuclear_dims, 2)
    idx = pair_slice_indices(dims)
    dim = int(np.prod(dims))
    rho = np.zeros((dim, dim), dtype=complex)
    weight = 1.0 / n_nuclear_dims
    for p in (1, 2):
        for q in (1, 2):
            sign = 1.0 if p == q else -1.0
            rho[idx[p], idx[q]] = 0.5 * sign * weight
    return DensityMatrix(rho, dims, ("e2", "nuc", "e1"))


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

def _check_dim(H: BlockHamiltonian, dim: int) -> None:
    if dim != H.dim:
        raise ValueError(f"dimension mismatch: state {dim} vs H {H.dim}")


def singlet_probability(rho: DensityMatrix,
                        electron_sites: tuple[str, str] = ("e1", "e2")) -> float:
    """Tr(rho |S><S| x 1_nuclear) over the (e2, nuclear, e1) register."""
    if rho.labels and set(electron_sites) != {rho.labels[-1], rho.labels[0]}:
        raise ValueError(
            f"electron sites {electron_sites} do not match the register's outer "
            f"factors {rho.labels[0]!r}, {rho.labels[-1]!r}")
    idx = pair_slice_indices(rho.dims)
    m = rho.matrix
    val = 0.5 * (
        m[idx[1], idx[1]].sum()
        + m[idx[2], idx[2]].sum()
        - m[idx[1], idx[2]].sum()
        - m[idx[2], idx[1]].sum()
    )
    return float(val.real)


def singlet_values(traj: np.ndarray) -> np.ndarray:
    """Singlet probability <S|rho(t)|S> of each 4x4 pair state of a trajectory."""
    return np.real(np.einsum("a,tab,b->t", SINGLET.conj(), traj, SINGLET))


def pair_probabilities(rho4: np.ndarray) -> np.ndarray:
    """Bell-basis outcome probabilities (S, T0, T+, T-) of a 4x4 pair state."""
    return np.real(np.einsum("ia,...ab,ib->...i", BELL_BASIS.conj(), rho4, BELL_BASIS))


def _pair_amplitudes(H: BlockHamiltonian, psi0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Amplitudes (4, R, T) of psi(t) at (pair state p, nuclear slot r).

    Only the invariant blocks that ``psi0`` touches are propagated, each with
    its own eigenpairs; the R slots are the nuclear slots those blocks reach.
    """
    _check_dim(H, len(psi0))
    w, v = H.eig()
    K = _nuclear_dim(H.dims)
    blocks = H.blocks(touching=psi0)
    states = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.intp)
    slots, slot_of = np.unique((states // 2) % K, return_inverse=True)
    pair_of = 2 * (states % 2) + states // (2 * K)  # p = 2*e1 + e2
    amps = np.zeros((4, len(slots), len(times)), dtype=complex)
    start = 0
    for b in blocks:
        vb = v[np.ix_(b, b)]
        c = vb.conj().T @ psi0[b]
        phases = np.exp(-1j * np.outer(w[b], times))
        rows = slice(start, start + len(b))
        amps[pair_of[rows], slot_of[rows]] = vb @ (c[:, None] * phases)
        start += len(b)
    return amps


def pair_trajectory_pure(H: BlockHamiltonian, psi0: np.ndarray,
                         times: np.ndarray) -> np.ndarray:
    """Reduced electron-pair density matrices (T, 4, 4) of a pure-state evolution."""
    amps = _pair_amplitudes(H, np.asarray(psi0, dtype=complex), times)
    return np.einsum("art,brt->tab", amps, amps.conj())


def _phase_sum(M: np.ndarray, w: np.ndarray, times: np.ndarray) -> np.ndarray:
    """f(t) = sum_jk M_jk exp(-i(w_j - w_k) t) for every t, via BLAS.

    With u_j(t) = exp(-i w_j t) the sum is u(t)^T M conj(u(t)); evaluating
    W = M conj(U) for the full time grid turns the dim^2 x T loop into one
    zgemm.  Memory per call: 2 * dim * T complex temporaries.
    """
    U = np.exp(-1j * np.outer(w, times))
    W = M @ np.conj(U)
    return np.einsum("jt,jt->t", U, W)


def pair_trajectory_density(H: BlockHamiltonian, rho0: np.ndarray,
                            times: np.ndarray) -> np.ndarray:
    """Reduced electron-pair trajectory of a density-matrix evolution.

    Sixteen eigenbasis phase sums, one per pair-matrix element.
    """
    _check_dim(H, len(rho0))
    w, v = H.eig()
    R = v.conj().T @ rho0 @ v
    idx = pair_slice_indices(H.dims)
    out = np.empty((len(times), 4, 4), dtype=complex)
    for a in range(4):
        va = v[idx[a], :]
        for b in range(a, 4):
            vb = v[idx[b], :]
            # Q = V^dag (|b><a| x 1) V = vb^dag va; G_ab(t) = sum R*Q^T phases
            Q = vb.conj().T @ va
            g = _phase_sum(R * Q.T, w, times)
            out[:, a, b] = g
            if b != a:
                out[:, b, a] = g.conj()
    return out


def singlet_trace_pure(H: BlockHamiltonian, psi0: np.ndarray, times: np.ndarray,
                       label: str = "") -> TimeSeries:
    """S(t) for a pure initial state, without forming pair density matrices."""
    amps = _pair_amplitudes(H, np.asarray(psi0, dtype=complex), times)
    vals = np.sum(np.abs(SQRT_HALF * (amps[1] - amps[2])) ** 2, axis=0)
    return TimeSeries(times, clip_probabilities(vals, label), label)


def singlet_trace(H: BlockHamiltonian, initial, times: np.ndarray,
                  label: str = "") -> TimeSeries:
    """S(t) for a pure statevector or a DensityMatrix initial condition."""
    if isinstance(initial, DensityMatrix):
        traj = pair_trajectory_density(H, initial.matrix, times)
        vals = pair_probabilities(traj)[:, 0]
        return TimeSeries(times, clip_probabilities(vals, label), label)
    return singlet_trace_pure(H, np.asarray(initial, dtype=complex), times, label)


# ---------------------------------------------------------------------------
# Classical averaging / sector reassembly
# ---------------------------------------------------------------------------

def _check_common_grid(traces) -> np.ndarray:
    grids = [ts.times for ts in traces]
    for g in grids[1:]:
        if g.shape != grids[0].shape or not np.allclose(g, grids[0], atol=1e-12):
            raise ValueError("traces do not share a common time grid")
    return grids[0]


def one_group_weights(n: int, field_regime: str) -> dict[HalfInt, int]:
    """Nuclear-state counts per sector label (I at zero field, |m| at high field)."""
    counts = spin_addition_counts(n)
    if field_regime == "zero":
        return {I: c * multiplicity(I) for I, c in counts.items()}
    if field_regime == "high":
        out: dict[HalfInt, int] = {}
        for I, c in counts.items():
            for tm in range(I.twice_value % 2, I.twice_value + 1, 2):
                m = HalfInt(tm)
                out[m] = out.get(m, 0) + c * (1 if tm == 0 else 2)
        return out
    raise ValueError(f"unknown field regime {field_regime!r}")


def weighted_average_one_group(per_state_traces: dict[HalfInt, TimeSeries],
                               field_regime: str, n_nuclei: int = 8) -> TimeSeries:
    """Count-weighted average of per-sector traces (Table-III style weights).

    Zero field: keys are total spins I.  High field: keys are |m| values.
    """
    weights = one_group_weights(n_nuclei, field_regime)
    missing = set(weights) - set(per_state_traces)
    if missing:
        raise ValueError(f"missing sector traces for {sorted(missing)}")
    grid = _check_common_grid([per_state_traces[k] for k in weights])
    total = sum(weights.values())
    vals = sum(weights[k] * per_state_traces[k].values for k in weights) / total
    return TimeSeries(grid, vals, f"S_avg_{field_regime}")


def reassemble_two_group(per_sector_traces: dict[HalfInt, TimeSeries],
                         padding: dict[HalfInt, tuple[int, int]],
                         degeneracy: dict[HalfInt, int],
                         total_nuclei: int) -> TimeSeries:
    """Combine fixed-I2 sector traces into the full-system S(t).

    Each sector trace came from a maximally mixed register that includes
    ``padded_count`` frozen padding states (contributing exactly 1 each);
    their effect is subtracted before the sector is weighted by its register
    size and I2 degeneracy:

        S(t) = sum_I2 (S_I2(t) - pad/2^q) * 2^q * deg(I2) / 2^N
    """
    keys = sorted(degeneracy)
    missing = set(keys) - set(per_sector_traces)
    if missing:
        raise ValueError(f"missing sector traces for {sorted(missing)}")
    grid = _check_common_grid([per_sector_traces[k] for k in keys])
    acc = np.zeros_like(grid, dtype=float)
    for I2 in keys:
        pad, reg = padding[I2]
        acc += (per_sector_traces[I2].values - pad / reg) * reg * degeneracy[I2]
    return TimeSeries(grid, acc / 2**total_nuclei, "S_reassembled")
