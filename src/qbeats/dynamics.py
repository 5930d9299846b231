"""Closed-system evolution, initial states, and singlet-probability traces.

The electron pair always occupies the outermost (e2) and innermost (e1)
tensor factors; everything in between is the nuclear register.  The
electron-pair basis used throughout is p = 2*e1 + e2, i.e.
(up,up), (up,down), (down,up), (down,down) with the first arrow = e1.

Nothing materializes rho(t).  A pair trajectory is a merged sum over Bohr
frequencies; ``evaluate_rows`` sums the real part of any linear read-out of it
on a grid.
``pair_spectrum`` builds it for any initial state from the exact invariant
blocks it touches (``BlockHamiltonian.blocks``); ``cation_spectrum`` builds it
for the singlet-born ensembles of the pipeline from their cation blocks alone,
the anion electron being a fixed Larmor phase.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .hamiltonians import BlockHamiltonian, CationBlocks
from .spinalg import HalfInt, multiplicity, spin_addition_counts

log = logging.getLogger(__name__)

SQRT_HALF = np.sqrt(0.5)

# Electron-pair states in the p = 2*e1 + e2 basis.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) * SQRT_HALF
TRIPLET_0 = np.array([0.0, 1.0, 1.0, 0.0]) * SQRT_HALF
TRIPLET_PLUS = np.array([1.0, 0.0, 0.0, 0.0])
TRIPLET_MINUS = np.array([0.0, 0.0, 0.0, 1.0])
BELL_BASIS = np.stack([SINGLET, TRIPLET_0, TRIPLET_PLUS, TRIPLET_MINUS])

PROBABILITY_EPS = 1e-9


@dataclass
class DensityMatrix:
    """Positive semidefinite unit-trace (d, d) matrix over a labeled register."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.dims = tuple(int(d) for d in self.dims)
        if self.matrix.shape != (self.dim, self.dim):
            raise ValueError("matrix shape does not match register dims")

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))


@dataclass
class TimeSeries:
    """Gridded scalar trace (times in ns)."""

    times: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


def time_grid(t_start: float, t_end: float, step: float) -> np.ndarray:
    """Uniform grid from ``t_start`` that reaches ``t_end`` (to roundoff) but never passes it."""
    n = math.floor((t_end - t_start) / step + 1e-9) if t_end > t_start else 0
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
    """|nuclear> x |S> as a statevector on the (e2, nuclear, e1) register
    (one per row of a stack of nuclear vectors)."""
    nuclear_vec = np.asarray(nuclear_vec)
    idx = pair_slice_indices(dims)
    psi = np.zeros(nuclear_vec.shape[:-1] + (int(np.prod(dims)),), dtype=complex)
    psi[..., idx[1]] = SQRT_HALF * nuclear_vec   # e1 up, e2 down
    psi[..., idx[2]] = -SQRT_HALF * nuclear_vec  # e1 down, e2 up
    return psi


def sector_statevector(index: int, nuclear_dim: int) -> np.ndarray:
    if not 0 <= index < nuclear_dim:
        raise ValueError(f"nuclear index {index} out of range 0..{nuclear_dim - 1}")
    nuc = np.zeros(nuclear_dim, dtype=complex)
    nuc[index] = 1.0
    return singlet_vector(nuc, (2, nuclear_dim, 2))


# ---------------------------------------------------------------------------
# Evolution
# ---------------------------------------------------------------------------

def singlet_values(traj: np.ndarray) -> np.ndarray:
    """Singlet probability <S|rho(t)|S> of each 4x4 pair state of a trajectory."""
    return np.real(np.einsum("a,tab,b->t", SINGLET.conj(), traj, SINGLET))


def pair_probabilities(rho4: np.ndarray) -> np.ndarray:
    """Bell-basis outcome probabilities (S, T0, T+, T-) of a 4x4 pair state."""
    return np.real(np.einsum("ia,...ab,ib->...i", BELL_BASIS.conj(), rho4, BELL_BASIS))


# ---------------------------------------------------------------------------
# Beat spectra
# ---------------------------------------------------------------------------

PAIR_TRIU = np.triu_indices(4)  # the 10 elements a <= b of a Hermitian pair state
PAIR_SLOT = {(int(a), int(b)): k for k, (a, b) in enumerate(zip(*PAIR_TRIU))}  # (a, b) -> k


def triu_row(op: np.ndarray) -> np.ndarray:
    """The row w of a Hermitian pair operator: <op> = Re sum_k w[k] rho[PAIR_TRIU][k]."""
    return (op.T * (2 - np.eye(4)))[PAIR_TRIU]  # an off-diagonal element counts twice


SINGLET_TRIU = triu_row(np.outer(SINGLET, SINGLET))
EXP_TABLE_ENTRIES = 1 << 16  # complex entries of an evaluation's exp tables, roughly


@dataclass(frozen=True)
class PairSpectrum:
    """Beat spectrum rho_ab(t) = sum_f amplitudes[f, k] exp(-i freqs[f] t) of a pair trajectory.

    k numbers the (a, b) of ``PAIR_TRIU``; the lower triangle is the conjugate.  Frequencies
    (rad/ns) within ``tol`` are one beat and are merged.  Scale by a real ``c * s``; add ``s + r``.
    """

    freqs: np.ndarray
    amplitudes: np.ndarray
    tol: float = 0.0

    def __rmul__(self, factor: float) -> "PairSpectrum":
        return PairSpectrum(self.freqs, factor * self.amplitudes, self.tol)

    def __add__(self, other: "PairSpectrum") -> "PairSpectrum":
        return _merged([self.freqs, other.freqs], [self.amplitudes, other.amplitudes],
                       max(self.tol, other.tol))


def _merged(freqs: list, amplitudes: list, tol: float) -> PairSpectrum:
    """The nonzero terms sorted by frequency, each run spaced <= tol summed into one."""
    f, a = np.concatenate(freqs), np.concatenate(amplitudes)
    order = np.flatnonzero(a.any(axis=1))
    order = order[np.argsort(f[order], kind="stable")]
    f, a = f[order], a[order]
    starts = np.flatnonzero(np.diff(f, prepend=-np.inf) > tol)
    return PairSpectrum(np.add.reduceat(f, starts) / np.diff(starts, append=len(f)),
                        np.add.reduceat(a, starts), tol)


def _reached_eigenbasis(w: np.ndarray, v: np.ndarray, coef: np.ndarray, tol: float):
    """A block's eigenpairs (w, v) and the states' components ``coef`` on them,
    with each degenerate eigenspace wider than the number of states in the
    block cut to an orthonormal basis of their projections onto it (a QR of
    their components; the eigenvalues become Rayleigh quotients).
    """
    hit = np.flatnonzero(coef.any(axis=1))
    clusters = np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > tol) + 1)  # w sorted
    if max(map(len, clusters), default=0) <= len(hit):
        return w, v, coef
    parts = []
    for J in clusters:
        if len(J) <= len(hit):
            parts.append((w[J], v[:, J], coef[:, J]))
            continue
        q, r = np.linalg.qr(coef[np.ix_(hit, J)].T)
        c = np.zeros((len(coef), len(hit)), dtype=complex)
        c[hit] = r.T
        parts.append((np.abs(q.T) ** 2 @ w[J], v[:, J] @ q, c))
    ws, vs, cs = zip(*parts)
    return np.concatenate(ws), np.hstack(vs), np.hstack(cs)


def pair_spectrum(H: BlockHamiltonian, states, weights) -> PairSpectrum:
    """Beat spectrum of the pair trajectory of sum_r weights[r] |states[r]><states[r]|.

    Block pair by block pair on ``H.blocks()``: eigenvectors j of B and k of C
    beat at w_j - w_k with amplitude sum_r weights[r] <v_j|psi_r><psi_r|v_k>
    sum_n <a, n|v_j><v_k|b, n> over the nuclear slots n both reach, so a state
    spanning B and C keeps its cross-block coherences; (C, B) is the conjugate.
    """
    states = np.atleast_2d(np.asarray(states, dtype=complex))
    if states.shape[1] != H.dim:
        raise ValueError(f"dimension mismatch: state {states.shape[1]} vs H {H.dim}")
    weights = np.asarray(weights, dtype=float)
    w, v = H.eig()
    blocks, K = H.blocks(), _nuclear_dim(H.dims)
    tol = 64 * np.finfo(float).eps * np.abs(w).max(initial=0.0)  # eigenvalue roundoff
    touched = np.zeros((len(states), len(blocks)), dtype=int)
    r, i = np.nonzero(states)
    touched[r, H.block_of[i]] = 1
    basis = {}
    for B in np.flatnonzero(touched.any(axis=0)):
        b = blocks[B]
        vb = v[b][:, b]
        wb, vb, cb = _reached_eigenbasis(w[b], vb, states[:, b] @ vb.conj(), tol)
        y = np.zeros((4, K, len(wb)), dtype=complex)  # eigenvector j at (pair state, slot)
        y[2 * (b % 2) + b // (2 * K), (b // 2) % K] = vb
        basis[B] = wb, y.transpose(0, 2, 1).reshape(-1, K), cb
    freqs, amps = [np.empty(0)], [np.empty((0, 10))]
    for B, C in np.argwhere(np.triu(touched.T @ touched)):
        (wb, yb, cb), (wc, yc, cc) = basis[B], basis[C]
        a = ((yb @ yc.conj().T).reshape(4, len(wb), 4, len(wc))
             * ((weights[:, None] * cb).T @ cc.conj())[None, :, None, :])
        f = np.subtract.outer(wb, wc).ravel()
        freqs.append(f)
        amps.append(a[PAIR_TRIU[0], :, PAIR_TRIU[1], :].reshape(10, -1).T)
        if B != C:
            freqs.append(-f)
            amps.append(a[PAIR_TRIU[1], :, PAIR_TRIU[0], :].conj().reshape(10, -1).T)
    return _merged(freqs, amps, tol)


def cation_spectrum(blocks: CationBlocks, b2: float) -> PairSpectrum:
    """Beat spectrum of |S><S| x sum_r weights[r] |r><r| under 1_e2 x h - b2 Z_e2 x 1, from
    the blocks of h that the ensemble reaches (``hamiltonians.build_cation_blocks``).

    h is the real cation Hamiltonian (nuclei and e1) and conserves M; the anion
    electron only adds the Larmor phase exp(-+i b2 t).  With w = sum_r weights[r],
    p_s(t) = sum_r weights[r] sum_n |<n s|exp(-iht)|r s>|^2 and
    c(t) = sum_r weights[r] sum_n <n up|exp(-iht)|r up> <n down|exp(-iht)|r down>^*,
    the five live pair elements are rho_11 = p_up / 2, rho_22 = p_down / 2,
    rho_00 = (w - p_down) / 2, rho_33 = (w - p_up) / 2 and
    rho_12 = -c(t) exp(-2i b2 t) / 2.  The blocks are diagonalized by one stacked
    ``eigh`` per block size; p_s beats within a block, c between the up rows of
    block M and the down rows of block M - 1, which hold the same slots in the
    same rows, so no product is wider than a block.  Terms at the roundoff level
    of the largest amplitude are dropped, and all are merged once.
    """
    live, weights, (above, below) = blocks.live, blocks.weights, blocks.pairs
    P = live.shape[1] // 2
    lam, X = np.zeros(live.shape), np.zeros(blocks.h.shape)  # X[b, :, j]: eigenvector j
    sizes = live.sum(axis=1)
    for size in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
        sel = np.flatnonzero(sizes == size)
        rows = np.nonzero(live[sel])[1].reshape(-1, size)  # each block's live rows, ascending
        lam[sel, :size], X[sel[:, None, None], rows[:, :, None], np.arange(size)] = (
            np.linalg.eigh(blocks.h[sel[:, None, None], rows[:, :, None], rows[:, None, :]]))

    def beats(rows, cols, w):  # sum_q w_q <j|q><q|l> * sum_q <j|q><q|l>
        rows = rows.transpose(0, 2, 1)
        return ((rows * w[:, None, :]) @ cols) * (rows @ cols)

    up, down = X[:, :P], X[:, P:]
    p_up, p_down = beats(up, up, weights[:, :P]), beats(down, down, weights[:, P:])
    c = beats(up[above], down[below], weights[above, :P])
    total = weights[:, :P].sum()  # every weighted slot has one up row
    # a term stays above 8 eps of the largest amplitude; every amplitude is half of one of these
    floor = 8 * np.finfo(float).eps * max(
        total, np.abs(p_up).max(), np.abs(p_down).max(), np.abs(c).max(initial=0.0))
    p_keep = np.maximum(np.abs(p_up), np.abs(p_down)) > floor
    c_keep = np.abs(c) > floor
    amps = np.zeros((1 + p_keep.sum() + c_keep.sum(), 10))
    amps[0, [PAIR_SLOT[0, 0], PAIR_SLOT[3, 3]]] = total / 2  # the constant parts of rho_00, rho_33
    p_up, p_down = p_up[p_keep], p_down[p_keep]
    beating = [PAIR_SLOT[a, a] for a in (1, 3, 2, 0)]  # rho_11, rho_33, rho_22, rho_00
    amps[1:1 + len(p_up), beating] = 0.5 * np.stack([p_up, -p_up, p_down, -p_down], axis=-1)
    amps[1 + len(p_up):, PAIR_SLOT[1, 2]] = -0.5 * c[c_keep]
    freqs = np.concatenate([[0.0], (lam[:, :, None] - lam[:, None, :])[p_keep],
                            (lam[above, :, None] - lam[below, None, :] + 2 * b2)[c_keep]])
    lam_max = np.abs(blocks.h).sum(axis=2).max(initial=0.0)  # bounds every eigenvalue
    return _merged([freqs], [amps], 64 * np.finfo(float).eps * (lam_max + abs(b2)))


def singlet_only(spectrum: PairSpectrum, rest: np.ndarray) -> PairSpectrum:
    """Beat spectrum of S(t) |S><S| + (w - S(t)) rest, from the singlet probability S(t) and
    trace w of ``spectrum``; ``rest`` is a unit-trace pair state with diagonal (r, q, q, r).
    S(t) = Re sum_f c_f exp(-i freqs[f] t) is kept as c_f / 2 at freqs[f] and its conjugate at
    -freqs[f], so the pair state is real, and |S><S| - rest gets the diagonal (-a, a, a, -a)
    exactly, so the trace is the terms of w alone."""
    shape = np.outer(SINGLET, SINGLET) - rest
    shape[[0, 3], [0, 3]] = -shape[1, 1]
    half = spectrum.amplitudes @ SINGLET_TRIU / 2
    trace = spectrum.amplitudes[:, PAIR_TRIU[0] == PAIR_TRIU[1]].sum(axis=1)
    f = spectrum.freqs
    return _merged([f, -f, f], [np.outer(half, shape[PAIR_TRIU]),
                                np.outer(half.conj(), shape[PAIR_TRIU]),
                                np.outer(trace, rest[PAIR_TRIU])], spectrum.tol)


def _phase_powers(freqs: np.ndarray, step: float, n: int) -> np.ndarray:
    """(n, F) table exp(-i freqs k step), k < n, by doubling: each entry is a product of
    at most log2(n) + 1 directly computed exponentials."""
    table = np.empty((n, len(freqs)), dtype=complex)
    table[0] = 1.0
    m = 1
    while m < n:
        table[m:2 * m] = table[:min(m, n - m)] * np.exp(-1j * freqs * (m * step))
        m *= 2
    return table


def _folded_rows(spectrum: PairSpectrum, rows: np.ndarray):
    """Terms (freqs, coefs) of every row r, laid end to end in slices bounds[r]:bounds[r + 1],
    with Re sum coefs exp(-i freqs t) the row's real read-out: a term c at f < 0 moves to
    |f| as conj(c), since Re c exp(-i f t) = Re conj(c) exp(i f t); runs within ``tol`` merge."""
    coef = np.asarray(rows) @ spectrum.amplitudes.T
    r, k = np.nonzero(coef)
    f, c = spectrum.freqs[k], coef[r, k]
    c, f = np.where(f < 0, c.conj(), c), np.abs(f)
    order = np.lexsort((f, r))
    r, f, c = r[order], f[order], c[order]
    starts = np.flatnonzero((np.diff(f, prepend=-np.inf) > spectrum.tol)
                            | (np.diff(r, prepend=-1) != 0))
    bounds = np.searchsorted(r[starts], np.arange(len(coef) + 1))
    return (np.add.reduceat(f, starts) / np.diff(starts, append=len(f)),
            np.add.reduceat(c, starts), bounds)


def evaluate_rows(spectrum: PairSpectrum, times: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(R, T) real parts Re sum_f (rows[r] . amplitudes[f]) exp(-i freqs[f] t) of coefficient
    rows over the 10 ``PAIR_TRIU`` elements, each over its own folded terms (``_folded_rows``).

    Two-level exp table: t = s + d with s one of A chunk starts and d one of K offsets.
    On a uniform grid (to the roundoff of the times) K = ceil(sqrt(T)) and both
    exp(-i w s) and exp(i w d) are built by ``_phase_powers``; on any other grid every
    point is a chunk start (K = 1), computed directly.  The folded terms of all rows
    are cut in slabs of ``EXP_TABLE_ENTRIES // (K + A)``, whose two tables all rows
    share; a row's n terms in a slab are one real (A x 2n) @ (2n x K) product of the
    tables viewed as floats.  The tables hold about ``EXP_TABLE_ENTRIES`` entries.
    """
    times = np.asarray(times, dtype=float)
    f, c, bounds = _folded_rows(spectrum, rows)
    T = len(times)
    out = np.zeros((len(bounds) - 1, T))
    if T == 0:
        return out
    step = (times[-1] - times[0]) / max(T - 1, 1)
    uniform = T > 1 and (np.abs(times - times[0] - step * np.arange(T)).max()
                         <= 4 * np.spacing(np.abs(times).max()))
    K = math.isqrt(T - 1) + 1 if uniform else 1
    A = -(-T // K)
    size = max(1, EXP_TABLE_ENTRIES // (K + A))  # terms per slab
    for lo in range(0, len(f), size):
        fs, cs = f[lo:lo + size], c[lo:lo + size]
        if uniform:
            coarse = _phase_powers(fs, K * step, A)
            coarse *= cs * np.exp(-1j * fs * times[0])
        else:
            coarse = np.exp(-1j * np.multiply.outer(times, fs)) * cs
        coarse, fine = coarse.view(float), _phase_powers(-fs, step, K).view(float)  # conjugate
        edges = [2 * (min(max(b, lo), lo + size) - lo) for b in bounds.tolist()]
        for r, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            if a < b:  # the row's first slab writes 0.0 + product (no -0.0), the others add
                np.add(out[r] if lo > bounds[r] else 0.0,
                       (coarse[:, a:b] @ fine[:, a:b].T).ravel()[:T], out=out[r])
    return out


def evaluate_spectrum(spectrum: PairSpectrum, times: np.ndarray,
                      singlet: bool = False) -> np.ndarray:
    """Pair trajectory (T, 4, 4) of a spectrum on ``times``, or with ``singlet`` S(t)."""
    if singlet:
        return evaluate_rows(spectrum, times, SINGLET_TRIU[None])[0]
    off = PAIR_TRIU[0] != PAIR_TRIU[1]  # Im x = Re(-i x)
    parts = evaluate_rows(spectrum, times, np.vstack([np.eye(10), -1j * np.eye(10)[off]]))
    out = parts[:10].astype(complex)
    out[off] += 1j * parts[10:]
    traj = np.empty((4, 4, len(times)), dtype=complex)  # time-fastest, seen (T, 4, 4)
    traj[PAIR_TRIU[1], PAIR_TRIU[0]] = out.conj()
    traj[PAIR_TRIU] = out
    return traj.transpose(2, 0, 1)


def singlet_trace(H: BlockHamiltonian, psi: np.ndarray, times: np.ndarray) -> TimeSeries:
    """S(t) of a pure statevector (a mixed state is a ``pair_spectrum`` ensemble)."""
    spectrum = pair_spectrum(H, psi, [1.0])
    return TimeSeries(times, clip_probabilities(evaluate_spectrum(spectrum, times, singlet=True)))


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
    if field_regime == "high":  # class |m| = k holds m = +-k of every I >= k
        out, above = {}, 0
        for I, c in counts.items():  # I descending
            above += c
            out[I] = above * (1 if I.twice_value == 0 else 2)
        return dict(reversed(out.items()))
    raise ValueError(f"unknown field regime {field_regime!r}")


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
