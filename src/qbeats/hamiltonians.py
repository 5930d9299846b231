"""Radical-pair Hamiltonian builders.

Several representations of the same physics:

* full tensor-product Hamiltonian on one site per spin-1/2 (brute-force
  oracle),
* real cation blocks (nuclei and e1) of conserved (I..., M), written from
  spin ladder operators, I.S1 = Iz S1z + (I+ S1- + I- S1+)/2, for the
  states an ensemble reaches (``build_cation_blocks``),
* the degeneracy-reduced total-spin register of one group and the fixed-I2
  sector registers of two groups, both zero-padded to a power of 2 and
  assembled from those blocks,
* the 8-dimensional partitioned form for initial states |I, m=I>,
* its Pauli-string decomposition.

Tensor factor order everywhere: anion electron (e2) first, nuclear register
in the middle, cation electron (e1) last.  Within a parent spin I the nuclear
states are ordered by descending m, and each |I,m> is immediately followed by
the two e1 sublevels (up, then down).  Matrix entries are angular frequencies
in rad/ns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import hyperfine_angular_frequency, zeeman_half_angular_frequency
from .spinalg import HalfInt, check_total_spin, multiplicity, spin_addition_counts

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

FULL_ORACLE_MAX_NUCLEI = 10


@dataclass(frozen=True)
class NuclearGroup:
    """A group of magnetically equivalent nuclei sharing one HFC constant."""

    count: int
    hfc_mT: float

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("nucleus count must be >= 0")
        if not math.isfinite(self.hfc_mT):
            raise ValueError("hfc must be finite")


def check_relaxation_times(T1: float, T2: float) -> None:
    """Refuse T2 > 2 T1, whose pure-dephasing rate 1/T2 - 1/(2 T1) is negative."""
    if math.isfinite(T1) and T2 > 2 * T1:
        raise ValueError(f"T2={T2} exceeds 2*T1={2 * T1} (unphysical dephasing rate)")


@dataclass(frozen=True)
class SpinSystemSpec:
    """Declarative description of a radical pair."""

    groups: tuple[NuclearGroup, ...]
    g1: float = 2.0028
    g2: float = 2.0028
    field_B: float = 0.0
    T1: float = math.inf
    T2: float = math.inf

    def __post_init__(self):
        if not 1 <= len(self.groups) <= 2:
            raise ValueError("only one- and two-group systems are supported")
        check_relaxation_times(self.T1, self.T2)
        if self.T1 <= 0 or self.T2 <= 0:
            raise ValueError("relaxation times must be positive")

    @property
    def hyperfine_rad_ns(self) -> tuple[float, ...]:
        """Angular frequency of each group's HFC constant, rad/ns."""
        return tuple(hyperfine_angular_frequency(g.hfc_mT, self.g1) for g in self.groups)

    @property
    def b1(self) -> float:
        return zeeman_half_angular_frequency(self.field_B, self.g1)

    @property
    def b2(self) -> float:
        return zeeman_half_angular_frequency(self.field_B, self.g2)


class BlockHamiltonian:
    """Hermitian matrix over a register of tensor factors ``dims``, e.g. (2, 32, 2)
    for (e2, nuc, e1).  The exact invariant blocks and the eigendecomposition are
    computed once and cached.
    """

    def __init__(self, matrix, dims):
        matrix = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if int(np.prod(dims)) != matrix.shape[0]:
            raise ValueError("register dims do not match matrix size")
        if not np.isfinite(matrix).all():
            raise ValueError("matrix has non-finite entries")
        herm = np.abs(matrix - matrix.conj().T).max()
        if herm > 1e-13 * max(1.0, np.abs(matrix).max()):
            raise ValueError(f"matrix is not Hermitian (max deviation {herm:.2e})")
        self.matrix = matrix
        self.dims = tuple(int(d) for d in dims)
        self._block_of: np.ndarray | None = None
        self._blocks: list[np.ndarray] | None = None
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def blocks(self) -> list[np.ndarray]:
        """Basis indices of the exact invariant blocks, ordered by first index (cached).

        A block is a connected component of the nonzero pattern of
        ``matrix``: every entry between two blocks is exactly zero, so each
        block evolves on its own.
        """
        if self._blocks is None:
            self._block_of = _connected_components(self.matrix != 0)
            order = np.argsort(self._block_of, kind="stable")
            self._blocks = np.split(order, np.cumsum(np.bincount(self._block_of))[:-1])
        return self._blocks

    @property
    def block_of(self) -> np.ndarray:
        """Number of the block (in ``blocks()`` order) of every basis index."""
        self.blocks()
        return self._block_of

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors (cached), diagonalized block by block.

        ``v`` has the sparsity of the blocks: the eigenpairs of the block
        with indices ``b`` are ``w[b]`` and ``v[np.ix_(b, b)]``.  Blocks of
        one size are diagonalized together by one stacked ``eigh``.
        """
        if self._eig is None:
            w, v = np.empty(self.dim), np.zeros((self.dim, self.dim), dtype=complex)
            sizes = np.array([len(b) for b in self.blocks()])
            for n in np.unique(sizes):
                idx = np.stack([b for b, size in zip(self.blocks(), sizes) if size == n])
                rows, cols = idx[:, :, None], idx[:, None, :]
                w[idx], v[rows, cols] = np.linalg.eigh(self.matrix[rows, cols])
            self._eig = (w, v)
        return self._eig


def _connected_components(pattern: np.ndarray) -> np.ndarray:
    """Component number of each vertex of a graph given by a boolean adjacency matrix.

    Every vertex takes the lowest label among itself and its neighbours, then
    the label of that label, until nothing changes; components are numbered
    in order of their lowest vertex.
    """
    linked = pattern | pattern.T
    label = np.arange(len(linked))
    while True:
        lowest = np.minimum(label, np.where(linked, label, len(label)).min(axis=1))
        if np.array_equal(lowest, label):
            return np.unique(label, return_inverse=True)[1]
        label = lowest[lowest]


def _next_pow2(n: int) -> int:
    return 1 << max(n - 1, 0).bit_length()


def _kron_chain(ops) -> np.ndarray:
    return functools.reduce(np.kron, ops)


def _collective_spin(n: int, axis: np.ndarray) -> np.ndarray:
    """sum_k (axis/2 on site k) over an n-fold spin-1/2 register."""
    dim = 2**n
    total = np.zeros((dim, dim), dtype=complex)
    for k in range(n):
        ops = [np.eye(2, dtype=complex)] * n
        ops[k] = axis / 2
        total += _kron_chain(ops)
    return total


def distinct_spins(n: int) -> list[HalfInt]:
    """Distinct total spins of n coupled spin-1/2s, descending: n/2, n/2 - 1, ..., 1/2 or 0."""
    return [HalfInt(n - 2 * k) for k in range(n // 2 + 1)]


# ---------------------------------------------------------------------------
# Index tables for the one-group bases
# ---------------------------------------------------------------------------

def one_group_reduced_index(n: int, I: HalfInt, m: HalfInt) -> int:
    """Slot of |I,m> in the degeneracy-free nuclear ordering (Table-VII style): the k = n/2 - I
    spins above I hold sum_{j<k} (n + 1 - 2j) = k (n + 2 - k) slots before it."""
    if abs(m.twice_value) > I.twice_value or (I.twice_value - m.twice_value) % 2:
        raise ValueError(f"no state |I={I}, m={m}>: m must be one of I, I-1, ..., -I")
    check_total_spin(n, I)
    k = (n - I.twice_value) // 2
    return k * (n + 2 - k) + (I.twice_value - m.twice_value) // 2


# ---------------------------------------------------------------------------
# Full tensor-product oracle
# ---------------------------------------------------------------------------

def _full_product_space(spec: SpinSystemSpec) -> BlockHamiltonian:
    """Brute-force H = sum_g a_g I_g.S1 - b1 Z_e1 - b2 Z_e2 on the full product space: e2,
    one 2^n_g factor per group, then e1.  Each hyperfine term is assembled
    directly from per-axis collective nuclear operators.  Oracle only; the nuclei are
    capped to keep the dense matrix tractable."""
    counts = [g.count for g in spec.groups]
    if sum(counts) > FULL_ORACLE_MAX_NUCLEI:
        raise ValueError(f"full oracle capped at {FULL_ORACLE_MAX_NUCLEI} nuclei, "
                         f"got {sum(counts)}")
    eye, eye2 = [np.eye(2**n) for n in counts], np.eye(2)
    H = 0.0
    for axis in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        for g, a in enumerate(spec.hyperfine_rad_ns):
            nuclear = eye[:g] + [_collective_spin(counts[g], axis)] + eye[g + 1:]
            H = H + a * _kron_chain([eye2, *nuclear, axis / 2])
    H -= spec.b1 * _kron_chain([eye2, *eye, SIGMA_Z])
    H -= spec.b2 * _kron_chain([SIGMA_Z, *eye, eye2])
    dims = (2, *(len(e) for e in eye), 2)
    return BlockHamiltonian(H.real, dims)  # Jy x sigma_y is real, so H is


def build_full_one_group(spec: SpinSystemSpec) -> BlockHamiltonian:
    """Brute-force H = a I_total.S1 - b1 Z_e1 - b2 Z_e2 on the full 2^(N+2) product space,
    factors (e2, nuc, e1).  Oracle only; N is capped."""
    if len(spec.groups) != 1:
        raise ValueError("build_full_one_group requires a one-group spec")
    return _full_product_space(spec)


def full_nuclear_sector_vector(n: int, I: HalfInt, m: HalfInt) -> np.ndarray:
    """A representative |I,m> state of n spin-1/2 nuclei in the product basis.

    The (I,m) eigenspace of (I_total^2, I_z) is deg(I)-fold degenerate; the
    Hamiltonian acts identically on every copy, so any unit vector in the
    sector is a valid representative.  Sectors are separated by
    diagonalizing I_total^2 + eps * I_z with eps small enough not to mix
    distinct I.
    """
    if n < 1:
        raise ValueError("need at least one nucleus")
    eps = 1e-3
    w, v = _total_spin_eigh(n, eps)
    target = I.as_float * (I.as_float + 1) + eps * m.as_float
    hits = np.nonzero(np.abs(w - target) < eps / 10)[0]
    if len(hits) == 0:
        raise ValueError(f"no ({I},{m}) sector found for {n} nuclei")
    vec = v[:, hits[0]].astype(complex)
    return vec


@functools.cache
def _total_spin_eigh(n: int, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of I_total^2 + eps * I_z over n spin-1/2 nuclei (cached)."""
    J = [_collective_spin(n, ax) for ax in (SIGMA_X, SIGMA_Y, SIGMA_Z)]
    return np.linalg.eigh(sum(j @ j for j in J) + eps * J[2])


# ---------------------------------------------------------------------------
# Cation blocks and the reduced (degeneracy-free) one-group Hamiltonian
# ---------------------------------------------------------------------------

def spin_states(twice_I) -> tuple[np.ndarray, np.ndarray]:
    """(2I, 2m) of every |I, m> of the spins ``twice_I`` (2I each), in order, m descending."""
    twice_I = np.asarray(twice_I, dtype=int)
    two_I = np.repeat(twice_I, twice_I + 1)
    first = np.repeat(np.cumsum(twice_I + 1) - (twice_I + 1), twice_I + 1)
    return two_I, two_I - 2 * (np.arange(len(two_I)) - first)


def nuclear_states(spec: SpinSystemSpec, twice_I_last) -> tuple[np.ndarray, np.ndarray]:
    """(G, R) arrays of 2I and 2m per group of every nuclear state whose last group has a
    spin of ``twice_I_last``: for two groups, every state of the small group on each
    |I2, m2>, m2 descending, the small group's states in descending (I1, m1)."""
    last = spin_states(twice_I_last)
    if len(spec.groups) == 1:
        return last[0][None], last[1][None]
    first = spin_states([I.twice_value for I in distinct_spins(spec.groups[0].count)])
    return tuple(np.stack([np.tile(f, len(l)), np.repeat(l, len(f))])
                 for f, l in zip(first, last))


@dataclass(frozen=True)
class CationBlocks:
    """Conserved blocks of a cation Hamiltonian h = sum_g a_g I_g.S1 - b1 Z_e1.

    h conserves every group's I_g and M = sum_g m_g + m_e1.  Block b holds one
    family of spins ``two_I[b]`` (2I per group) and one level mu = M - 1/2 of
    the nuclear m = sum_g m_g: row q < P is |slot q at level mu, e1 up> and
    row P + q is |slot q at level mu + 1, e1 down>, where a slot of a level is
    fixed by the first group's m1 = I1 - q (P = n1 + 1 for two groups, and
    P = 1 with q = 0 for one).  So the up rows of block mu and the down rows of
    block mu - 1 hold the same slots, row for row.  Rows a block lacks are
    ``live`` False and zero throughout.  ``two_m[b, row]`` is 2m per group of
    the row's slot, ``weights[b, row]`` the ensemble weight of that slot, and
    ``pairs`` the (block mu, block mu - 1) of every weighted level.
    """

    h: np.ndarray        # (B, 2P, 2P), real
    live: np.ndarray     # (B, 2P)
    weights: np.ndarray  # (B, 2P)
    two_I: np.ndarray    # (B, G)
    two_m: np.ndarray    # (B, 2P, G)
    pairs: np.ndarray    # (2, C)

    def dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """h as one matrix over the slots the blocks hold, index 2 * slot + e1 (up, then
        down), and each slot's (2I, 2m) per group, last group first, and weight.  Slots run
        in descending (I, m) of the last group, then of the first; the row of a slot that no
        block holds stays zero."""
        b, i = np.nonzero(self.live)
        P = self.live.shape[1] // 2
        key = np.column_stack([-x for g in reversed(range(self.two_I.shape[1]))
                               for x in (self.two_I[b, g], self.two_m[b, i, g])])
        slots, slot = np.unique(key, axis=0, return_inverse=True)
        index = np.zeros(self.live.shape, dtype=int)
        index[b, i] = 2 * slot.ravel() + i // P
        bb, ii, jj = np.nonzero(self.live[:, :, None] & self.live[:, None, :])
        h = np.zeros((2 * len(slots),) * 2)
        h[index[bb, ii], index[bb, jj]] = self.h[bb, ii, jj]
        weights = np.zeros(len(slots))
        weights[index[b, i] // 2] = self.weights[b, i]
        return h, -slots, weights


def _ladder(two_I: np.ndarray, two_m: np.ndarray) -> np.ndarray:
    """<m + 1| I+ |m> / 2 = sqrt((I - m)(I + m + 1)) / 2, zero where m is out of range."""
    k = (two_I - two_m) // 2
    return np.sqrt(np.maximum(k * (two_I + 1 - k), 0)) / 2


def build_cation_blocks(spec: SpinSystemSpec, two_I, two_m, weights) -> CationBlocks:
    """The blocks of h = sum_g a_g I_g.S1 - b1 Z_e1 that an ensemble of nuclear states
    reaches, written from the ladder matrix elements.

    The ensemble is sum_r weights[r] |r><r| over the states r given by (G, R) arrays of
    2I and 2m per group (``nuclear_states``).  Built are the block of |r, up> and the
    block of |r, down> of every r of nonzero weight, which includes every M - 1 partner
    its c beats need.  In the blocks, Iz S1z is the diagonal m s / 2 (s = +-1 for e1 up,
    down), (I+ S1- + I- S1+) / 2 links |m, up> with |m + 1, down> by ``_ladder``, and the
    e1 Zeeman term is -b1 s.
    """
    hit = np.asarray(weights) != 0
    two_I, two_m = np.asarray(two_I)[:, hit], np.asarray(two_m)[:, hit]
    weights = np.asarray(weights, dtype=float)[hit]
    G, R = two_I.shape
    P = spec.groups[0].count + 1 if G == 2 else 1
    q = (two_I[0] - two_m[0]) // 2 if G == 2 else np.zeros(R, dtype=int)
    level = two_m.sum(axis=0)  # 2 mu of the block of |r, up>; |r, down> is in mu - 1
    keys = np.vstack([np.hstack([two_I, two_I]), np.hstack([level, level - 2])])
    low = keys.min(axis=1, keepdims=True)  # one integer code per key, in the keys' order
    dims = tuple(keys.max(axis=1) - low[:, 0] + 1)
    codes, block = np.unique(np.ravel_multi_index(tuple(keys - low), dims), return_inverse=True)
    families = np.array(np.unravel_index(codes, dims)) + low
    fam, block = families[:G].T, block.ravel()
    row_level = families[G][:, None] + 2 * (np.arange(2 * P) >= P)
    if G == 2:  # 2 m1 = 2 I1 - 2 q, and the last group takes the rest of the level
        m1 = fam[:, :1] - 2 * np.tile(np.arange(P), 2)
        row_m = np.stack([m1, row_level - m1], axis=-1)
    else:
        row_m = row_level[..., None]
    live = (np.abs(row_m) <= fam[:, None, :]).all(axis=-1)
    a = np.array(spec.hyperfine_rad_ns)
    s = np.where(np.arange(2 * P) < P, 1, -1)
    up, down, q_up = live[:, :P], live[:, P:], np.arange(P)
    h = np.zeros((len(fam), 2 * P, 2 * P))
    h[:, q_up, q_up + P] = a[-1] * _ladder(fam[:, -1:], row_m[:, :P, -1]) * (up & down)
    if G == 2:  # raising m1 moves to the slot one to the left
        h[:, q_up[1:], q_up[:-1] + P] = (a[0] * _ladder(fam[:, :1], row_m[:, 1:P, 0])
                                         * (up[:, 1:] & down[:, :-1]))
    h += h.transpose(0, 2, 1)
    diag = sum(a[g] * (row_m[..., g] * s / 4) for g in range(G)) - spec.b1 * s
    h[:, np.arange(2 * P), np.arange(2 * P)] = np.where(live, diag, 0.0)
    slot_weights = np.zeros(live.shape)
    slot_weights[block[:R], q] = weights
    slot_weights[block[R:], P + q] = weights
    code = np.sort(block[:R] * len(fam) + block[R:])  # np.unique would import numpy.ma
    pairs = np.array(np.divmod(code[np.diff(code, prepend=-1) != 0], len(fam)))
    return CationBlocks(h, live, slot_weights, fam, row_m, pairs)


def _padded_register(blocks: CationBlocks, b2: float) -> BlockHamiltonian:
    """The (e2, nuc, e1) register 1_e2 x h - b2 Z_e2 x 1 of the blocks' matrix h
    (``CationBlocks.dense``), the nuclear slots zero-padded to a power of 2.  Padding
    slots stay exactly zero, the Zeeman terms included."""
    h = blocks.dense()[0]
    n, reg = len(h), _next_pow2(len(h) // 2)
    H = np.zeros((4 * reg, 4 * reg), dtype=complex)
    for start, z2 in ((0, -b2), (2 * reg, b2)):
        H[start:start + n, start:start + n] = h + z2 * np.eye(n)
    return BlockHamiltonian(H, (2, reg, 2))


def build_reduced_one_group(spec: SpinSystemSpec) -> BlockHamiltonian:
    """Degeneracy-free H over distinct |I,m> states, zero-padded to a power of 2.

    The cation blocks of every |I, m> (``build_cation_blocks``) on both e2 sublevels,
    with the anion Zeeman term.  Padded slots stay exactly zero, including the
    Zeeman terms.
    """
    spins = [I.twice_value for I in distinct_spins(spec.groups[0].count)]
    two_I, two_m = nuclear_states(spec, spins)
    blocks = build_cation_blocks(spec, two_I, two_m, np.ones(two_I.shape[1]))
    return _padded_register(blocks, spec.b2)


# ---------------------------------------------------------------------------
# Partitioned 8x8 Hamiltonian for |I, m=I> initial states
# ---------------------------------------------------------------------------

def partitioned_params(n: int, I: HalfInt) -> tuple[float, float, float, float]:
    """(x, y, lam1, lam2) of the partitioned form, lam in units of a.

    x = sqrt(1/(2I+1)), y = sqrt(2I/(2I+1)), lam1 = I/2, lam2 = -(I+1)/2.
    """
    check_total_spin(n, I)
    two_I = I.twice_value
    if two_I == 0:
        return 0.0, 0.0, 0.0, 0.0
    x = math.sqrt(1 / (two_I + 1))
    y = math.sqrt(two_I / (two_I + 1))
    return x, y, two_I / 4, -(two_I + 2) / 4


def build_partitioned(I: HalfInt, spec: SpinSystemSpec) -> BlockHamiltonian:
    """8x8 Hamiltonian for evolving |I, m=I> x |S>.

    Inner 4-block basis: (|I,I>, |I,I-1>) x (e1 up, down); the |I,I-1> down
    slot is the hyperfine padding slot but, as printed, still carries the
    Zeeman diagonals.  Outer factor is e2.
    """
    if len(spec.groups) != 1:
        raise ValueError("build_partitioned requires a one-group spec")
    n = spec.groups[0].count
    a = spec.hyperfine_rad_ns[0]
    x, y, lam1, lam2 = partitioned_params(n, I)

    cg = np.array([[1.0, 0.0, 0.0], [0.0, x, y], [0.0, y, -x]])
    if I.twice_value == 0:
        h3 = np.zeros((3, 3))
    else:
        h3 = cg @ np.diag([lam1, lam1, lam2]) @ cg
    h4 = np.zeros((4, 4), dtype=complex)
    h4[:3, :3] = a * h3
    h4 -= spec.b1 * np.kron(np.eye(2), SIGMA_Z)

    H = np.kron(np.eye(2, dtype=complex), h4) - spec.b2 * np.kron(SIGMA_Z, np.eye(4, dtype=complex))
    return BlockHamiltonian(H, (2, 2, 2))


def pauli_decompose_partitioned(I: HalfInt, spec: SpinSystemSpec) -> list[tuple[float, str]]:
    """Seven-term Pauli decomposition of the partitioned Hamiltonian.

    Letters are ordered (e2, nuclear, e1); coefficients are rad/ns.  The sum
    of coefficient * string reproduces ``build_partitioned`` exactly.
    """
    if len(spec.groups) != 1:
        raise ValueError("pauli_decompose_partitioned requires a one-group spec")
    n = spec.groups[0].count
    a = spec.hyperfine_rad_ns[0]
    x, y, lam1, lam2 = partitioned_params(n, I)
    aniso = (lam1 - lam2) * (x * x - y * y)
    terms = [
        (a * (2 * lam1 + lam2) / 4, "III"),
        (a * (lam1 + aniso) / 4, "IZI"),
        (a * (lam1 - aniso) / 4 - spec.b1, "IIZ"),
        (-a * lam2 / 4, "IZZ"),
        (a * (lam1 - lam2) * x * y / 2, "IXX"),
        (a * (lam1 - lam2) * x * y / 2, "IYY"),
        (-spec.b2, "ZII"),
    ]
    return terms


# ---------------------------------------------------------------------------
# Two-group sector blocks
# ---------------------------------------------------------------------------

@dataclass
class TwoGroupSector:
    """One fixed-I2 block of a two-group system, with padding bookkeeping.

    ``blocks`` are its cation blocks (``build_cation_blocks``), every populated
    slot weighted 1 / register_size.  ``hamiltonian``, the padded (e2, nuc, e1)
    register 1_e2 x h - b2 Z_e2 x 1 of their matrix h (``CationBlocks.dense``),
    is scattered from them on first use.
    """

    I2: HalfInt
    blocks: CationBlocks
    b2: float
    register_size: int      # padded nuclear register (power of 2)
    real_register: int      # populated nuclear slots: 4 * (2*I2 + 1)
    degeneracy: int         # multiplicity of I2 in the large group

    @property
    def pad_register(self) -> int:
        return self.register_size - self.real_register

    @functools.cached_property
    def hamiltonian(self) -> BlockHamiltonian:
        return _padded_register(self.blocks, self.b2)


def build_two_group_block(I2: HalfInt, spec: SpinSystemSpec) -> TwoGroupSector:
    """Sector for fixed total spin I2 of the large nuclear group.

    Its slots run over (m2 descending) x (|1,1>,|1,0>,|1,-1>,|0,0>) of the
    small group, which must contain exactly two nuclei; its register is
    zero-padded to a power of 2 and the anion Zeeman term is appended, zero
    on padding.
    """
    if len(spec.groups) != 2:
        raise ValueError("build_two_group_block requires a two-group spec")
    n1, n2 = spec.groups[0].count, spec.groups[1].count
    if n1 != 2:
        raise ValueError("the small group must contain exactly 2 nuclei")
    check_total_spin(n2, I2, "I2")
    real_reg = 4 * multiplicity(I2)
    reg = _next_pow2(real_reg)
    two_I, two_m = nuclear_states(spec, [I2.twice_value])
    return TwoGroupSector(
        I2=I2,
        blocks=build_cation_blocks(spec, two_I, two_m, np.full(real_reg, 1.0 / reg)),
        b2=spec.b2,
        register_size=reg,
        real_register=real_reg,
        degeneracy=spin_addition_counts(n2)[I2],
    )


def build_full_two_group(spec: SpinSystemSpec) -> BlockHamiltonian:
    """Brute-force two-group H on the full product space, factors (e2, nuc1, nuc2, e1)
    (toy-size oracle)."""
    if len(spec.groups) != 2:
        raise ValueError("build_full_two_group requires a two-group spec")
    return _full_product_space(spec)
