"""Radical-pair Hamiltonian builders.

Several representations of the same physics:

* full tensor-product Hamiltonian on one site per spin-1/2 (brute-force
  oracle),
* real cation blocks (nuclei and e1), one per total spin I of one nuclear
  group and one per I2 of the large group of two, each written from spin
  ladder operators, I.S1 = Iz S1z + (I+ S1- + I- S1+)/2 (``coupling_block``),
* the degeneracy-reduced total-spin register of one group, exact or secular,
  and the fixed-I2 sector registers of two groups, both zero-padded to a
  power of 2 and assembled from those blocks,
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
from .spinalg import HALF, HalfInt, multiplicity, spin_addition_counts

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = {"I": np.eye(2, dtype=complex), "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

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
        if math.isfinite(self.T1) and self.T2 > 2 * self.T1:
            raise ValueError(f"T2={self.T2} exceeds 2*T1={2 * self.T1} (unphysical dephasing rate)")
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
    """Hermitian matrix over a labeled register with padding metadata.

    ``dims``/``labels`` describe the tensor factors (e.g. (2, 32, 2) with
    labels ("e2", "nuc", "e1")).  ``basis_labels`` annotates the nuclear
    register slots (``None`` marks padding) and ``degeneracy`` carries the
    omitted multiplicity of each slot.  The exact invariant blocks and the
    eigendecomposition are computed once and cached.
    """

    def __init__(self, matrix, dims, labels, basis_labels=None, padded_rows=0,
                 degeneracy=None):
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
        self.labels = tuple(labels)
        self.basis_labels = basis_labels
        self.padded_rows = padded_rows
        self.degeneracy = degeneracy
        self._block_of: np.ndarray | None = None
        self._blocks: list[np.ndarray] | None = None
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def blocks(self, touching: np.ndarray | None = None) -> list[np.ndarray]:
        """Basis indices of the exact invariant blocks, ordered by first index (cached).

        A block is a connected component of the nonzero pattern of
        ``matrix``: every entry between two blocks is exactly zero, so each
        block evolves on its own.  With ``touching``, a vector over the
        basis, only the blocks on which it has a nonzero entry are returned.
        """
        if self._blocks is None:
            self._block_of = _connected_components(self.matrix != 0)
            order = np.argsort(self._block_of, kind="stable")
            self._blocks = np.split(order, np.cumsum(np.bincount(self._block_of))[:-1])
        if touching is None:
            return self._blocks
        hit = np.unique(self._block_of[np.flatnonzero(touching)])
        return [self._blocks[k] for k in hit]

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
    """Distinct total spins of n coupled spin-1/2s, descending."""
    return list(spin_addition_counts(n))


# ---------------------------------------------------------------------------
# Index tables for the one-group bases
# ---------------------------------------------------------------------------

def one_group_reduced_index(n: int, I: HalfInt, m: HalfInt) -> int:
    """Slot of |I,m> in the degeneracy-free nuclear ordering (Table-VII style)."""
    if abs(m.twice_value) > I.twice_value:
        raise ValueError(f"|m|={m} exceeds I={I}")
    idx = 0
    for J in distinct_spins(n):
        if J == I:
            return idx + (I.twice_value - m.twice_value) // 2
        idx += multiplicity(J)
    raise ValueError(f"I={I} is not a valid total spin for {n} nuclei")


# ---------------------------------------------------------------------------
# Full tensor-product oracle (one group)
# ---------------------------------------------------------------------------

def build_full_one_group(spec: SpinSystemSpec) -> BlockHamiltonian:
    """Brute-force H on the full 2^(N+2) product space.

    H = a I_total.S1 - b1 Z_e1 - b2 Z_e2, the hyperfine term assembled
    directly from per-axis collective nuclear operators.  Oracle only; N is
    capped to keep the dense matrix tractable.
    """
    if len(spec.groups) != 1:
        raise ValueError("build_full_one_group requires a one-group spec")
    n = spec.groups[0].count
    if n > FULL_ORACLE_MAX_NUCLEI:
        raise ValueError(f"full oracle capped at {FULL_ORACLE_MAX_NUCLEI} nuclei, got {n}")
    a = spec.hyperfine_rad_ns[0]
    nuc_dim = 2**n
    eye_nuc = np.eye(nuc_dim, dtype=complex)
    eye2 = np.eye(2, dtype=complex)

    dim = 2 * nuc_dim * 2
    H = np.zeros((dim, dim), dtype=complex)
    for axis in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        J = _collective_spin(n, axis) if n else np.zeros((1, 1), dtype=complex)
        H += a * _kron_chain([eye2, J, axis / 2])
    H -= spec.b1 * _kron_chain([eye2, eye_nuc, SIGMA_Z])
    H -= spec.b2 * _kron_chain([SIGMA_Z, eye_nuc, eye2])

    labels = ("e2", "nuc", "e1")
    return BlockHamiltonian(H.real, (2, nuc_dim, 2), labels)  # Jy x sigma_y is real, so H is


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

@functools.lru_cache(maxsize=32)  # both presets need 9; a large count keeps its 32 smallest
def coupling_block(two_I: int) -> tuple[np.ndarray, np.ndarray]:
    """I.S1 of a spin I = two_I / 2 and the cation electron (a = 1), and 2M per index.

    Over |I, m> x |e1> with index 2k + e1, m = I - k descending and e1 up (0)
    then down (1): Iz S1z is the diagonal m s / 2 (s = +-1), and
    (I+ S1- + I- S1+) / 2 links |m, up> and |m + 1, down> with
    sqrt((I - m)(I + m + 1)) / 2.  Real, read-only, and cached per 2I for the
    most recent spins only: the blocks of every spin up to n/2 would hold
    O(n^3) floats.
    """
    s = np.tile([1, -1], two_I + 1)
    twice_m = np.repeat(np.arange(two_I, -two_I - 1, -2), 2) + s
    h = np.diag((twice_m - s) * s / 4)
    k = np.arange(1, two_I + 1)  # |m, up> with m = I - k is index 2k, |m + 1, down> 2k - 1
    h[2 * k - 1, 2 * k] = h[2 * k, 2 * k - 1] = np.sqrt(k * (two_I + 1 - k)) / 2
    h.setflags(write=False)
    twice_m.setflags(write=False)
    return h, twice_m


def _direct_sum(blocks) -> np.ndarray:
    """Block-diagonal matrix of square ``blocks``, in order."""
    size = sum(len(b) for b in blocks)
    out, at = np.zeros((size, size)), 0
    for b in blocks:
        out[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return out


def _pair_register(h: np.ndarray, reg: int, b2: float) -> np.ndarray:
    """The (e2, nuc, e1) register 1_e2 x h - b2 Z_e2 x 1 over ``reg`` nuclear slots.

    ``h`` covers the populated slots; the padding slots beyond it stay exactly
    zero, the Zeeman terms included.
    """
    n, pair_dim = len(h), 2 * reg
    H = np.zeros((2 * pair_dim, 2 * pair_dim), dtype=complex)
    for start, z2 in ((0, -b2), (pair_dim, b2)):
        H[start:start + n, start:start + n] = h + z2 * np.eye(n)
    return H


def build_cation_one_group(spec: SpinSystemSpec) -> dict[HalfInt, tuple[np.ndarray, np.ndarray]]:
    """Real cation block h = a I.S1 - b1 Z_e1 of each distinct total spin I of a one-group
    system, descending, with 2M = 2(m + m_e1) per index (``coupling_block`` order).

    h conserves I and M: the reduced basis is the direct sum of these blocks,
    and each is exactly zero between indices of different M.
    """
    if len(spec.groups) != 1:
        raise ValueError("the reduced one-group basis requires a one-group spec")
    n = spec.groups[0].count
    if n < 1:
        raise ValueError("need at least one nucleus")
    a = spec.hyperfine_rad_ns[0]
    blocks = {}
    for I in distinct_spins(n):
        unit, twice_m = coupling_block(I.twice_value)
        h = a * unit
        h[np.diag_indices(len(h))] -= spec.b1 * np.tile([1.0, -1.0], multiplicity(I))
        blocks[I] = h, twice_m
    return blocks


def _one_group_register(spec: SpinSystemSpec, secular: bool) -> BlockHamiltonian:
    """The cation blocks of ``build_cation_one_group`` (with ``secular`` their diagonals
    alone) on both e2 sublevels with the anion Zeeman term, zero-padded to a power of 2."""
    blocks = build_cation_one_group(spec)
    h = _direct_sum([np.diag(np.diag(h)) if secular else h for h, _ in blocks.values()])
    nuc_dim = _next_pow2(len(h) // 2)
    basis_labels: list[tuple[HalfInt, HalfInt] | None] = [
        (I, HalfInt(tm)) for I in blocks for tm in range(I.twice_value, -I.twice_value - 2, -2)]
    counts = spin_addition_counts(spec.groups[0].count)
    pad = nuc_dim - len(basis_labels)
    return BlockHamiltonian(_pair_register(h, nuc_dim, spec.b2), (2, nuc_dim, 2),
                            ("e2", "nuc", "e1"), basis_labels=basis_labels + [None] * pad,
                            padded_rows=4 * pad,
                            degeneracy=[counts[I] for I, _ in basis_labels] + [0] * pad)


def build_reduced_one_group(spec: SpinSystemSpec) -> BlockHamiltonian:
    """Degeneracy-free H over distinct |I,m> states, zero-padded to a power of 2.

    The cation blocks of ``build_cation_one_group`` on both e2 sublevels, with
    the anion Zeeman term.  Padded slots stay exactly zero, including the
    Zeeman terms.
    """
    return _one_group_register(spec, secular=False)


def build_secular_one_group(spec: SpinSystemSpec) -> BlockHamiltonian:
    """High-field-limit (secular) Hamiltonian in the reduced |I,m> basis.

    Keeps only the z-component of the hyperfine coupling, a Iz S1z, plus the
    Zeeman terms; diagonal in the reduced basis.  In this limit the singlet
    dynamics of |I,m> depends on |m| alone (the statement behind the
    high-field 25-to-5 state reduction).
    """
    return _one_group_register(spec, secular=True)


# ---------------------------------------------------------------------------
# Partitioned 8x8 Hamiltonian for |I, m=I> initial states
# ---------------------------------------------------------------------------

def partitioned_params(n: int, I: HalfInt) -> tuple[float, float, float, float]:
    """(x, y, lam1, lam2) of the partitioned form, lam in units of a.

    x = sqrt(1/(2I+1)), y = sqrt(2I/(2I+1)), lam1 = I/2, lam2 = -(I+1)/2.
    """
    if I not in distinct_spins(n):
        raise ValueError(f"I={I} is not a valid total spin for {n} nuclei")
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
    basis_labels = [(I, I), (I, I - HALF) if I.twice_value > 0 else None]
    return BlockHamiltonian(H, (2, 2, 2), ("e2", "nuc", "e1"), basis_labels=basis_labels)


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

I1_STATES: tuple[tuple[HalfInt, HalfInt], ...] = (
    (HalfInt(2), HalfInt(2)),
    (HalfInt(2), HalfInt(0)),
    (HalfInt(2), HalfInt(-2)),
    (HalfInt(0), HalfInt(0)),
)


@dataclass
class TwoGroupSector:
    """One fixed-I2 block of a two-group system, with padding bookkeeping.

    ``cation`` is the real cation block h on the populated slots (index
    2 * slot + e1) and ``twice_m`` its 2M per index.  ``hamiltonian``, the
    padded (e2, nuc, e1) register 1_e2 x h - b2 Z_e2 x 1, is assembled from
    it on first use.
    """

    I2: HalfInt
    cation: np.ndarray
    twice_m: np.ndarray
    b2: float
    register_size: int      # padded nuclear register (power of 2)
    real_register: int      # populated nuclear slots: 4 * (2*I2 + 1)
    degeneracy: int         # multiplicity of I2 in the large group

    @property
    def pad_register(self) -> int:
        return self.register_size - self.real_register

    @functools.cached_property
    def hamiltonian(self) -> BlockHamiltonian:
        reg, real = self.register_size, self.real_register
        basis_labels: list[tuple | None] = [
            (self.I2, HalfInt(tm2), I1, m1)
            for tm2 in range(self.I2.twice_value, -self.I2.twice_value - 2, -2)
            for I1, m1 in I1_STATES]
        return BlockHamiltonian(
            _pair_register(self.cation, reg, self.b2),
            (2, reg, 2),
            ("e2", "nuc", "e1"),
            basis_labels=basis_labels + [None] * (reg - real),
            padded_rows=4 * (reg - real),
            degeneracy=[self.degeneracy] * real + [0] * (reg - real),
        )


def build_cation_two_group(I2: HalfInt, spec: SpinSystemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Real cation block h of the fixed-I2 sector on its populated slots
    (index 2 * slot + e1), and 2M = 2(m2 + m1 + m_e1) per index.

    Slots run over (m2 descending) x (|1,1>,|1,0>,|1,-1>,|0,0>); the small
    group must contain exactly two nuclei.  Both couplings are the
    ``coupling_block`` of their spin: the group-1 term is spin 1 (+) spin 0 on
    every m2, the group-2 term acts on (m2, e1) with the group-1 slot as a
    spectator; the e1 Zeeman term completes h.
    """
    if len(spec.groups) != 2:
        raise ValueError("build_two_group_block requires a two-group spec")
    n1, n2 = spec.groups[0].count, spec.groups[1].count
    if n1 != 2:
        raise ValueError("the small group must contain exactly 2 nuclei")
    if not (n2 >= 1 and 0 <= I2.twice_value <= n2 and (n2 - I2.twice_value) % 2 == 0):
        raise ValueError(f"I2={I2} is not a valid total spin for {n2} nuclei")
    w1, w2 = spec.hyperfine_rad_ns
    n_m2 = multiplicity(I2)
    size = 8 * n_m2

    group1 = _direct_sum([coupling_block(2)[0], coupling_block(0)[0]])
    group2 = coupling_block(I2.twice_value)[0].reshape(n_m2, 2, n_m2, 2)
    h = (w1 * np.kron(np.eye(n_m2), group1)
         + w2 * np.einsum("aebf,jk->ajebkf", group2, np.eye(4)).reshape(size, size))
    h[np.diag_indices(size)] -= spec.b1 * np.tile([1.0, -1.0], 4 * n_m2)  # e1 Zeeman
    twice_m = np.array([tm2 + m1.twice_value + s
                        for tm2 in range(I2.twice_value, -I2.twice_value - 2, -2)
                        for _, m1 in I1_STATES for s in (1, -1)])
    return h, twice_m


def build_two_group_block(I2: HalfInt, spec: SpinSystemSpec) -> TwoGroupSector:
    """Sector for fixed total spin I2 of the large nuclear group.

    Holds the cation block of ``build_cation_two_group``; its register is
    zero-padded to a power of 2 and the anion Zeeman term is appended, zero
    on padding.
    """
    h, twice_m = build_cation_two_group(I2, spec)
    real_reg = len(h) // 2
    return TwoGroupSector(
        I2=I2,
        cation=h,
        twice_m=twice_m,
        b2=spec.b2,
        register_size=_next_pow2(real_reg),
        real_register=real_reg,
        degeneracy=spin_addition_counts(spec.groups[1].count)[I2],
    )


def build_full_two_group(spec: SpinSystemSpec) -> BlockHamiltonian:
    """Brute-force two-group H on the full product space (toy-size oracle)."""
    if len(spec.groups) != 2:
        raise ValueError("build_full_two_group requires a two-group spec")
    n1, n2 = spec.groups[0].count, spec.groups[1].count
    if n1 + n2 > FULL_ORACLE_MAX_NUCLEI:
        raise ValueError("two-group oracle capped at "
                         f"{FULL_ORACLE_MAX_NUCLEI} total nuclei, got {n1 + n2}")
    w1, w2 = spec.hyperfine_rad_ns
    d1, d2 = 2**n1, 2**n2
    eye1, eye2q, eyee = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex), np.eye(2, dtype=complex)

    dim = 2 * d1 * d2 * 2
    H = np.zeros((dim, dim), dtype=complex)
    for axis in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        J1 = _collective_spin(n1, axis)
        J2 = _collective_spin(n2, axis)
        H += w1 * _kron_chain([eyee, J1, eye2q, axis / 2])
        H += w2 * _kron_chain([eyee, eye1, J2, axis / 2])
    H -= spec.b1 * _kron_chain([eyee, eye1, eye2q, SIGMA_Z])
    H -= spec.b2 * _kron_chain([SIGMA_Z, eye1, eye2q, eyee])
    return BlockHamiltonian(H, (2, d1, d2, 2), ("e2", "nuc1", "nuc2", "e1"))
