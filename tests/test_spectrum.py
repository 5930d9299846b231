"""Beat-spectrum propagation against the per-state propagation it replaced.

The pure-state oracle below is the former propagation path, kept here in
substance: a pure state is propagated block by block through each block's
eigenpairs over the whole grid.  It uses the same ``BlockHamiltonian.eig``
eigenpairs as the spectral path, so it differs from it only by the merging of
equal frequencies and by evaluation roundoff.  A density matrix is checked
against the eigenbasis phase sums of one ``eigh`` of the whole matrix
(``support.dense_density_trajectory``).  The cation-block spectra of the
pipeline are checked against ``pair_spectrum`` on the full register.
"""

import dataclasses
import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from qbeats import dynamics
from qbeats.config import load_preset
from qbeats.dynamics import (
    SINGLET_TRIU,
    SQRT_HALF,
    PairSpectrum,
    cation_spectrum,
    evaluate_rows,
    evaluate_spectrum,
    one_group_weights,
    pair_spectrum,
    sector_statevector,
    singlet_trace,
    singlet_values,
    singlet_vector,
    time_grid,
)
from qbeats import pipeline
from qbeats.hamiltonians import (
    build_full_one_group,
    build_reduced_one_group,
    build_two_group_block,
    distinct_spins,
    full_nuclear_sector_vector,
    one_group_reduced_index,
)
from qbeats.pipeline import (one_group_sector_spectra, one_group_spectrum, simulate,
                             two_group_spectrum)
from qbeats.relaxation import CORRELATOR_TRIU, relaxed_singlet
from qbeats.spinalg import HalfInt, spin_addition_counts
from support import (cation_matrix, cation_register, class_average, dense_density_trajectory,
                     mixed_singlet_density, one_group_blocks, operator_sum_pair,
                     reduced_cation_block, werner_trajectory)

REGIMES = ("zero", "high")
TIMES = time_grid(0.0, 100.0, 0.1)
TOL = 1e-12


# ---------------------------------------------------------------------------
# Oracle: the per-state amplitude propagation
# ---------------------------------------------------------------------------

def oracle_amplitudes(H, psi0, times):
    """Amplitudes (4, R, T) of psi(t) at (pair state p, nuclear slot r)."""
    w, v = H.eig()
    K = H.dims[1]
    blocks = [H.blocks()[k] for k in np.unique(H.block_of[np.flatnonzero(psi0)])]
    states = np.concatenate(blocks)
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


def oracle_pure(H, psi0, times):
    amps = oracle_amplitudes(H, np.asarray(psi0, dtype=complex), times)
    return np.einsum("art,brt->tab", amps, amps.conj())


def oracle_singlet_pure(H, psi0, times):
    amps = oracle_amplitudes(H, np.asarray(psi0, dtype=complex), times)
    return np.sum(np.abs(SQRT_HALF * (amps[1] - amps[2])) ** 2, axis=0)


def spec(name, regime):
    return load_preset(name).spin_spec(regime)


@functools.cache
def reduced(regime):
    return build_reduced_one_group(spec("octalin", regime))


@functools.cache
def oracle_hamiltonian(regime):
    return build_full_one_group(spec("octalin", regime))


@functools.cache
def dmb_sector(regime, I2):
    return build_two_group_block(I2, spec("dmb", regime))


def sector_share(regime, I2):
    """The spectrum of one I2 sector's slots in the dmb mixed state, weighted by its share."""
    sector = dmb_sector(regime, I2)
    share = spin_addition_counts(12)[I2] * sector.register_size / 2**14
    return share * cation_spectrum(sector.blocks, sector.b2)


def oracle_sector(sector, times):
    reg = sector.register_size
    return sum(oracle_pure(sector.hamiltonian, sector_statevector(r, reg), times)
               for r in range(sector.real_register)) / reg


def dev(a, b):
    return np.abs(np.asarray(a) - np.asarray(b)).max()


# ---------------------------------------------------------------------------
# Agreement with the oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("regime", REGIMES)
def test_pure_states_of_the_reduced_basis(regime):
    H = reduced(regime)
    for I in distinct_spins(8):
        for tm in range(-I.twice_value, I.twice_value + 1, 2):
            psi = sector_statevector(one_group_reduced_index(8, I, HalfInt(tm)), H.dims[1])
            assert dev(evaluate_spectrum(pair_spectrum(H, psi, [1.0]), TIMES),
                       oracle_pure(H, psi, TIMES)) <= TOL
            assert dev(singlet_trace(H, psi, TIMES).values,
                       oracle_singlet_pure(H, psi, TIMES)) <= TOL


@pytest.mark.parametrize("regime", REGIMES)
def test_dmb_mixed_registers(regime):
    for I2 in spin_addition_counts(12):
        sector = dmb_sector(regime, I2)
        assert dev(evaluate_spectrum(cation_spectrum(sector.blocks, sector.b2), TIMES),
                   oracle_sector(sector, TIMES)) <= TOL


@pytest.mark.parametrize("regime", REGIMES)
def test_dmb_mixed_state_trajectory(regime):
    counts = spin_addition_counts(12)
    oracle = sum(counts[I2] * dmb_sector(regime, I2).register_size / 2**14
                 * oracle_sector(dmb_sector(regime, I2), TIMES) for I2 in counts)
    assert dev(evaluate_spectrum(two_group_spectrum(spec("dmb", regime)), TIMES), oracle) <= TOL


@pytest.mark.parametrize("regime", REGIMES)
def test_density_matrices(regime):
    """The mixed state as the equal-weight ensemble against its density matrix."""
    H = reduced(regime)
    times = TIMES[::10]
    spectrum = pair_spectrum(H, singlet_vector(np.eye(32), H.dims), np.full(32, 1 / 32))
    oracle = dense_density_trajectory(H, mixed_singlet_density(32).matrix, times)
    assert dev(evaluate_spectrum(spectrum, times), oracle) <= TOL
    assert dev(evaluate_spectrum(spectrum, times, singlet=True), singlet_values(oracle)) <= TOL


@pytest.mark.parametrize("regime", REGIMES)
def test_full_oracle_hamiltonian(regime):
    """The 1024-state matrix: blocks up to 126 with heavily degenerate eigenvalues."""
    H = oracle_hamiltonian(regime)
    states = [singlet_vector(full_nuclear_sector_vector(8, HalfInt(tI), HalfInt(tm)), H.dims)
              for tI, tm in ((8, 8), (8, 0), (4, 2), (2, -2), (0, 0))]
    for psi in states:
        assert dev(singlet_trace(H, psi, TIMES).values,
                   oracle_singlet_pure(H, psi, TIMES)) <= TOL
        assert dev(evaluate_spectrum(pair_spectrum(H, psi, [1.0]), TIMES[::10]),
                   oracle_pure(H, psi, TIMES[::10])) <= TOL
    # an ensemble in the same blocks, so in shared degenerate eigenspaces
    ensemble = [singlet_vector(full_nuclear_sector_vector(8, HalfInt(tI), HalfInt(0)), H.dims)
                for tI in (8, 4, 2)]
    weights = np.array([0.5, 0.3, 0.2])
    spectrum = pair_spectrum(H, np.stack(ensemble), weights)
    oracle = sum(wt * oracle_pure(H, psi, TIMES) for wt, psi in zip(weights, ensemble))
    assert dev(evaluate_spectrum(spectrum, TIMES), oracle) <= TOL


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@pytest.fixture
def small_tables(monkeypatch):
    """Every folded term is a slab of its own.  Returns K: a uniform grid of K * K + extra
    points has chunks of K or K + 1 points, the last one full or partial."""
    monkeypatch.setattr(dynamics, "EXP_TABLE_ENTRIES", 1)
    return 7


def sector_case(regime="high"):
    sector = dmb_sector(regime, HalfInt(4))
    return sector, cation_spectrum(sector.blocks, sector.b2)


@pytest.mark.parametrize("extra", [-1, 0, 1, 5])
def test_grids_that_are_not_a_multiple_of_the_chunk(small_tables, extra):
    sector, spectrum = sector_case()
    times = 0.7 * np.arange(small_tables ** 2 + extra)
    assert dev(evaluate_spectrum(spectrum, times), oracle_sector(sector, times)) <= TOL


@pytest.mark.parametrize("start", [0.05, 37.3, 1000.0])
def test_nonzero_start(small_tables, start):
    sector, spectrum = sector_case()
    times = time_grid(start, start + 20.0, 0.1)
    assert dev(evaluate_spectrum(spectrum, times), oracle_sector(sector, times)) <= TOL


@pytest.mark.parametrize("t", [0.0, 3.3, 99.9])
def test_one_point_grid(t):
    sector, spectrum = sector_case()
    times = np.array([t])
    assert dev(evaluate_spectrum(spectrum, times), oracle_sector(sector, times)) <= TOL
    assert evaluate_spectrum(spectrum, times, singlet=True).shape == (1,)


def test_non_uniform_times(small_tables):
    sector, spectrum = sector_case()
    rng = np.random.default_rng(3)
    # random points, then two uniform stretches of different steps
    times = np.concatenate([np.sort(rng.uniform(0.0, 50.0, 40)),
                            50.0 + 0.25 * np.arange(1, 40), 60.0 + 0.5 * np.arange(1, 40)])
    assert dev(evaluate_spectrum(spectrum, times), oracle_sector(sector, times)) <= TOL


def test_empty_grid():
    _, spectrum = sector_case()
    assert evaluate_spectrum(spectrum, np.empty(0)).shape == (0, 4, 4)


def test_long_zero_field_grid_merges_degenerate_frequencies():
    times = time_grid(0.0, 2000.0, 0.5)
    total = 0
    for I2 in spin_addition_counts(12):
        sector = dmb_sector("zero", I2)
        spectrum = cation_spectrum(sector.blocks, sector.b2)
        total += len(spectrum.freqs)
        blocks = sector.hamiltonian.blocks()
        pairs = sum(len(b) ** 2 for b in blocks if len(b) > 1)
        assert len(spectrum.freqs) < pairs
        assert dev(evaluate_spectrum(spectrum, times), oracle_sector(sector, times)) <= TOL
    parts = [sector_share("zero", I2) for I2 in spin_addition_counts(12)]
    assert len(sum(parts[1:], parts[0]).freqs) < total


# ---------------------------------------------------------------------------
# Spectrum algebra and the eigendecomposition it rests on
# ---------------------------------------------------------------------------

def test_scaled_sum_evaluates_to_the_scaled_sum_of_trajectories():
    (_, a), sector = sector_case("zero"), dmb_sector("zero", HalfInt(2))
    b = cation_spectrum(sector.blocks, sector.b2)
    combined = 0.3 * a + b
    expected = 0.3 * evaluate_spectrum(a, TIMES) + evaluate_spectrum(b, TIMES)
    assert dev(evaluate_spectrum(combined, TIMES), expected) <= TOL
    assert np.all(np.diff(combined.freqs) > combined.tol)
    assert dev(evaluate_spectrum(b + 0.3 * a, TIMES), expected) <= TOL


def test_singlet_evaluation_matches_the_trajectory():
    _, spectrum = sector_case()
    traj = evaluate_spectrum(spectrum, TIMES)
    assert dev(evaluate_spectrum(spectrum, TIMES, singlet=True), singlet_values(traj)) <= TOL
    assert dev(traj, traj.conj().transpose(0, 2, 1)) == 0


def test_exact_ties_merge_and_zero_terms_drop():
    amps = np.zeros((4, 10), dtype=complex)
    amps[0, 0], amps[1, 0], amps[3, 4] = 1.0, 2.0, 1j
    s = 1.0 * PairSpectrum(np.array([0.5, 0.5, 0.7, -1.0]), amps)
    merged = s + PairSpectrum(np.empty(0), np.empty((0, 10), dtype=complex))
    assert list(merged.freqs) == [-1.0, 0.5]
    assert merged.amplitudes[1, 0] == 3.0 and merged.amplitudes[0, 4] == 1j


@pytest.mark.parametrize("name", ["reduced-high", "dmb-high", "oracle-zero"])
def test_stacked_eig_equals_block_by_block_eigh(name):
    H = {"reduced-high": lambda: reduced("high"),
         "dmb-high": lambda: dmb_sector("high", HalfInt(6)).hamiltonian,
         "oracle-zero": lambda: oracle_hamiltonian("zero")}[name]()
    w, v = H.eig()
    for b in H.blocks():
        wb_ref, vb_ref = np.linalg.eigh(H.matrix[np.ix_(b, b)])
        assert np.array_equal(w[b], wb_ref) and np.array_equal(v[np.ix_(b, b)], vb_ref)


# ---------------------------------------------------------------------------
# Cation-block spectra against pair_spectrum on the full register
# ---------------------------------------------------------------------------

def full_register_spectrum(blocks, b2):
    """The ``pair_spectrum`` of |S><S| x sum_r weights[r] |r><r| on 1_e2 x h - b2 Z_e2 x 1,
    h the matrix of the cation blocks."""
    h, _, weights = blocks.dense()
    H = cation_register(h, b2)
    return pair_spectrum(H, singlet_vector(np.eye(H.dims[1]), H.dims), weights)


def full_register_sector_spectrum(sector):
    """The sector's mixed-register spectrum on its padded full register."""
    H, real = sector.hamiltonian, sector.real_register
    return pair_spectrum(H, singlet_vector(np.eye(sector.register_size)[:real], H.dims),
                         np.full(real, 1.0 / sector.register_size))


def class_weights(regime):
    """Slot weights of the |I, m=I> representatives in the one-group mixed state."""
    weights = np.zeros(25)
    for k, count in one_group_weights(8, regime).items():
        weights[one_group_reduced_index(8, abs(k), abs(k))] = count / 256
    return weights


@pytest.mark.parametrize("regime", REGIMES)
def test_cation_spectra_of_every_dmb_sector(regime):
    for I2 in spin_addition_counts(12):
        sector = dmb_sector(regime, I2)
        assert dev(evaluate_spectrum(cation_spectrum(sector.blocks, sector.b2), TIMES),
                   evaluate_spectrum(full_register_sector_spectrum(sector), TIMES)) <= TOL


@pytest.mark.parametrize("regime", REGIMES)
def test_cation_spectrum_of_the_mixed_octalin_ensemble(regime):
    s = spec("octalin", regime)
    weights = class_weights(regime)
    H = reduced(regime)
    reached = np.flatnonzero(weights)
    oracle = evaluate_spectrum(
        pair_spectrum(H, np.stack([sector_statevector(r, H.dims[1]) for r in reached]),
                      weights[reached]), TIMES)
    assert dev(evaluate_spectrum(cation_spectrum(one_group_blocks(s, weights), s.b2), TIMES),
               oracle) <= TOL
    if regime == "zero":  # the mixed state's pair state is rotation invariant
        oracle = werner_trajectory(singlet_values(oracle))
    assert dev(evaluate_spectrum(one_group_spectrum(s, regime), TIMES), oracle) <= TOL


@pytest.mark.parametrize("regime", REGIMES)
def test_cation_spectra_of_all_25_pure_states(regime):
    s, H = spec("octalin", regime), reduced(regime)
    for I in distinct_spins(8):
        for tm in range(-I.twice_value, I.twice_value + 1, 2):
            m = HalfInt(tm)
            psi = sector_statevector(one_group_reduced_index(8, I, m), H.dims[1])
            assert dev(evaluate_spectrum(one_group_sector_spectra(s, [(I, m)])[I], TIMES),
                       evaluate_spectrum(pair_spectrum(H, psi, [1.0]), TIMES)) <= TOL


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", ["octalin", "dmb"])
def test_sector_columns_match_the_full_register(monkeypatch, name, regime):
    config = dataclasses.replace(load_preset(name), noise_method="none")
    result = simulate(config, regime, sectors=True)
    monkeypatch.setattr(pipeline, "cation_correlators", lambda blocks, b2, times: evaluate_rows(
        full_register_spectrum(blocks, b2), times, CORRELATOR_TRIU[:3]))
    oracle = simulate(config, regime, sectors=True)
    assert result.labels == oracle.labels and len(result.labels) in (5, 7)
    assert dev(result.sectors, oracle.sectors) <= TOL
    assert dev(result.trace.values, oracle.trace.values) <= TOL


@pytest.mark.parametrize("extra", [-1, 0, 1, 5])
def test_cation_spectra_across_chunk_boundaries(small_tables, extra):
    times = 0.7 * np.arange(small_tables ** 2 + extra)
    sector = dmb_sector("high", HalfInt(6))
    oracle = full_register_sector_spectrum(sector)
    assert dev(evaluate_spectrum(cation_spectrum(sector.blocks, sector.b2), times),
               evaluate_spectrum(oracle, times)) <= TOL
    s = spec("octalin", "high")
    H, weights = reduced("high"), class_weights("high")
    reached = np.flatnonzero(weights)
    oracle = pair_spectrum(H, np.stack([sector_statevector(r, H.dims[1]) for r in reached]),
                           weights[reached])
    assert dev(evaluate_spectrum(cation_spectrum(one_group_blocks(s, weights), s.b2), times),
               evaluate_spectrum(oracle, times)) <= TOL


def cation_blocks():
    """(name, h, twice_m, builder matrix, b2) of every cation block of both presets."""
    for regime in REGIMES:
        s = spec("octalin", regime)
        yield (f"octalin-{regime}", *reduced_cation_block(s), reduced(regime).matrix, s.b2)
        for I2 in spin_addition_counts(12):
            sector = dmb_sector(regime, I2)
            yield (f"dmb-I2={I2}-{regime}", *cation_matrix(sector.blocks),
                   sector.hamiltonian.matrix, sector.b2)


def kron_assembly(h, b2, reg):
    """1_e2 x h - b2 Z_e2 x 1 on a register of ``reg`` slots, zero on the padding."""
    n = len(h)
    pair = np.kron(np.eye(2), h) - b2 * np.kron(np.diag([1.0, -1.0]), np.eye(n))
    populated = np.concatenate([np.arange(n), 2 * reg + np.arange(n)])
    out = np.zeros((4 * reg, 4 * reg))
    out[np.ix_(populated, populated)] = pair
    return out


def test_cation_blocks_conserve_m_and_assemble_the_builders_matrices():
    for name, h, twice_m, matrix, b2 in cation_blocks():
        assert h.dtype == float and h.shape == (len(twice_m),) * 2, name
        assert np.all(h[np.not_equal.outer(twice_m, twice_m)] == 0.0), name
        assert np.array_equal(kron_assembly(h, b2, matrix.shape[0] // 4), matrix), name


# ---------------------------------------------------------------------------
# One spectrum per regime and its correlator read-out
# ---------------------------------------------------------------------------

def regime_spectrum(name, regime):
    s = spec(name, regime)
    return s, one_group_spectrum(s, regime) if name == "octalin" else two_group_spectrum(s)


@pytest.mark.parametrize("relaxation", ["preset", "T1=inf", "T1=T2=inf"])
@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", ["octalin", "dmb"])
def test_correlator_readout_matches_the_relaxed_trajectory(name, regime, relaxation):
    """The closed-form read-out on the grid against the evaluated trajectory relaxed by the
    operator sum on both sites, at a seeded draw of 100 of the grid's 1001 points."""
    s, spectrum = regime_spectrum(name, regime)
    T1 = s.T1 if relaxation == "preset" else math.inf
    T2 = math.inf if relaxation == "T1=T2=inf" else s.T2
    drawn = np.sort(np.random.default_rng(25).choice(len(TIMES), 100, replace=False))
    relaxed = [operator_sum_pair(rho, t, T1, T2)
               for rho, t in zip(evaluate_spectrum(spectrum, TIMES)[drawn], TIMES[drawn])]
    assert dev(relaxed_singlet(spectrum, TIMES, TIMES, T1, T2)[drawn],
               singlet_values(np.array(relaxed))) <= TOL


def test_relaxed_singlet_takes_a_list_of_elapsed_times():
    s, spectrum = regime_spectrum("octalin", "high")
    times = TIMES[:5]
    assert dev(relaxed_singlet(spectrum, times, list(times), s.T1, s.T2),
               relaxed_singlet(spectrum, times, times, s.T1, s.T2)) == 0.0
    assert dev(relaxed_singlet(spectrum, np.ones(1), [1.0], s.T1, s.T2),
               relaxed_singlet(spectrum, np.ones(1), np.ones(1), s.T1, s.T2)) == 0.0


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", ["octalin", "dmb"])
def test_the_trace_is_one_constant_term(name, regime):
    _, spectrum = regime_spectrum(name, regime)
    trace = CORRELATOR_TRIU[0] @ spectrum.amplitudes.T
    (k,) = np.flatnonzero(trace)  # one term, the zero frequency merged with its roundoff
    assert abs(spectrum.freqs[k]) <= spectrum.tol and trace[k] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("regime", REGIMES)
def test_all_dmb_sectors_at_once_equal_the_per_sector_sum(regime):
    parts = [sector_share(regime, I2) for I2 in spin_addition_counts(12)]
    oracle = functools.reduce(operator.add, parts)
    spectrum = two_group_spectrum(spec("dmb", regime))
    assert dev(evaluate_spectrum(spectrum, TIMES), evaluate_spectrum(oracle, TIMES)) <= TOL
    assert len(spectrum.freqs) <= len(oracle.freqs)


def test_a_reached_block_without_an_m_minus_1_block():
    # |I=4, m=-4> reaches the lowest block M = -9/2, whose up rows are empty and which has
    # no M - 1 partner; with the class weights it shares a spectrum with blocks that have
    s = spec("octalin", "high")
    lowest = np.zeros(25)
    lowest[one_group_reduced_index(8, HalfInt(8), HalfInt(-8))] = 0.7
    for weights in (lowest, lowest + class_weights("high")):
        blocks = one_group_blocks(s, weights)
        assert dev(evaluate_spectrum(cation_spectrum(blocks, s.b2), TIMES),
                   evaluate_spectrum(full_register_spectrum(blocks, s.b2), TIMES)) <= TOL


@pytest.mark.parametrize("regime", REGIMES)
def test_one_group_summed_weights_equal_the_class_average(regime):
    s = spec("octalin", regime)
    average = class_average(8, regime, one_group_sector_spectra(s))
    oracle = evaluate_spectrum(average, TIMES)
    if regime == "zero":  # the mixed state's pair state is rotation invariant
        oracle = werner_trajectory(singlet_values(oracle))
    spectrum = one_group_spectrum(s, regime)
    assert dev(evaluate_spectrum(spectrum, TIMES), oracle) <= TOL
    assert len(spectrum.freqs) <= len(average.freqs)


ROWS = np.vstack([CORRELATOR_TRIU, SINGLET_TRIU, np.eye(10)])


def direct_rows(spectrum, times, rows):
    """The row sums with one exp per (frequency, time)."""
    return (rows @ spectrum.amplitudes.T) @ np.exp(-1j * np.multiply.outer(spectrum.freqs, times))


def test_row_kernel_on_a_non_uniform_grid():
    _, spectrum = sector_case()
    rng = np.random.default_rng(11)
    times = np.sort(rng.uniform(0.0, 100.0, 700))
    assert dev(evaluate_rows(spectrum, times, ROWS), direct_rows(spectrum, times, ROWS).real) <= TOL


def test_row_kernel_on_a_long_grid_allocates_no_frequency_by_time_table():
    _, spectrum = regime_spectrum("dmb", "zero")
    times = time_grid(0.0, 200.0, 0.001)
    F, T = len(spectrum.freqs), len(times)
    assert T == 200_001
    tracemalloc.start()
    try:
        rows = evaluate_rows(spectrum, times, CORRELATOR_TRIU)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < F * T * 16 / 10, "an (F x T) table was allocated"
    sample = np.arange(0, T, 997)
    assert dev(rows[:, sample], direct_rows(spectrum, times[sample], CORRELATOR_TRIU).real) <= TOL


def test_row_kernel_tables_stay_within_budget_on_a_wide_spectrum():
    rng = np.random.default_rng(17)
    F = 20_000
    spectrum = PairSpectrum(np.sort(rng.uniform(-3.0, 3.0, F)),
                            rng.normal(size=(F, 10)) + 1j * rng.normal(size=(F, 10)))
    rows = CORRELATOR_TRIU[:3]
    tracemalloc.start()
    try:
        got = evaluate_rows(spectrum, TIMES, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 16 * F, f"peak {peak / (16 * F):.1f} complex entries per frequency"
    sample = np.arange(0, len(TIMES), 97)
    expected = direct_rows(spectrum, TIMES[sample], rows).real
    assert np.abs(got[:, sample] - expected).max() <= TOL * np.abs(expected).max()


def folding_case():
    """Complex rows, one of them zero and one reaching only the f = 0 term (element 9), over
    a spectrum with an exactly negated +-0.4 pair and a +-1.2 pair within ``tol``, the
    eigenvalue roundoff of ``pair_spectrum``."""
    tol = 64 * np.finfo(float).eps * 3.1
    freqs = np.array([-2.5, -1.2 - tol / 2, -0.4, 0.0, 0.4, 1.2, 3.1])
    rng = np.random.default_rng(5)
    amplitudes = rng.normal(size=(7, 10)) + 1j * rng.normal(size=(7, 10))
    amplitudes[:, 9] = 0.0
    amplitudes[3, 9] = 0.7 - 0.2j
    rows = rng.normal(size=(4, 10)) + 1j * rng.normal(size=(4, 10))
    rows[:, 9] = 0.0
    return PairSpectrum(freqs, amplitudes, tol), np.vstack([rows, np.zeros(10), np.eye(10)[9]])


@pytest.mark.parametrize("times", [
    np.empty(0), np.array([0.3]), np.array([0.0, 0.1]), time_grid(0.0, 10.0, 0.01),
    np.sort(np.random.default_rng(3).uniform(0.0, 10.0, 300)),
], ids=["T=0", "T=1", "T=2", "uniform", "non-uniform"])
def test_row_kernel_folds_conjugate_beats(times):
    spectrum, rows = folding_case()
    freqs, _, bounds = dynamics._folded_rows(spectrum, rows)
    assert np.diff(bounds).tolist() == [5, 5, 5, 5, 0, 1]  # the +- pairs fold onto |f|
    assert (freqs >= 0).all()
    got, expected = evaluate_rows(spectrum, times, rows), direct_rows(spectrum, times, rows).real
    assert got.shape == (len(rows), len(times)) and got.dtype == float
    assert np.abs(got - expected).max(initial=0.0) <= TOL * np.abs(expected).max(initial=1.0)
    assert not got[4].any()
    assert np.allclose(got[5], 0.7)
