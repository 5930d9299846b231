import numpy as np
import pytest

from qbeats.dynamics import (
    SINGLET,
    DensityMatrix,
    NumericalError,
    TimeSeries,
    clip_probabilities,
    evaluate_spectrum,
    one_group_weights,
    pair_probabilities,
    pair_spectrum,
    reassemble_two_group,
    sector_statevector,
    singlet_trace,
    singlet_vector,
    time_grid,
)
from qbeats.hamiltonians import (
    BlockHamiltonian,
    NuclearGroup,
    SpinSystemSpec,
    build_reduced_one_group,
    one_group_reduced_index,
)
from qbeats.spinalg import HalfInt
from support import dense_density_trajectory, mixed_singlet_density

OCTALIN_ZERO = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0)


def sector_state(index, nuclear_dim):
    """Pure |index><index| on the nuclear register, singlet on the electrons."""
    psi = sector_statevector(index, nuclear_dim)
    return DensityMatrix(np.outer(psi, psi.conj()), (2, nuclear_dim, 2), ("e2", "nuc", "e1"))


def singlet_probability(rho):
    """Tr(rho |S><S| x 1_nuclear): the S outcome of the pair state with the nuclei traced out."""
    K = rho.dim // 4
    m = rho.matrix.reshape(2, K, 2, 2, K, 2)  # (e2, nuclear, e1) twice
    return pair_probabilities(np.einsum("anbcnd->badc", m).reshape(4, 4))[0]


def pair_trajectory(H, states, weights, times):
    """Electron-pair trajectory (T, 4, 4) of the ensemble sum_r weights[r] |states[r]><...|."""
    return evaluate_spectrum(pair_spectrum(H, states, weights), times)


def bare_pair_hamiltonian(b1=0.0, b2=0.0):
    z = np.array([1.0, -1.0])
    diag = (-b1 * np.kron(np.ones(2), z) - b2 * np.kron(z, np.ones(2)))
    # (e2, nuc=1, e1) register with a trivial one-dimensional nuclear factor
    return BlockHamiltonian(np.diag(diag.astype(complex)), (2, 1, 2))


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        H = BlockHamiltonian(np.zeros((8, 8), dtype=complex), (2, 2, 2))
        traj = pair_trajectory(H, sector_statevector(0, 2), [1.0], np.array([0.0, 3.0, 11.0]))
        for pair in traj:
            assert np.abs(pair - np.outer(SINGLET, SINGLET)).max() < 1e-14

    def test_equal_g_singlet_is_stationary(self):
        H = bare_pair_hamiltonian(b1=7.3, b2=7.3)
        psi = sector_statevector(0, 1)
        for value in singlet_trace(H, psi, time_grid(0, 5, 1.0)).values:
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_octalin_zero_spin_sector_is_flat(self):
        H = build_reduced_one_group(OCTALIN_ZERO)
        psi = sector_statevector(one_group_reduced_index(8, HalfInt(0), HalfInt(0)), 32)
        ts = singlet_trace(H, psi, time_grid(0, 100, 1.0))
        assert np.abs(ts.values - 1.0).max() <= 1e-12

    def test_trace_and_hermiticity_preserved(self):
        H = build_reduced_one_group(OCTALIN_ZERO)
        psi = sector_statevector(3, 32)
        for pair in pair_trajectory(H, psi, [1.0], np.array([0.0, 17.0, 83.0])):
            assert abs(np.trace(pair) - 1) <= 1e-12
            assert np.abs(pair - pair.conj().T).max() <= 1e-12

    def test_linearity(self):
        H = build_reduced_one_group(OCTALIN_ZERO)
        times = np.array([0.0, 9.0, 31.0])
        psi_a, psi_b = sector_statevector(0, 32), sector_statevector(5, 32)
        ev_mix = pair_trajectory(H, [psi_a, psi_b], [0.3, 0.7], times)
        ev_a = pair_trajectory(H, psi_a, [1.0], times)
        ev_b = pair_trajectory(H, psi_b, [1.0], times)
        assert np.abs(ev_mix - 0.3 * ev_a - 0.7 * ev_b).max() <= 1e-12

    def test_dimension_mismatch_rejected(self):
        H = build_reduced_one_group(OCTALIN_ZERO)
        with pytest.raises(ValueError):
            singlet_trace(H, sector_statevector(0, 2), np.array([0.0]))

    def test_non_hermitian_rejected(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            BlockHamiltonian(bad, (2, 1, 2))


class TestSingletProbability:
    def test_product_with_singlet(self):
        rho = sector_state(2, 8)
        assert singlet_probability(rho) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed_electrons(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4, (2, 1, 2),
                            ("e2", "nuc", "e1"))
        assert singlet_probability(rho) == pytest.approx(0.25, abs=1e-14)

    def test_triplet_zero_is_orthogonal(self):
        psi = np.zeros(4, dtype=complex)
        # T0 on (e1, e2) in the (e2, e1) indexing: (|01> + |10>)/sqrt(2)
        psi[1] = psi[2] = 1 / np.sqrt(2)
        rho = DensityMatrix(np.outer(psi, psi.conj()), (2, 1, 2), ("e2", "nuc", "e1"))
        assert singlet_probability(rho) == pytest.approx(0.0, abs=1e-14)


class TestInitialStates:
    def test_sector_index_examples(self):
        # |4,2> sits at slot 2 in both orderings
        assert one_group_reduced_index(8, HalfInt(8), HalfInt(4)) == 2
        rho = sector_state(2, 32)
        diag = np.real(np.diag(rho.matrix))
        hot = np.nonzero(diag > 1e-14)[0]
        assert len(hot) == 2  # two singlet components
        assert singlet_probability(rho) == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sector_state(32, 32)

    def test_maximally_mixed_partial_trace(self):
        rho = mixed_singlet_density(2)
        m = rho.matrix.reshape(2, 2, 2, 2, 2, 2)
        nuclear = np.einsum("aibajb->ij", m)
        assert np.abs(nuclear - np.eye(2) / 2).max() < 1e-15
        assert singlet_probability(rho) == pytest.approx(1.0, abs=1e-15)

    def test_mixed_equals_weighted_average_of_pure(self):
        H = build_reduced_one_group(OCTALIN_ZERO)
        times = time_grid(0, 20, 2.0)
        mixed = evaluate_spectrum(pair_spectrum(H, singlet_vector(np.eye(32), H.dims),
                                                np.full(32, 1 / 32)), times, singlet=True)
        acc = np.zeros_like(times)
        for r in range(32):
            acc = acc + singlet_trace(H, sector_statevector(r, 32), times).values
        assert np.abs(mixed - acc / 32).max() <= 1e-12


class TestPairTrajectories:
    def test_density_equals_pure_for_pure_state(self):
        H = build_reduced_one_group(OCTALIN_ZERO)
        times = time_grid(0, 30, 3.0)
        psi = sector_statevector(4, 32)
        t_pure = pair_trajectory(H, psi, [1.0], times)
        t_dens = dense_density_trajectory(H, np.outer(psi, psi.conj()), times)
        assert np.abs(t_pure - t_dens).max() <= 1e-11

    def test_probabilities_sum_to_one(self):
        H = build_reduced_one_group(OCTALIN_ZERO)
        traj = evaluate_spectrum(pair_spectrum(H, sector_statevector(1, 32), [1.0]),
                                 time_grid(0, 50, 5.0))
        probs = pair_probabilities(traj)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12


class TestAveraging:
    def test_zero_field_weights(self):
        w = one_group_weights(8, "zero")
        assert {k.twice_value: v for k, v in w.items()} == {
            0: 14, 2: 84, 4: 100, 6: 49, 8: 9}
        assert sum(w.values()) == 256

    def test_high_field_weights(self):
        w = one_group_weights(8, "high")
        assert {k.twice_value: v for k, v in w.items()} == {
            0: 70, 2: 112, 4: 56, 6: 16, 8: 2}
        assert sum(w.values()) == 256


class TestReassembly:
    DEGS = {HalfInt(t): d for t, d in
            [(12, 1), (10, 11), (8, 54), (6, 154), (4, 275), (2, 297), (0, 132)]}
    PADS = {HalfInt(12): (12, 64), HalfInt(10): (20, 64), HalfInt(8): (28, 64),
            HalfInt(6): (4, 32), HalfInt(4): (12, 32), HalfInt(2): (4, 16),
            HalfInt(0): (0, 4)}

    def test_pure_padding_yields_zero(self):
        times = time_grid(0, 5, 1.0)
        traces = {I2: TimeSeries(times, np.full_like(times, pad / reg))
                  for I2, (pad, reg) in self.PADS.items()}
        out = reassemble_two_group(traces, self.PADS, self.DEGS, 14)
        assert np.abs(out.values).max() <= 1e-15

    def test_singlet_start_reassembles_to_one(self):
        times = time_grid(0, 5, 1.0)
        traces = {I2: TimeSeries(times, np.ones_like(times)) for I2 in self.PADS}
        out = reassemble_two_group(traces, self.PADS, self.DEGS, 14)
        assert out.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_grids_rejected(self):
        traces = {I2: TimeSeries(time_grid(0, 5, 1.0), np.ones(6)) for I2 in self.PADS}
        traces[HalfInt(0)] = TimeSeries(time_grid(0, 10, 2.0), np.ones(6))
        with pytest.raises(ValueError):
            reassemble_two_group(traces, self.PADS, self.DEGS, 14)


class TestProbabilityClipping:
    def test_roundoff_clipped(self):
        vals = np.array([0.5, -1e-12, 1.0 + 1e-13])
        out = clip_probabilities(vals)
        assert out.min() == 0.0 and out.max() == 1.0

    def test_large_negativity_rejected(self):
        with pytest.raises(ValueError):
            clip_probabilities(np.array([0.5, -1e-6]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericalError, match="non-finite"):
            clip_probabilities(np.array([0.5, bad, 0.25]))
