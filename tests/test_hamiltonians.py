import math

import numpy as np
import pytest

from qbeats.dynamics import (
    sector_statevector,
    singlet_trace,
    singlet_vector,
    time_grid,
)
from qbeats.hamiltonians import (
    NuclearGroup,
    SpinSystemSpec,
    build_full_one_group,
    build_full_two_group,
    build_partitioned,
    build_reduced_one_group,
    build_two_group_block,
    distinct_spins,
    full_nuclear_sector_vector,
    one_group_reduced_index,
    partitioned_params,
    pauli_decompose_partitioned,
)
from qbeats.spinalg import HalfInt, multiplicity
from support import (check_total_spin_by_row, distinct_spins_by_row,
                     one_group_reduced_index_by_loop, pauli_matrix)

OCTALIN_ZERO = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0)
OCTALIN_HIGH = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.3)
DMB = SpinSystemSpec(groups=(NuclearGroup(2, 0.65), NuclearGroup(12, 1.66)), field_B=0.1)

# Component eigenenergies of the hyperfine term (in units of a) with their
# state counts over the 512-dimensional cation space.
HFC_SPECTRUM = {0.0: 28, -1.0: 56, 0.5: 112, -1.5: 80, 1.0: 120,
                -2.0: 42, 1.5: 56, -2.5: 8, 2.0: 10}


class TestSpinSystemSpec:
    def test_rejects_unphysical_dephasing(self):
        with pytest.raises(ValueError):
            SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), T1=5.0, T2=11.0)

    def test_accepts_boundary(self):
        SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), T1=5.0, T2=10.0)

    def test_rejects_three_groups(self):
        with pytest.raises(ValueError):
            SpinSystemSpec(groups=(NuclearGroup(1, 1.0),) * 3)

    def test_frequency_conversion(self):
        # a = 2.49 mT at g = 2.0028: w = 8.794e10 * 2.0028 * 2.49e-3 * 1e-9
        expected = 8.794e10 * 2.0028 * 2.49e-3 * 1e-9
        assert OCTALIN_ZERO.hyperfine_rad_ns[0] == pytest.approx(expected, rel=1e-14)


class TestFullOneGroup:
    def test_no_nuclei_diagonal(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(0, 1.0),), field_B=0.3)
        H = build_full_one_group(spec)
        assert np.abs(H.matrix - np.diag(np.diag(H.matrix))).max() == 0.0
        # the singlet is a zero eigenvector of the Zeeman sum at g1 = g2
        psi = singlet_vector(np.ones(1), H.dims)
        assert np.abs(H.matrix @ psi).max() < 1e-12

    def test_single_nucleus_spectrum(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(1, 1.7),), field_B=0.0)
        a = spec.hyperfine_rad_ns[0]
        evals = np.linalg.eigvalsh(build_full_one_group(spec).matrix) / a
        # exchange form (1/2)[(I+S)^2 - I^2 - S^2]: a/4 (triplet), -3a/4 (singlet)
        uniq, counts = np.unique(np.round(evals, 10), return_counts=True)
        assert np.allclose(uniq, [-0.75, 0.25])
        assert counts.tolist() == [2, 6]

    def test_octalin_spectrum_counts(self):
        a = OCTALIN_ZERO.hyperfine_rad_ns[0]
        H = build_full_one_group(OCTALIN_ZERO)
        evals = np.linalg.eigvalsh(H.matrix) / a
        uniq, counts = np.unique(np.round(evals, 9), return_counts=True)
        got = dict(zip(uniq.tolist(), counts.tolist()))
        assert got == {k: 2 * v for k, v in HFC_SPECTRUM.items()}  # e2 doubles counts

    def test_rejects_two_groups_and_oversize(self):
        with pytest.raises(ValueError):
            build_full_one_group(DMB)
        with pytest.raises(ValueError):
            build_full_one_group(SpinSystemSpec(groups=(NuclearGroup(11, 1.0),)))

    def test_hermitian(self):
        H = build_full_one_group(OCTALIN_HIGH).matrix
        assert np.abs(H - H.conj().T).max() <= 1e-13


class TestReducedOneGroup:
    def test_spectrum_is_distinct_table_values_plus_padding(self):
        a = OCTALIN_ZERO.hyperfine_rad_ns[0]
        H = build_reduced_one_group(OCTALIN_ZERO)
        evals = sorted(set(np.round(np.linalg.eigvalsh(H.matrix) / a, 9)))
        assert evals == sorted(set(HFC_SPECTRUM) | {0.0})

    def test_dimensions_and_padding(self):
        H = build_reduced_one_group(OCTALIN_ZERO)
        assert H.dim == 128
        assert H.dims == (2, 32, 2)
        real = sum(multiplicity(I) for I in distinct_spins(8))  # 25 distinct |I, m>
        assert 4 * (H.dims[1] - real) == 28  # 14 zero rows per anion-spin block

    def test_padded_rows_exactly_zero(self):
        H = build_reduced_one_group(OCTALIN_HIGH).matrix
        for base in (0, 64):
            pad = slice(base + 50, base + 64)
            assert np.abs(H[pad, :]).max() == 0.0
            assert np.abs(H[:, pad]).max() == 0.0

    def test_evolution_matches_full_oracle(self):
        times = time_grid(0, 40, 0.5)
        Hfull = build_full_one_group(OCTALIN_HIGH)
        Hred = build_reduced_one_group(OCTALIN_HIGH)
        for (tI, tm) in [(8, 4), (4, -2), (0, 0)]:
            I, m = HalfInt(tI), HalfInt(tm)
            nuc = full_nuclear_sector_vector(8, I, m)
            ref = singlet_trace(Hfull, singlet_vector(nuc, Hfull.dims), times)
            red = singlet_trace(
                Hred, sector_statevector(one_group_reduced_index(8, I, m), 32), times)
            assert np.abs(ref.values - red.values).max() <= 1e-9


class TestIndexTables:
    @pytest.mark.parametrize("tI,tm,expected", [
        (8, 8, 0), (8, 4, 2), (8, -8, 8), (6, 6, 9), (4, 4, 16), (2, 2, 21), (0, 0, 24),
    ])
    def test_reduced_index(self, tI, tm, expected):
        assert one_group_reduced_index(8, HalfInt(tI), HalfInt(tm)) == expected

    def test_rejects_invalid_sector(self):
        with pytest.raises(ValueError):
            one_group_reduced_index(8, HalfInt(8), HalfInt(10))
        with pytest.raises(ValueError):
            one_group_reduced_index(8, HalfInt(9), HalfInt(1))
        with pytest.raises(ValueError):  # |1, 1/2>: m and I differ by half an integer
            one_group_reduced_index(8, HalfInt(2), HalfInt(1))


def outcome(f, *args):
    """What f(*args) returns, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# (n, 2I, 2m): no nuclei, I above n/2, I of the wrong parity, I - m half-odd, |m| above I
INVALID_SPINS = [(0, 0, 0), (-1, 1, 1), (0, 2, -2), (8, 10, 10), (8, 10, 0), (7, 9, 1),
                 (8, 7, 7), (7, 4, 0), (1, 0, 0), (8, -2, 0), (8, 2, 1), (7, 3, 0),
                 (8, 2, 4), (8, 2, -4), (7, 1, 3), (64, 66, 0), (64, 63, 1)]


class TestOneRule:
    """The closed-form spins, checks and slots against the exact spin-addition row."""

    def test_distinct_spins_are_the_keys_of_the_row(self):
        for n in range(1, 65):
            assert distinct_spins(n) == distinct_spins_by_row(n)

    def test_every_valid_slot_matches_the_loop(self):
        for n in range(1, 65):
            states = [(I, HalfInt(tm)) for I in distinct_spins_by_row(n)
                      for tm in range(I.twice_value, -I.twice_value - 2, -2)]
            slots = [one_group_reduced_index(n, I, m) for I, m in states]
            assert slots == [one_group_reduced_index_by_loop(n, I, m) for I, m in states]
            assert slots == list(range(len(states)))

    def test_every_valid_spin_is_accepted(self):
        for n in range(1, 65):
            for I in distinct_spins_by_row(n):
                partitioned_params(n, I)
        for n2 in range(1, 9):
            for I2 in distinct_spins_by_row(n2):
                spec = SpinSystemSpec(groups=(NuclearGroup(2, 0.65), NuclearGroup(n2, 1.66)))
                assert build_two_group_block(I2, spec).I2 == I2

    @pytest.mark.parametrize("n,tI,tm", INVALID_SPINS)
    def test_invalid_input_raises_as_the_row_does(self, n, tI, tm):
        I, m = HalfInt(tI), HalfInt(tm)
        got = outcome(one_group_reduced_index, n, I, m)
        assert isinstance(got, tuple) and got == outcome(one_group_reduced_index_by_loop, n, I, m)
        if n > 0 and I in distinct_spins_by_row(n):
            return  # a valid spin with an invalid m: only the slot has one
        got = outcome(partitioned_params, n, I)
        assert isinstance(got, tuple) and got == outcome(check_total_spin_by_row, n, I)
        if n >= 0:  # NuclearGroup refuses a negative count itself
            spec = SpinSystemSpec(groups=(NuclearGroup(2, 0.65), NuclearGroup(n, 1.66)))
            got = outcome(build_two_group_block, I, spec)
            assert isinstance(got, tuple)
            assert got == outcome(check_total_spin_by_row, n, I, "I2")


class TestPartitioned:
    @pytest.mark.parametrize("tI,x,y,lam1,lam2", [
        (8, math.sqrt(1 / 9), math.sqrt(8 / 9), 2.0, -2.5),
        (6, math.sqrt(1 / 7), math.sqrt(6 / 7), 1.5, -2.0),
        (2, math.sqrt(1 / 3), math.sqrt(2 / 3), 0.5, -1.0),
        (0, 0.0, 0.0, 0.0, 0.0),
    ])
    def test_parameters(self, tI, x, y, lam1, lam2):
        assert partitioned_params(8, HalfInt(tI)) == pytest.approx((x, y, lam1, lam2))

    def test_rejects_invalid_spin(self):
        with pytest.raises(ValueError):
            partitioned_params(8, HalfInt(10))

    def test_zero_spin_hyperfine_vanishes(self):
        H = build_partitioned(HalfInt(0), OCTALIN_ZERO)
        assert np.abs(H.matrix).max() == 0.0

    def test_matches_reduced_evolution(self):
        times = time_grid(0, 60, 0.5)
        for spec in (OCTALIN_ZERO, OCTALIN_HIGH):
            Hred = build_reduced_one_group(spec)
            for tI in (8, 2):
                I = HalfInt(tI)
                part = singlet_trace(
                    build_partitioned(I, spec), sector_statevector(0, 2), times)
                red = singlet_trace(
                    Hred, sector_statevector(one_group_reduced_index(8, I, I), 32), times)
                assert np.abs(part.values - red.values).max() <= 1e-10


class TestPauliDecomposition:
    def test_transverse_coefficients_equal(self):
        terms = dict((s, c) for c, s in pauli_decompose_partitioned(HalfInt(8), OCTALIN_HIGH))
        a = OCTALIN_HIGH.hyperfine_rad_ns[0]
        x, y, lam1, lam2 = partitioned_params(8, HalfInt(8))
        assert terms["IXX"] == terms["IYY"] == pytest.approx(a * (lam1 - lam2) * x * y / 2)

    def test_zero_field_kills_zeeman_terms(self):
        terms = dict((s, c) for c, s in pauli_decompose_partitioned(HalfInt(8), OCTALIN_ZERO))
        assert terms["ZII"] == 0.0
        a = OCTALIN_ZERO.hyperfine_rad_ns[0]
        x, y, lam1, lam2 = partitioned_params(8, HalfInt(8))
        aniso = (lam1 - lam2) * (x * x - y * y)
        assert terms["IIZ"] == pytest.approx(a * (lam1 - aniso) / 4)

    @pytest.mark.parametrize("tI", [8, 6, 4, 2, 0])
    @pytest.mark.parametrize("spec", [OCTALIN_ZERO, OCTALIN_HIGH])
    def test_reconstruction(self, tI, spec):
        I = HalfInt(tI)
        H = build_partitioned(I, spec)
        rebuilt = sum(c * pauli_matrix(s)
                      for c, s in pauli_decompose_partitioned(I, spec))
        assert np.abs(rebuilt - H.matrix).max() <= 1e-13


class TestTwoGroupBlock:
    def test_sector_dimensions(self):
        sec = build_two_group_block(HalfInt(2), DMB)
        assert sec.real_register == 12
        assert sec.register_size == 16
        assert sec.pad_register == 4
        assert sec.hamiltonian.dim == 64

    def test_all_sector_paddings(self):
        # (pad, register) bookkeeping behind the reassembly corrections
        expected = {12: (12, 64), 10: (20, 64), 8: (28, 64), 6: (4, 32),
                    4: (12, 32), 2: (4, 16), 0: (0, 4)}
        for tI2, (pad, reg) in expected.items():
            sec = build_two_group_block(HalfInt(tI2), DMB)
            assert (sec.pad_register, sec.register_size) == (pad, reg)

    def test_degeneracies(self):
        degs = {tI2: build_two_group_block(HalfInt(tI2), DMB).degeneracy
                for tI2 in range(0, 13, 2)}
        assert degs == {12: 1, 10: 11, 8: 54, 6: 154, 4: 275, 2: 297, 0: 132}

    def test_top_sector_eigenvalue_entries(self):
        # stretched sector, first basis slot |6,6>|1,1>|up>: lam1 = 0.5, lam2 = 3
        spec = SpinSystemSpec(groups=(NuclearGroup(2, 0.65), NuclearGroup(12, 1.66)),
                              field_B=0.0)
        w1, w2 = spec.hyperfine_rad_ns
        sec = build_two_group_block(HalfInt(12), spec)
        assert sec.hamiltonian.matrix[0, 0] == pytest.approx(0.5 * w1 + 3.0 * w2)

    def test_hermitian_and_padded_zero(self):
        for tI2 in (12, 6, 0):
            sec = build_two_group_block(HalfInt(tI2), DMB)
            H = sec.hamiltonian.matrix
            assert np.abs(H - H.conj().T).max() <= 1e-13
            if sec.pad_register == 0:
                continue
            pair_dim = 2 * sec.register_size
            pair_real = 2 * sec.real_register
            for base in (0, pair_dim):
                pad = slice(base + pair_real, base + pair_dim)
                assert np.abs(H[pad, :]).max() == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_two_group_block(HalfInt(14), DMB)
        with pytest.raises(ValueError):
            build_two_group_block(HalfInt(2), OCTALIN_ZERO)
        bad = SpinSystemSpec(groups=(NuclearGroup(3, 1.0), NuclearGroup(4, 1.0)))
        with pytest.raises(ValueError):
            build_two_group_block(HalfInt(2), bad)

    def test_toy_oracle_cap(self):
        with pytest.raises(ValueError):
            build_full_two_group(DMB)


class TestRepresentativeStates:
    def test_sector_vector_is_eigenvector(self):
        I, m = HalfInt(4), HalfInt(2)
        vec = full_nuclear_sector_vector(8, I, m)
        # check I_total^2 and I_z eigenvalues by direct expectation
        from qbeats.hamiltonians import SIGMA_X, SIGMA_Y, SIGMA_Z, _collective_spin
        J2 = sum(_collective_spin(8, ax) @ _collective_spin(8, ax)
                 for ax in (SIGMA_X, SIGMA_Y, SIGMA_Z))
        Jz = _collective_spin(8, SIGMA_Z)
        assert np.vdot(vec, J2 @ vec).real == pytest.approx(2 * 3, abs=1e-10)
        assert np.vdot(vec, Jz @ vec).real == pytest.approx(1.0, abs=1e-10)
        assert np.abs(J2 @ vec - 6 * vec).max() < 1e-8
