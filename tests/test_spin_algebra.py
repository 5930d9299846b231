import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbeats.hamiltonians import coupling_block
from qbeats.spinalg import HALF, HalfInt, multiplicity, spin_addition_counts
from support import (cg_block_matrix, coupled_hfc_eigenvalues, product_basis_labels,
                     spin_addition_counts_by_recurrence)


def as_twice(counts):
    return {I.twice_value: c for I, c in counts.items()}


class TestSpinAdditionCounts:
    def test_single_spin(self):
        assert as_twice(spin_addition_counts(1)) == {1: 1}

    def test_eight_spins(self):
        assert as_twice(spin_addition_counts(8)) == {0: 14, 2: 28, 4: 20, 6: 7, 8: 1}

    def test_nine_spins_with_electron(self):
        assert as_twice(spin_addition_counts(9)) == {1: 42, 3: 48, 5: 27, 7: 8, 9: 1}

    def test_twelve_spins(self):
        assert as_twice(spin_addition_counts(12)) == {
            0: 132, 2: 297, 4: 275, 6: 154, 8: 54, 10: 11, 12: 1}

    @pytest.mark.parametrize("n", range(1, 15))
    def test_state_count_identity(self, n):
        counts = spin_addition_counts(n)
        assert sum(c * multiplicity(I) for I, c in counts.items()) == 2**n

    @pytest.mark.parametrize("n", range(1, 26))
    def test_closed_form_equals_the_recurrence(self, n):
        assert dict(spin_addition_counts(n)) == spin_addition_counts_by_recurrence(n)

    def test_large_row_is_exact(self):
        counts = spin_addition_counts(2000)
        assert sum(c * multiplicity(I) for I, c in counts.items()) == 2**2000
        assert counts[HalfInt(2000)] == 1 and counts[HalfInt(1998)] == 1999

    def test_recurrence_row9_from_row8(self):
        row8 = spin_addition_counts(8)
        derived = {}
        for I, c in row8.items():
            for J in (I + HALF, I - HALF):
                if J.twice_value >= 0:
                    derived[J] = derived.get(J, 0) + c
        assert derived == spin_addition_counts(9)

    def test_rows_are_memoized_read_only_in_descending_order(self):
        row = spin_addition_counts(12)
        assert spin_addition_counts(12) is row
        assert [I.twice_value for I in row] == [12, 10, 8, 6, 4, 2, 0]
        with pytest.raises(TypeError):
            row[HalfInt(0)] = 0

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_rejects_nonpositive(self, n):
        with pytest.raises(ValueError):
            spin_addition_counts(n)

    def test_table_rows(self):
        assert spin_addition_counts(8)[HalfInt(4)] == 20


class TestClebschGordanBlocks:
    def test_spin_zero_is_identity(self):
        assert np.array_equal(cg_block_matrix(HalfInt(0)), np.eye(2))

    def test_spin_one_explicit(self):
        # 6x6 block with entries 1, +-sqrt(1/3), +-sqrt(2/3)
        r3, r23 = math.sqrt(1 / 3), math.sqrt(2 / 3)
        expected = np.array([
            [1, 0, 0, 0, 0, 0],
            [0, r3, r23, 0, 0, 0],
            [0, r23, -r3, 0, 0, 0],
            [0, 0, 0, r23, r3, 0],
            [0, 0, 0, r3, -r23, 0],
            [0, 0, 0, 0, 0, 1],
        ])
        assert np.abs(cg_block_matrix(HalfInt(2)) - expected).max() < 1e-15

    def test_two_spin_half_coupling(self):
        mat = cg_block_matrix(HalfInt(1))
        inner = mat[1:3, 1:3]
        assert np.abs(np.abs(inner) - 1 / math.sqrt(2)).max() < 1e-15

    @given(st.integers(min_value=0, max_value=25))
    def test_orthogonality(self, twice_I):
        mat = cg_block_matrix(HalfInt(twice_I))
        dim = mat.shape[0]
        assert np.abs(mat.T @ mat - np.eye(dim)).max() <= 1e-14

    @given(st.integers(min_value=0, max_value=25))
    def test_symmetric(self, twice_I):
        mat = cg_block_matrix(HalfInt(twice_I))
        assert np.abs(mat - mat.T).max() == 0.0

    def test_condon_shortley_sign(self):
        # highest-m product state enters the stretched coupled state with +1
        for twice_I in (2, 5, 8):
            assert cg_block_matrix(HalfInt(twice_I))[0, 0] == 1.0

    def test_rejects_negative_spin(self):
        with pytest.raises(ValueError):
            cg_block_matrix(HalfInt(-2))

    def test_memoized_read_only(self):
        first = cg_block_matrix(HalfInt(5))
        assert cg_block_matrix(HalfInt(5)) is first and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 2.0


class TestLadderBlocks:
    """``coupling_block`` against the Clebsch-Gordan tables: U Lambda U is I.S1."""

    @given(st.integers(min_value=0, max_value=25))
    def test_equals_the_clebsch_gordan_assembly(self, twice_I):
        h, twice_m = coupling_block(twice_I)
        I = HalfInt(twice_I)
        U = cg_block_matrix(I)
        oracle = U @ np.diag(coupled_hfc_eigenvalues(I)) @ U
        assert np.abs(h - oracle).max() <= 1e-14 * (1 + twice_I)
        assert list(twice_m) == [m.twice_value + (1 if e1 == 0 else -1)
                                 for m, e1 in product_basis_labels(I)]

    def test_cached_read_only(self):
        h, twice_m = coupling_block(7)
        assert coupling_block(7)[0] is h
        assert not h.flags.writeable and not twice_m.flags.writeable


class TestCoupledEigenvalues:
    def test_spin_one(self):
        assert np.array_equal(coupled_hfc_eigenvalues(HalfInt(2)),
                              [0.5, 0.5, -1, 0.5, -1, 0.5])

    def test_spin_four_pattern(self):
        lam = coupled_hfc_eigenvalues(HalfInt(8))
        assert lam[0] == 2.0 and lam[-1] == 2.0
        assert np.array_equal(np.unique(lam), [-2.5, 2.0])
        assert len(lam) == 18


class TestHalfInt:
    def test_arithmetic(self):
        assert (HalfInt(3) + HALF).twice_value == 4
        assert (HalfInt(3) - HALF).twice_value == 2
        assert abs(HalfInt(-5)).twice_value == 5

    def test_repr(self):
        assert repr(HalfInt(4)) == "2"
        assert repr(HalfInt(3)) == "3/2"

    def test_from_float(self):
        assert HalfInt.from_float(2.5).twice_value == 5
        with pytest.raises(ValueError):
            HalfInt.from_float(0.3)
