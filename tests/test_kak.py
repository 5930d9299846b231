import numpy as np
import pytest

from qbeats.backends import run_statevector
from qbeats.hamiltonians import NuclearGroup, SpinSystemSpec, build_partitioned
from qbeats.kak import CNOT_01, CNOT_10, SWAP, kak_decompose, u3_matrix
from qbeats.spinalg import HalfInt


def haar_unitary(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reconstruction_error(U):
    return np.abs(kak_decompose(U).reconstruct() - U).max()


class TestSpecialCases:
    def test_identity(self):
        dec = kak_decompose(np.eye(4, dtype=complex))
        assert np.abs(dec.reconstruct() - np.eye(4)).max() <= 1e-12

    @pytest.mark.parametrize("U", [CNOT_01, CNOT_10, SWAP,
                                   np.diag([1, 1, 1, -1]).astype(complex)])
    def test_canonical_elements(self, U):
        assert reconstruction_error(U) <= 1e-12

    def test_tensor_products(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            U = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            assert reconstruction_error(U) <= 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            kak_decompose(np.ones((4, 4), dtype=complex))
        with pytest.raises(ValueError):
            kak_decompose(np.eye(3, dtype=complex))


class TestHaarRandom:
    def test_hundred_round_trips(self):
        rng = np.random.default_rng(123)
        worst = max(reconstruction_error(haar_unitary(4, rng)) for _ in range(100))
        assert worst <= 1e-9

    def test_output_shape(self):
        rng = np.random.default_rng(9)
        dec = kak_decompose(haar_unitary(4, rng))
        assert len(dec.u3_layers) == 4
        assert all(len(layer) == 2 and all(len(t) == 3 for t in layer)
                   for layer in dec.u3_layers)
        assert ([g.sites for g in dec.to_circuit().gates if g.kind == "CNOT"]
                == [(1, 0), (0, 1), (1, 0)])

    def test_circuit_matches_reconstruction(self):
        rng = np.random.default_rng(17)
        U = haar_unitary(4, rng)
        dec = kak_decompose(U)
        circ = dec.to_circuit()
        built = np.empty((4, 4), dtype=complex)
        for col in range(4):
            e = np.zeros(4, dtype=complex)
            e[col] = 1.0
            built[:, col] = run_statevector(circ, e)
        assert np.abs(dec.global_phase * built - U).max() <= 1e-9


class TestPartitionedEvolution:
    def test_all_sector_blocks(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.3)
        worst = 0.0
        for tI in (8, 6, 4, 2, 0):
            Hp = build_partitioned(HalfInt(tI), spec)
            block = Hp.matrix[:4, :4]
            for t in (0.5, 5.0, 23.1):
                w, v = np.linalg.eigh(block)
                U = (v * np.exp(-1j * w * t)) @ v.conj().T
                worst = max(worst, reconstruction_error(U))
        assert worst <= 1e-9


class TestU3:
    def test_angle_extraction_round_trip(self):
        rng = np.random.default_rng(3)
        from qbeats.kak import u3_angles

        for _ in range(50):
            V = haar_unitary(2, rng)
            theta, phi, lam = u3_angles(V)
            W = u3_matrix(theta, phi, lam)
            phase = np.vdot(W.reshape(-1), V.reshape(-1))
            phase /= abs(phase)
            assert np.abs(V - phase * W).max() <= 1e-12
