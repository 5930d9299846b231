import itertools
import math

import numpy as np
import pytest

from qbeats.backends import (
    SyntheticQubitNoise,
    partial_trace,
    run_density,
    run_statevector,
)
from qbeats.circuits import Circuit, Gate
from qbeats.config import HardwareModel
from qbeats.dynamics import DensityMatrix, sector_statevector, singlet_trace
from qbeats.hamiltonians import (
    NuclearGroup,
    SpinSystemSpec,
    build_partitioned,
    build_reduced_one_group,
    pauli_decompose_partitioned,
)
from qbeats.library import (
    add_singlet_prep,
    echo_pulse_circuit,
    kraus_circuit,
    purification_circuit,
    trotterized_pauli_evolution,
)
from qbeats.relaxation import (
    RelaxationParams,
    apply_channel,
    infinite_temperature_thermal_channel,
)
from qbeats.spinalg import HalfInt
from support import add_singlet_unprep, pauli_matrix, rz_encode_angle, rz_encode_circuit


OCTALIN = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.3)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    dim = 2**circuit.site_count
    out = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[col] = 1.0
        out[:, col] = run_statevector(circuit, e)
    return out


class TestBackends:
    def test_singlet_prep_block(self):
        c = Circuit(2)
        add_singlet_prep(c, 0, 1)
        psi = run_statevector(c)
        expected = np.array([0, 1, -1, 0]) / math.sqrt(2)
        phase = psi[np.argmax(np.abs(psi))] / expected[np.argmax(np.abs(psi))]
        assert np.abs(psi - phase * expected).max() < 1e-14

    def test_empty_circuit_identity(self):
        rng = np.random.default_rng(0)
        psi0 = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi0 /= np.linalg.norm(psi0)
        assert np.array_equal(run_statevector(Circuit(3), psi0), psi0)

    def test_statevector_density_agree_on_noiseless(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            c = Circuit(3)
            add_singlet_prep(c, 0, 2)
            c.add("RX", 1, (rng.uniform(0, math.pi),))
            c.add("CNOT", (1, 2))
            c.add("U3", 0, tuple(rng.uniform(0, math.pi, size=3)))
            c.add("RZ", 2, (rng.uniform(0, 2 * math.pi),))
            psi = run_statevector(c)
            rho = run_density(c)
            assert np.abs(np.outer(psi, psi.conj()) - rho.matrix).max() <= 1e-12

    def test_unitary_gate_matches_evolve(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(3, 2.49),), field_B=0.3)
        H = build_reduced_one_group(spec)
        n_sites = H.dim.bit_length() - 1
        t = 13.0
        w, v = H.eig()
        U = (v * np.exp(-1j * w * t)) @ v.conj().T
        psi0 = sector_statevector(1, H.dims[1])
        c = Circuit(n_sites)
        c.add("UNITARY", tuple(range(n_sites)), matrix=U)
        out = run_statevector(c, psi0)
        ref = singlet_trace(H, psi0, np.array([t])).values[0]
        from qbeats.dynamics import pair_slice_indices

        idx = pair_slice_indices(H.dims)
        amp = (out[idx[1]] - out[idx[2]]) / math.sqrt(2)
        assert abs(np.sum(np.abs(amp) ** 2) - ref) <= 1e-10

    def test_bitstring_prepared_pipeline_matches_dynamics(self):
        # full reduced register (7 qubits): X gates select the nuclear state,
        # singlet prep on the electrons, one U = exp(-iHt) block
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.3)
        H = build_reduced_one_group(spec)
        from qbeats.hamiltonians import one_group_reduced_index
        from qbeats.dynamics import pair_slice_indices
        from qbeats.spinalg import HalfInt

        nuc_index = one_group_reduced_index(8, HalfInt(8), HalfInt(4))  # slot 2
        ref = singlet_trace(
            H, sector_statevector(nuc_index, 32), np.array([7.0, 31.0])).values
        w, v = H.eig()
        idx = pair_slice_indices(H.dims)
        for ref_val, t in zip(ref, (7.0, 31.0)):
            U = (v * np.exp(-1j * w * t)) @ v.conj().T
            c = Circuit(7)  # site 0 = e2, 1..5 = nuclear register, 6 = e1
            for bit, site in enumerate((5, 4, 3, 2, 1)):  # site 1 holds the top bit
                if (nuc_index >> bit) & 1:
                    c.add("X", site)
            add_singlet_prep(c, 6, 0)
            c.add("UNITARY", tuple(range(7)), matrix=U)
            psi = run_statevector(c)
            amp = (psi[idx[1]] - psi[idx[2]]) / math.sqrt(2)
            assert abs(np.sum(np.abs(amp) ** 2) - ref_val) <= 1e-10

    def test_statevector_rejects_probabilistic(self):
        c = Circuit(1)
        c.add("X", 0, prob=0.5)
        with pytest.raises(ValueError):
            run_statevector(c)

    def test_site_limits(self):
        with pytest.raises(ValueError):
            run_statevector(Circuit(13))
        with pytest.raises(ValueError):
            run_density(Circuit(7), noise=SyntheticQubitNoise(1e5, 1e5))

    def test_partial_trace_ordering(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.25, 0.75]).astype(complex)
        rho = np.kron(a, b)
        assert np.abs(partial_trace(rho, (1,), 2) - b).max() < 1e-15
        assert np.abs(partial_trace(rho, (0,), 2) - a).max() < 1e-15
        both = partial_trace(rho, (1, 0), 2)
        assert np.abs(both - np.kron(b, a)).max() < 1e-15


def singlet_then(x: bool, z: bool) -> Circuit:
    """The singlet preparation, then X on site 1 and Z on site 0 where asked."""
    c = Circuit(2)
    add_singlet_prep(c, 0, 1)
    if x:
        c.add("X", 1)
    if z:
        c.add("Z", 0)
    return c


class TestProbabilisticExpansion:
    def test_configuration_weights(self):
        # each present/absent configuration of the probabilistic gates, weighted by its
        # probability
        c = singlet_then(False, False).add("X", 1, prob=0.25).add("Z", 0, prob=0.5)
        mixture = np.zeros((4, 4), dtype=complex)
        for x, z in itertools.product((False, True), repeat=2):
            psi = run_statevector(singlet_then(x, z))
            mixture += (0.25 if x else 0.75) * 0.5 * np.outer(psi, psi.conj())
        assert np.abs(run_density(c).matrix - mixture).max() <= 1e-14

    def test_exact_expansion_matches_monte_carlo(self):
        # sanity: 1e5 sampled shots agree with the exact mixture within 3 sigma
        rng = np.random.default_rng(42)
        c = singlet_then(False, False).add("X", 1, prob=0.3).add("Z", 0, prob=0.6)
        p_exact = run_density(c).matrix[3, 3].real
        p_hit = {(x, z): np.abs(run_statevector(singlet_then(x, z))[3]) ** 2
                 for x, z in itertools.product((False, True), repeat=2)}
        shots = 100_000
        hits = 0
        for _ in range(shots):
            x, z = bool(rng.random() < 0.3), bool(rng.random() < 0.6)
            hits += rng.random() < p_hit[x, z]
        p_mc = hits / shots
        sigma = math.sqrt(p_exact * (1 - p_exact) / shots)
        assert abs(p_mc - p_exact) <= 3 * sigma

    def test_density_backend_equals_expansion(self):
        c = singlet_then(False, False).add("X", 1, prob=0.37)
        rho_mix = sum(w * np.outer(psi, psi.conj())
                      for w, psi in ((0.63, run_statevector(singlet_then(False, False))),
                                     (0.37, run_statevector(singlet_then(True, False)))))
        assert np.abs(run_density(c).matrix - rho_mix).max() <= 1e-14


class TestKrausCircuit:
    def test_identity_when_parameters_vanish(self):
        params = RelaxationParams(0.0, 9.0, 9.0)
        c = kraus_circuit(params, 0, 1, 2)
        assert len(c.gates) == 0

    def test_matches_channel_on_random_states(self):
        rng = np.random.default_rng(7)
        T1 = 9.0
        params = RelaxationParams(t=T1, T1=T1, T2=2 * T1)
        chan = infinite_temperature_thermal_channel(params, "q0")
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho_in = np.outer(v, v.conj())
            full = run_density(kraus_circuit(params, 0, 1, 2),
                               np.kron(rho_in, np.diag([1.0, 0.0])).astype(complex))
            got = partial_trace(full.matrix, (0,), 2)
            want = apply_channel(DensityMatrix(rho_in, (2,), ("q0",)), chan).matrix
            assert np.abs(got - want).max() <= 1e-12


class TestPurification:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reduced_state_is_maximally_mixed(self, n):
        psi = run_statevector(purification_circuit(n))
        rho = np.outer(psi, psi.conj())
        reduced = partial_trace(rho, tuple(range(n, 2 * n)), 2 * n)
        assert np.abs(reduced - np.eye(2**n) / 2**n).max() <= 1e-14


class TestEchoCircuit:
    def test_requires_multiple_of_eight(self):
        with pytest.raises(ValueError):
            echo_pulse_circuit(12, 35.5, (0, 1), 2)

    def test_delay_budget(self):
        c = echo_pulse_circuit(1600, 35.5, (0, 1), 2)
        total = sum(g.duration for g in c.gates if g.kind == "DELAY" and g.sites == (0,))
        assert total == pytest.approx(1600 * 35.5)
        assert sum(1 for g in c.gates if g.kind == "X") == 8  # 4 per site

    def test_zero_noise_outcome_is_one(self):
        c = Circuit(2)
        add_singlet_prep(c, 0, 1)
        c.extend(echo_pulse_circuit(8, 35.5, (0, 1), 2))
        add_singlet_unprep(c, 0, 1)
        noise = SyntheticQubitNoise(T1=math.inf, T2=math.inf)
        rho = run_density(c, noise=noise).matrix
        assert np.real(rho[3, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_delay_count_formula(self):
        # N = (T_qubit / (T_RP t_identity)) t, floored to a multiple of 8
        hw = HardwareModel(T1_ns=100_000.0, T2_ns=100_000.0, identity_ns=35.5)
        N1, N2 = (round(float(hw.echo_channel(t, 9.0, 9.0)[0]) / 35.5) for t in (10.0, 20.0))
        assert N1 % 8 == 0 and N2 % 8 == 0
        assert abs(N2 - 2 * N1) <= 8  # linear in t up to rounding
        raw = 100_000.0 / (9.0 * 35.5) * 10.0
        assert 0 <= raw - N1 < 8

    def test_drift_cancellation(self):
        drift = SyntheticQubitNoise(T1=1e5, T2=1e5, drift_phase_rate=(0.01, 0.0))
        plain = SyntheticQubitNoise(T1=1e5, T2=1e5)

        def outcome(noise, echoes):
            c = Circuit(2)
            add_singlet_prep(c, 0, 1)
            if echoes:
                c.extend(echo_pulse_circuit(1600, 35.5, (0, 1), 2))
            else:
                c.add("DELAY", 0, (1600 * 35.5,))
                c.add("DELAY", 1, (1600 * 35.5,))
            add_singlet_unprep(c, 0, 1)
            return np.real(run_density(c, noise=noise).matrix[3, 3])

        assert abs(outcome(drift, True) - outcome(plain, True)) <= 1e-9
        assert abs(outcome(drift, False) - outcome(plain, False)) >= 1e-3


class TestRzEncoding:
    @pytest.mark.parametrize("s,theta", [(1.0, 0.0), (0.0, math.pi), (0.5, math.pi / 2)])
    def test_angle(self, s, theta):
        assert rz_encode_angle(s) == pytest.approx(theta)

    @pytest.mark.parametrize("s", [1.0, 0.0, 0.5, 0.873])
    def test_noiseless_outcome_recovers_value(self, s):
        rho = run_density(rz_encode_circuit(s)).matrix
        assert np.real(rho[3, 3]) == pytest.approx(s, abs=1e-12)


class TestTrotter:
    def test_commuting_terms_exact_at_one_step(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.3)
        terms = [(c, s) for c, s in pauli_decompose_partitioned(HalfInt(8), spec)
                 if s in ("III", "IZI", "IIZ", "IZZ", "ZII")]
        t = 7.0
        circ = trotterized_pauli_evolution(terms, t, steps=1)
        built = circuit_unitary(circ)
        H = sum(c * pauli_matrix(s) for c, s in terms)  # I/Z strings only: H is diagonal
        exact = np.diag(np.exp(-1j * t * np.diag(H)))
        phase = np.vdot(built.reshape(-1), exact.reshape(-1))
        phase /= abs(phase)
        assert np.abs(built * phase - exact).max() <= 1e-12

    def test_converges_to_exact_evolution(self):
        # zero field keeps all terms at the hyperfine scale; measured error at
        # steps=100 is 1.63e-3 and scales as 1/steps^2 on this observable
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0)
        I = HalfInt(8)
        terms = pauli_decompose_partitioned(I, spec)
        H = build_partitioned(I, spec)
        t = 10.0
        exact = singlet_trace(H, sector_statevector(0, 2), np.array([t])).values[0]

        def trotter_error(steps):
            circ = trotterized_pauli_evolution(terms, t, steps=steps)
            prep = Circuit(3)
            add_singlet_prep(prep, 2, 0)
            psi = run_statevector(circ, run_statevector(prep))
            from qbeats.dynamics import pair_slice_indices

            idx = pair_slice_indices((2, 2, 2))
            amp = (psi[idx[1]] - psi[idx[2]]) / math.sqrt(2)
            return abs(np.sum(np.abs(amp) ** 2) - exact)

        errors = {steps: trotter_error(steps) for steps in (50, 100, 200)}
        assert errors[100] <= 2e-3
        # halving the step size reduces the error by well over 1.8x
        assert errors[50] / errors[100] >= 1.8
        assert errors[100] / errors[200] >= 1.8


class TestGate:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("RX", (0,), ())  # missing parameter
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))  # repeated sites
        with pytest.raises(ValueError):
            Gate("X", (0,), prob=1.5)
