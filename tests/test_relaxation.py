import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qbeats.backends import SyntheticQubitNoise, run_density
from qbeats.circuits import Circuit
from qbeats.dynamics import DensityMatrix, evaluate_spectrum, pair_probabilities, time_grid
from qbeats.hamiltonians import NuclearGroup, SpinSystemSpec
from qbeats.pipeline import one_group_spectrum
from qbeats.relaxation import (
    KrausChannel,
    RelaxationParams,
    apply_channel,
    infinite_temperature_thermal_channel,
    relaxed_bell_probabilities,
    relaxed_singlet,
)
from support import (half_rate_equivalence_check, mixed_singlet_density, operator_sum_pair,
                     trajectory_correlators)

OCTALIN_RELAXED = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0,
                                 T1=9.0, T2=9.0)


def random_qubit_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


class TestRelaxationParams:
    def test_fig4_parameter_forms(self):
        p = RelaxationParams(t=3.0, T1=9.0, T2=12.0)
        assert p.p_x == pytest.approx(1 - math.exp(-3 / 9))
        assert p.p_z == pytest.approx(0.5 * (1 - math.exp(-3 * (1 / 12 - 1 / 18))))
        assert p.phi_x == pytest.approx(2 * math.asin(math.sqrt(p.p_x)))

    def test_unphysical_rates_rejected(self):
        with pytest.raises(ValueError):
            RelaxationParams(t=1.0, T1=4.0, T2=9.0)

    # T2 = 3 T1 at T1 = 1e20 ns: a dephasing rate of -1.7e-21 /ns, which an absolute
    # tolerance on the rate lets through; every consumer of (T1, T2) applies T2 <= 2 T1
    @pytest.mark.parametrize("consumer", [
        lambda T1, T2: SpinSystemSpec(OCTALIN_RELAXED.groups, T1=T1, T2=T2),
        lambda T1, T2: RelaxationParams(0.0, T1, T2),
        lambda T1, T2: relaxed_singlet(one_group_spectrum(OCTALIN_RELAXED, "zero"),
                                       np.ones(1), np.ones(1), T1, T2),
        lambda T1, T2: run_density(Circuit(1).add("DELAY", 0, (1.0,)),
                                   noise=SyntheticQubitNoise(T1, T2)),
    ], ids=["SpinSystemSpec", "RelaxationParams", "relaxed_singlet", "run_density"])
    def test_one_physicality_rule(self, consumer):
        with pytest.raises(ValueError, match="unphysical"):
            consumer(1e20, 3e20)
        consumer(1e20, 2e20)  # the boundary T2 = 2 T1 is physical

    def test_infinite_T1(self):
        p = RelaxationParams(t=5.0, T1=math.inf, T2=9.0)
        assert p.p_x == 0.0


class TestChannel:
    def test_zero_time_is_identity(self):
        chan = infinite_temperature_thermal_channel(RelaxationParams(0.0, 9.0, 9.0))
        rho = random_qubit_state(np.random.default_rng(0))
        out = apply_channel(DensityMatrix(rho, (2,), ("e1",)), chan)
        assert np.abs(out.matrix - rho).max() < 1e-15

    def test_long_time_fixed_point(self):
        chan = infinite_temperature_thermal_channel(RelaxationParams(1e6, 9.0, 9.0))
        rho = random_qubit_state(np.random.default_rng(1))
        out = apply_channel(DensityMatrix(rho, (2,), ("e1",)), chan)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-12

    def test_pure_dephasing_closed_form(self):
        t, T2 = 4.0, 9.0
        chan = infinite_temperature_thermal_channel(RelaxationParams(t, math.inf, T2))
        rho = random_qubit_state(np.random.default_rng(2))
        out = apply_channel(DensityMatrix(rho, (2,), ("e1",)), chan).matrix
        assert out[0, 0] == pytest.approx(rho[0, 0])
        assert out[0, 1] == pytest.approx(rho[0, 1] * math.exp(-t / T2))

    @given(st.floats(0.1, 50.0), st.floats(0.5, 40.0), st.floats(0.1, 2.0))
    def test_completeness_random(self, t, T1, ratio):
        T2 = ratio * T1
        chan = infinite_temperature_thermal_channel(RelaxationParams(t, T1, T2))
        assert chan.completeness_defect() <= 1e-13

    @pytest.mark.parametrize("t", [0.0, 1.0, 9.0, 90.0])
    @pytest.mark.parametrize("T1", [2.0, 9.0, 100.0, math.inf])
    @pytest.mark.parametrize("T2", [1.0, 4.0, 9.0, 20.0])
    def test_completeness_grid(self, t, T1, T2):
        if math.isfinite(T1) and T2 > 2 * T1:
            pytest.skip("unphysical corner")
        chan = infinite_temperature_thermal_channel(RelaxationParams(t, T1, T2))
        assert chan.completeness_defect() <= 1e-13

    def test_unitality(self):
        chan = infinite_temperature_thermal_channel(RelaxationParams(3.0, 9.0, 9.0))
        mixed = DensityMatrix(np.eye(2, dtype=complex) / 2, (2,), ("e1",))
        out = apply_channel(mixed, chan)
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-15

    def test_validation_catches_broken_sets(self):
        broken = KrausChannel((np.eye(2, dtype=complex) * 0.9,), "e1")
        with pytest.raises(ValueError):
            broken.validate()


class TestApplyChannel:
    def test_embedded_site(self):
        rng = np.random.default_rng(3)
        chan = infinite_temperature_thermal_channel(RelaxationParams(2.0, 9.0, 9.0), "e1")
        # singlet on (e1, e2), nuclear spectator of dimension 3
        rho = mixed_singlet_density(3)
        out = apply_channel(rho, chan)
        assert abs(np.trace(out.matrix) - 1) < 1e-12
        assert np.linalg.eigvalsh(out.matrix).min() > -1e-12

    @pytest.mark.parametrize("T1,T2", [(9.0, 13.0), (math.inf, 5.0)])
    @pytest.mark.parametrize("sites", ["both", "e1", "e2"])
    def test_closed_form_matches_kraus_on_pairs(self, sites, T1, T2):
        """The closed form on random pair states on a grid of times, read from their
        correlators, against the operator sum: all four outcomes of the both-site channel
        at (T1, T2), or S and T0 of the channel on one site at (T1/2, T2/2), which act on
        S and T0 as the both-site one does."""
        rng = np.random.default_rng(4)
        times = np.repeat([0.0, 0.5, 3.0, 9.0, 40.0], 4)
        v = rng.normal(size=(len(times), 4)) + 1j * rng.normal(size=(len(times), 4))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        traj = np.einsum("ta,tb->tab", v, v.conj())
        got = relaxed_bell_probabilities(trajectory_correlators(traj), times, T1, T2)
        if sites == "both":
            want = pair_probabilities(np.array(
                [operator_sum_pair(rho, t, T1, T2) for rho, t in zip(traj, times)]))
        else:
            want = pair_probabilities(np.array(
                [operator_sum_pair(rho, t, T1 / 2, T2 / 2, (sites,))
                 for rho, t in zip(traj, times)]))
            got, want = got[:, :2], want[:, :2]
        assert np.abs(got - want).max() <= 1e-13

    def test_missing_site_rejected(self):
        chan = infinite_temperature_thermal_channel(RelaxationParams(1.0, 9.0, 9.0), "nope")
        with pytest.raises(ValueError):
            apply_channel(mixed_singlet_density(2), chan)


class TestCommutation:
    def test_channel_commutes_with_electronic_zeeman(self):
        # evolve-then-relax equals relax-then-evolve for the pair Zeeman
        rng = np.random.default_rng(5)
        b1, b2, t = 11.0, 9.5, 7.0
        z = np.array([1.0, -1.0])
        # pair basis p = 2 e1 + e2
        diag = -b1 * np.kron(z, np.ones(2)) - b2 * np.kron(np.ones(2), z)
        U = np.diag(np.exp(-1j * diag * t))
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
            ev_first = operator_sum_pair(U @ rho @ U.conj().T, t, 9.0, 9.0)
            relax_first = U @ operator_sum_pair(rho, t, 9.0, 9.0) @ U.conj().T
            assert np.abs(ev_first - relax_first).max() <= 1e-11


class TestHalfRate:
    def test_octalin(self):
        times = time_grid(0, 60, 1.0)
        assert half_rate_equivalence_check(OCTALIN_RELAXED, times)

    def test_dephasing_only(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(2, 0.65), NuclearGroup(12, 1.66)),
                              field_B=0.1, T1=math.inf, T2=20.0)
        times = time_grid(0, 40, 2.0)
        assert half_rate_equivalence_check(spec, times)


class TestDecayEnvelope:
    def test_relaxation_factor_non_increasing_on_peaks(self):
        # relaxation shrinks the beat envelope monotonically; measured as the
        # noisy/coherent ratio at the coherent envelope's peak samples (the
        # raw peak heights carry beat ripples of coherent origin)
        times = time_grid(0, 90, 0.1)
        spectrum = one_group_spectrum(OCTALIN_RELAXED, "zero")
        noisy = relaxed_singlet(spectrum, times, times, OCTALIN_RELAXED.T1, OCTALIN_RELAXED.T2)
        coherent = evaluate_spectrum(spectrum, times, singlet=True)
        dn, dc = np.abs(noisy - 0.25), np.abs(coherent - 0.25)
        idx = np.array([i for i in range(1, len(dc) - 1)
                        if dc[i] >= dc[i - 1] and dc[i] >= dc[i + 1] and dc[i] > 1e-3])
        ratios = dn[idx] / dc[idx]
        assert len(ratios) >= 8
        assert all(b <= a + 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_asymptote(self):
        times = time_grid(0, 90, 0.5)
        s = relaxed_singlet(one_group_spectrum(OCTALIN_RELAXED, "zero"), times, times,
                            OCTALIN_RELAXED.T1, OCTALIN_RELAXED.T2)
        assert abs(s[-1] - 0.25) <= 0.01
