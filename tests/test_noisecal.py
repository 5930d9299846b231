import math
from importlib.resources import files

import numpy as np
import pytest
import yaml

from qbeats.config import ConfigError, HardwareModel, load_preset, parse_config
from qbeats.dynamics import (TRIPLET_0, evaluate_spectrum, pair_probabilities, singlet_only,
                             time_grid)
from qbeats.hamiltonians import NuclearGroup, SpinSystemSpec
from qbeats.noisecal import (
    MeasurementStats,
    UnrecoverableNoiseError,
    correct_stats,
    damp_stats,
)
from qbeats.noisemethods import per_gate_singlet_values
from qbeats.pipeline import one_group_sector_spectra, two_group_spectrum
from qbeats.relaxation import RelaxationParams, relaxed_singlet
from qbeats.spinalg import HalfInt
from support import channel_target_stats, class_average, inject_singlet

REF_CLEAN = MeasurementStats(1.0, 0.0, 0.0, 0.0)


class TestCorrection:
    def test_noise_free_reference_is_identity(self):
        stats = MeasurementStats(0.4, 0.3, 0.2, 0.1)
        out = correct_stats(stats, REF_CLEAN)
        assert np.abs(out.as_array() - stats.as_array()).max() == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(100):
            und = MeasurementStats.from_array(rng.dirichlet(np.ones(4)))
            tpm = rng.uniform(0.0, 0.2)
            remaining = 1 - 2 * tpm
            s_ref = remaining * rng.uniform(0.55, 0.95)
            ref = MeasurementStats(s_ref, remaining - s_ref, tpm, tpm)
            if min(abs(1 - 4 * tpm), abs(ref.s**2 - ref.t0**2)) < 1e-3:
                continue
            back = correct_stats(damp_stats(und, ref), ref)
            worst = max(worst, np.abs(back.as_array() - und.as_array()).max())
        assert worst <= 1e-10

    def test_degenerate_reference_raises(self):
        mixed = MeasurementStats(0.25, 0.25, 0.25, 0.25)
        with pytest.raises(ValueError, match="unrecoverable"):
            correct_stats(MeasurementStats(0.3, 0.3, 0.2, 0.2), mixed)

    def test_array_denominators_report_their_smallest_magnitude(self):
        # rows: S'^2 - T0'^2 = 0.16, 0 and -0.16; 1 - 4 T+' = 1 - 4 T-' = 0.6
        ref = MeasurementStats(np.array([0.5, 0.4, 0.3]), np.array([0.3, 0.4, 0.5]), 0.1, 0.1)
        with pytest.raises(UnrecoverableNoiseError,
                           match=r"denominators \(6\.000e-01, 6\.000e-01, 0\.000e\+00\) "
                                 r"below floor 1e-06"):
            correct_stats(ref, ref)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            MeasurementStats(0.5, 0.5, 0.5, -0.5)
        with pytest.raises(ValueError):
            MeasurementStats(0.3, 0.3, 0.3, 0.3)
        MeasurementStats(0.25, 0.25, 0.25, 0.25)


class TestInjection:
    def test_clean_target_returns_singlet(self):
        und = MeasurementStats(0.37, 0.23, 0.2, 0.2)
        assert inject_singlet(und, REF_CLEAN) == pytest.approx(0.37)

    def test_mixed_target_returns_quarter(self):
        und = MeasurementStats(0.37, 0.23, 0.2, 0.2)
        mixed = MeasurementStats(0.25, 0.25, 0.25, 0.25)
        assert inject_singlet(und, mixed) == pytest.approx(0.25)

    def test_injection_equals_kraus_on_octalin(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0,
                              T1=9.0, T2=9.0)
        times = time_grid(0, 50, 1.0)
        mixed = class_average(8, "zero", one_group_sector_spectra(spec))
        kraus = relaxed_singlet(mixed, times, times, 9.0, 9.0)
        probs = pair_probabilities(evaluate_spectrum(mixed, times))
        injected = np.array([
            float(probs[i] @ channel_target_stats(RelaxationParams(t, 9.0, 9.0)).as_array())
            for i, t in enumerate(times)
        ])
        assert np.abs(injected - kraus).max() <= 1e-9


class TestChannelTargets:
    def test_zero_time_is_clean(self):
        stats = channel_target_stats(RelaxationParams(0.0, 9.0, 9.0))
        assert stats.s == pytest.approx(1.0)

    def test_long_time_is_mixed(self):
        stats = channel_target_stats(RelaxationParams(1e5, 9.0, 9.0))
        assert np.abs(stats.as_array() - 0.25).max() <= 1e-12

    def test_dephasing_only_splits_s_t0(self):
        stats = channel_target_stats(RelaxationParams(1e5, math.inf, 9.0))
        assert stats.s == pytest.approx(0.5)
        assert stats.t0 == pytest.approx(0.5)
        assert stats.tp == pytest.approx(0.0, abs=1e-15)


class TestEffectiveDecayConstant:
    def test_mean_of_finite(self):
        # the echo delay matches the mean of a finite T1 and T2; with T1 = inf the
        # target is the Kraus channel of duration t itself
        hw, times = HardwareModel(), np.array([0.0, 3.0, 40.0])
        elapsed, T1, T2 = hw.echo_channel(times, 9.0, 9.0)
        assert (T1, T2) == (hw.T1_ns, hw.T2_ns)
        assert np.array_equal(elapsed, hw.echo_channel(times, 6.0, 12.0)[0])
        assert not np.array_equal(elapsed, hw.echo_channel(times, 9.0, 12.0)[0])
        elapsed, T1, T2 = hw.echo_channel(times, math.inf, 20.0)
        assert np.array_equal(elapsed, times) and (T1, T2) == (math.inf, 20.0)


class TestEchoSyntheticPipelines:
    def test_sector_route_close_to_kraus(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0,
                              T1=9.0, T2=9.0)
        times = time_grid(0, 40, 4.0)
        hw = HardwareModel()
        I = HalfInt(8)
        spectrum = one_group_sector_spectra(spec)[I]
        echo = relaxed_singlet(spectrum, times, *hw.echo_channel(times, 9.0, 9.0))
        kraus = relaxed_singlet(spectrum, times, times, 9.0, 9.0)
        # procedure carries its own (documented) model error at the few-1e-3 level
        assert np.abs(echo - kraus).max() <= 5e-3

    def test_sector_route_exact_for_dephasing_only(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.3,
                              T1=math.inf, T2=9.0)
        times = time_grid(0, 40, 4.0)
        hw = HardwareModel(T1_ns=1e9, T2_ns=1e9)  # negligible circuit noise
        I = HalfInt(4)
        spectrum = one_group_sector_spectra(spec)[I]
        echo = relaxed_singlet(spectrum, times, *hw.echo_channel(times, math.inf, 9.0))
        kraus = relaxed_singlet(spectrum, times, times, math.inf, 9.0)
        assert np.abs(echo - kraus).max() <= 1e-9

    def test_encoded_route_matches_on_high_field(self):
        times = time_grid(0, 30, 3.0)
        spectrum = two_group_spectrum(load_preset("dmb").spin_spec("high"))
        coherent = evaluate_spectrum(spectrum, times, singlet=True)
        hw = HardwareModel(T1_ns=1e9, T2_ns=1e9)
        got = relaxed_singlet(singlet_only(spectrum, np.outer(TRIPLET_0, TRIPLET_0)), times,
                              *hw.echo_channel(times, math.inf, 20.0))
        # with clean hardware the encoded route reduces to injection on the
        # encoded statistics (S, 1-S, 0, 0)
        expected = np.array([
            float(np.array([s, 1 - s, 0, 0])
                  @ channel_target_stats(RelaxationParams(t, math.inf, 20.0)).as_array())
            for t, s in zip(times, coherent)
        ])
        assert np.abs(got - expected).max() <= 1e-9

    def test_readout_uses_the_hardware_T1_and_T2(self):
        # the correction undoes the damping of the damped and reference runs, so their
        # hardware constants meet only the correction floor, at parse time: at u = 680 ns,
        # T1 = 100 and T2 = 200 leave 1 - 4 T+' = 1.2e-6 and S'^2 - T0'^2 = 5.6e-4 above
        # the 1e-6 floor; swapping them leaves 6.2e-7, and u = 700 ns leaves 8.3e-7
        doc = yaml.safe_load(files("qbeats.data").joinpath("octalin.yaml").read_text())
        doc["noise_method"] = "echo-synthetic"

        def parsed(T1_us, T2_us, u_circuit_ns):
            hw = {"T1_us": T1_us, "T2_us": T2_us, "u_circuit_ns": u_circuit_ns}
            return parse_config(dict(doc, hardware=hw), name="echo")

        assert parsed(0.1, 0.2, 680.0).hardware == HardwareModel(100.0, 200.0,
                                                                 u_circuit_ns=680.0)
        for T1_us, T2_us, u in ((0.2, 0.1, 680.0), (0.1, 0.2, 700.0)):
            with pytest.raises(ConfigError, match=r"^echo\.hardware: unrecoverable noise level"):
                parsed(T1_us, T2_us, u)

    def test_per_gate_equals_kraus(self):
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0,
                              T1=9.0, T2=9.0)
        times = time_grid(0, 30, 2.0)
        spectrum = one_group_sector_spectra(spec)[HalfInt(4)]
        traj = evaluate_spectrum(spectrum, times)
        assert np.abs(per_gate_singlet_values(traj, times, 9.0, 9.0)
                      - relaxed_singlet(spectrum, times, times, 9.0, 9.0)).max() <= 1e-9

    def test_pipeline_via_ancilla_circuits_equals_channel(self):
        # end-to-end: coherent partitioned evolution, then relaxation realized
        # by one ancilla circuit per electron in the density backend
        from qbeats.backends import partial_trace, run_density
        from qbeats.circuits import Circuit
        from qbeats.library import kraus_circuit
        from qbeats.dynamics import pair_probabilities

        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0,
                              T1=9.0, T2=9.0)
        times = time_grid(0.0, 30.0, 3.0)
        spectrum = one_group_sector_spectra(spec)[HalfInt(8)]
        traj = evaluate_spectrum(spectrum, times)
        want = relaxed_singlet(spectrum, times, times, 9.0, 9.0)
        for i, t in enumerate(times):
            params = RelaxationParams(float(t), 9.0, 9.0)
            # sites: 0 = e1, 1 = e2 (pair basis order), 2/3 = fresh ancillas
            rho0 = np.kron(traj[i], np.diag([1.0, 0.0, 0.0, 0.0])).astype(complex)
            circ = Circuit(4)
            circ.extend(kraus_circuit(params, 0, 2, 4))
            circ.extend(kraus_circuit(params, 1, 3, 4))
            out = run_density(circ, rho0).matrix
            pair = partial_trace(out, (0, 1), 4)
            got = pair_probabilities(pair)[0]
            assert abs(got - want[i]) <= 1e-10
