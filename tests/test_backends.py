"""Density backend against a gate-by-gate operator-sum oracle.

``run_oracle`` below is the gate-by-gate backend kept as the oracle: it
applies unitaries with ``apply_unitary_to_density`` and the thermal noise
with ``relaxation.apply_channel`` of ``infinite_temperature_thermal_channel``
followed by the drift RZ.  The noise routes are checked against per-point
versions of their formulas built on the same oracle.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from qbeats import noisecal, pipeline
from qbeats.backends import (
    SyntheticQubitNoise,
    _gate_matrix,
    apply_unitary_to_density,
    partial_trace,
    run_density,
)
from qbeats.circuits import Circuit, Gate
from qbeats.config import HardwareModel, load_preset
from qbeats.dynamics import (SINGLET, TRIPLET_0, DensityMatrix, evaluate_spectrum,
                             pair_probabilities, singlet_only, time_grid)
from qbeats.hamiltonians import NuclearGroup, SpinSystemSpec, build_partitioned, distinct_spins
from qbeats.library import add_singlet_prep, echo_pulse_circuit
from qbeats.noisecal import MeasurementStats, correct_stats
from qbeats.noisemethods import per_gate_singlet_values
from qbeats.pipeline import one_group_sector_spectra
from qbeats.relaxation import (
    SINGLET_CORRELATORS,
    RelaxationParams,
    apply_channel,
    infinite_temperature_thermal_channel,
    relaxed_bell_probabilities,
    relaxed_singlet,
)
from qbeats.spinalg import HalfInt
from support import channel_target_stats, inject_singlet, rz_encode_angle, sector_columns

TOL = 1e-12


def run_oracle(circuit: Circuit, rho0, noise) -> np.ndarray:
    """A circuit gate by gate, with Kraus-channel noise."""
    n = circuit.site_count
    labels = tuple(f"q{k}" for k in range(n))
    if rho0 is None:
        rho = np.zeros((2**n, 2**n), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho = np.array(rho0, dtype=complex)
    for g in circuit.gates:
        applied = apply_unitary_to_density(rho, _gate_matrix(g), g.sites, n)
        rho = applied if g.prob is None else (1.0 - g.prob) * rho + g.prob * applied
        dt = g.duration
        if noise is None or dt <= 0.0:
            continue
        for s in g.sites:
            params = RelaxationParams(float(dt), noise.T1, noise.T2)
            chan = infinite_temperature_thermal_channel(params, f"q{s}")
            rho = apply_channel(DensityMatrix(rho, (2,) * n, labels), chan).matrix
            if g.kind == "DELAY":
                drift = _gate_matrix(Gate("RZ", (s,), (noise.site_drift(s) * dt,)))
                rho = apply_unitary_to_density(rho, drift, (s,), n)
    return rho


def random_states(rng, rows: int, dim: int) -> np.ndarray:
    z = rng.normal(size=(rows, dim, dim)) + 1j * rng.normal(size=(rows, dim, dim))
    rho = z @ z.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def random_unitaries(rng, rows: int, dim: int) -> np.ndarray:
    z = rng.normal(size=(rows, dim, dim)) + 1j * rng.normal(size=(rows, dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r, axis1=1, axis2=2) / np.abs(np.diagonal(r, axis1=1, axis2=2)))[
        :, None, :]


def template(rng, duration: float) -> Circuit:
    c = Circuit(3)
    c.add("H", 0)
    c.add("CNOT", (0, 1))
    c.add("X", 2, prob=0.3)
    c.add("RZ", 1, (rng.uniform(-4.0, 4.0),))
    c.add("UNITARY", (0, 1, 2), matrix=random_unitaries(rng, 1, 8)[0])
    c.add("DELAY", 0, (duration,))
    c.add("DELAY", 2, (2.5,))
    c.add("Z", 1, prob=0.6)
    c.add("UNITARY", (2, 0), matrix=random_unitaries(rng, 1, 4)[0])
    c.add("DELAY", 1, (40.0 - duration,))
    return c


NOISES = {
    "none": None,
    "finite T1, drift": SyntheticQubitNoise(T1=9.0, T2=5.0, drift_phase_rate=(0.01, 0.2, -0.03)),
    "T1 = inf": SyntheticQubitNoise(T1=math.inf, T2=7.0, drift_phase_rate=(0.0, -0.05, 0.1)),
    "T1 = T2 = inf": SyntheticQubitNoise(T1=math.inf, T2=math.inf),
}


class TestRunDensity:
    @pytest.mark.parametrize("noise", list(NOISES), ids=list(NOISES))
    @pytest.mark.parametrize("start", ["default", "given"])
    def test_template_matches_the_gate_by_gate_oracle(self, start, noise):
        rng = np.random.default_rng(5)
        for duration in (0.0, 0.7, 11.5, 40.0):  # zero-duration delays included
            c = template(rng, duration)
            rho0 = None if start == "default" else random_states(rng, 1, 8)[0]
            got = run_density(c, rho0, NOISES[noise]).matrix
            assert got.shape == (8, 8)
            assert np.abs(got - run_oracle(c, rho0, NOISES[noise])).max() <= TOL

    def test_closed_form_map_matches_the_channel_on_one_site(self):
        # the population/coherence/drift factors of the map, directly
        rho = random_states(np.random.default_rng(3), 1, 2)[0]
        dt, T1, T2, rate = 2.0, 9.0, 11.0, 0.3
        c = Circuit(1)
        c.add("DELAY", 0, (dt,))
        got = run_density(c, rho, SyntheticQubitNoise(T1, T2, drift_phase_rate=rate)).matrix
        g, f = math.exp(-dt / T1), math.exp(-dt / T2)
        assert got[0, 0] == pytest.approx(0.5 + g * (rho[0, 0] - 0.5), abs=TOL)
        assert got[0, 1] == pytest.approx(f * np.exp(-1j * rate * dt) * rho[0, 1], abs=TOL)

    def test_non_finite_or_array_parameter_rejected(self):
        for bad in (np.nan, np.inf, np.array([1.0, 2.0])):
            with pytest.raises(ValueError, match="finite real"):
                Circuit(1).add("DELAY", 0, (bad,))
            with pytest.raises(ValueError, match="finite real"):
                Circuit(1).add("RZ", 0, (bad,))

    def test_stacked_start_rejected(self):
        stack = random_states(np.random.default_rng(4), 3, 4)
        for c in (Circuit(2), Circuit(2).add("H", 0), Circuit(2).add("DELAY", 1, (2.0,))):
            with pytest.raises(ValueError):
                run_density(c, stack, SyntheticQubitNoise(1e5, 1e5))

    def test_unphysical_site_times_rejected(self):
        c = Circuit(1)
        c.add("DELAY", 0, (1.0,))
        with pytest.raises(ValueError, match="unphysical"):
            run_density(c, noise=SyntheticQubitNoise(T1=4.0, T2=9.0))

    def test_unitary_stack_of_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="UNITARY"):
            Circuit(2).add("UNITARY", (0, 1), matrix=np.zeros((3, 2, 2)))
        stack = random_unitaries(np.random.default_rng(1), 2, 4)  # of right-sized ones
        with pytest.raises(ValueError, match="UNITARY"):
            Circuit(2).add("UNITARY", (0, 1), matrix=stack)


# ---------------------------------------------------------------------------
# noise routes against per-point versions of their formulas
# ---------------------------------------------------------------------------

def bell_stats(rho, e1, e2, n) -> MeasurementStats:
    pair = partial_trace(rho, (e1, e2), n)
    return MeasurementStats.from_array(np.clip(pair_probabilities(pair), 0.0, None))


def target_at(t: float, T1: float, T2: float, hw: HardwareModel) -> MeasurementStats:
    if math.isinf(T1):
        return channel_target_stats(RelaxationParams(t, T1, T2))
    N = round(float(hw.echo_channel(t, T1, T2)[0]) / hw.identity_ns)
    c = Circuit(2)
    add_singlet_prep(c, 0, 1)
    c.extend(echo_pulse_circuit(N, hw.identity_ns, (0, 1), 2))
    noise = SyntheticQubitNoise(T1=hw.T1_ns, T2=hw.T2_ns, drift_phase_rate=hw.drift_phase_rate)
    return bell_stats(run_oracle(c, None, noise), 0, 1, 2)


def corrected_at(prep_and_evolve, n, e1, e2, hw, target) -> float:
    noise = SyntheticQubitNoise(T1=hw.T1_ns, T2=hw.T2_ns)
    stats = []
    for evolve in (True, False):
        c = Circuit(n)
        add_singlet_prep(c, e1, e2)
        if evolve:
            prep_and_evolve(c)
        for s in (e2, e1):  # delays on different sites commute: the other order
            c.add("DELAY", s, (hw.u_circuit_ns,))
        stats.append(bell_stats(run_oracle(c, None, noise), e1, e2, n))
    return inject_singlet(correct_stats(stats[0], stats[1]), target)


TIMES = time_grid(0.0, 20.0, 4.0)
HARDWARE = {
    "default": HardwareModel(),
    "noisy, drifting": HardwareModel(T1_ns=20_000.0, T2_ns=15_000.0, identity_ns=50.0,
                                     u_circuit_ns=800.0, drift_phase_rate=(0.01, -0.004)),
}
RELAXATION = {"T1 = T2": (9.0, 9.0), "T1 = inf": (math.inf, 9.0), "T2 < T1": (40.0, 20.0)}


class TestNoiseRoutes:
    @pytest.mark.parametrize("T1,T2", list(RELAXATION.values()), ids=list(RELAXATION))
    def test_per_gate_matches_per_point_runs(self, T1, T2):
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.3, T1=T1, T2=T2)
        times = time_grid(-1.0, 15.0, 2.0)  # a negative time idles for no time
        traj = evaluate_spectrum(one_group_sector_spectra(spec)[HalfInt(4)], times)
        noise = SyntheticQubitNoise(T1=T1, T2=T2)
        want = []
        for i, t in enumerate(times):
            c = Circuit(2)
            if t > 0:
                c.add("DELAY", 0, (float(t),))
                c.add("DELAY", 1, (float(t),))
            rho = run_oracle(c, traj[i], noise)
            want.append(float(np.real(SINGLET.conj() @ rho @ SINGLET)))
        assert np.abs(per_gate_singlet_values(traj, times, T1, T2) - want).max() <= TOL

    @pytest.mark.parametrize("hw", list(HARDWARE), ids=list(HARDWARE))
    @pytest.mark.parametrize("T1,T2", list(RELAXATION.values()), ids=list(RELAXATION))
    def test_echo_targets_match_per_point_runs(self, T1, T2, hw):
        got = relaxed_bell_probabilities(SINGLET_CORRELATORS,
                                         *HARDWARE[hw].echo_channel(TIMES, T1, T2))
        for i, t in enumerate(TIMES):
            want = target_at(float(t), T1, T2, HARDWARE[hw])
            assert np.abs(got[i] - want.as_array()).max() <= TOL

    @pytest.mark.parametrize("hw", list(HARDWARE), ids=list(HARDWARE))
    @pytest.mark.parametrize("regime", ["zero", "high"])
    def test_sector_route_matches_per_point_runs(self, regime, hw):
        # every |I, m=I> sector column and the pure |2, 2> state of simulate against
        # the damped and reference circuits with U(t) of the 3-qubit partitioned block
        config = dataclasses.replace(load_preset("octalin"), noise_method="echo-synthetic",
                                     time_grid=(0.0, 20.0, 4.0), hardware=HARDWARE[hw])
        spec = config.spin_spec(regime)
        targets = [target_at(float(t), spec.T1, spec.T2, HARDWARE[hw]) for t in TIMES]
        columns = sector_columns(pipeline.simulate(config, regime, sectors=True))
        got = {HalfInt.from_float(float(label[len("I="):])): v for label, v in columns.items()}
        assert list(got) == distinct_spins(8)
        got["pure"] = pipeline.simulate(dataclasses.replace(config, initial_state="2, 2"),
                                        regime).trace.values
        for I, values in got.items():
            w, v = build_partitioned(HalfInt.from_float(2) if I == "pure" else I, spec).eig()
            for i, t in enumerate(TIMES):
                U = (v * np.exp(-1j * w * t)) @ v.conj().T
                want = corrected_at(lambda c: c.add("UNITARY", (0, 1, 2), matrix=U), 3, 2, 0,
                                    HARDWARE[hw], targets[i])
                assert abs(values[i] - want) <= TOL, (I, t)

    @pytest.mark.parametrize("hw", list(HARDWARE), ids=list(HARDWARE))
    @pytest.mark.parametrize("T1,T2", [(20.0, 20.0), (2000.0, 20.0)])
    def test_encoded_route_matches_per_point_runs(self, T1, T2, hw):
        # the coherent S(t) of the dmb pair encoded in an Rz rotation, read in closed form
        spectrum = pipeline.two_group_spectrum(load_preset("dmb").spin_spec("high"))
        coherent = evaluate_spectrum(spectrum, TIMES, singlet=True)
        got = relaxed_singlet(singlet_only(spectrum, np.outer(TRIPLET_0, TRIPLET_0)), TIMES,
                              *HARDWARE[hw].echo_channel(TIMES, T1, T2))
        for i, t in enumerate(TIMES):
            theta = rz_encode_angle(float(coherent[i]))
            want = corrected_at(lambda c: c.add("RZ", 1, (theta,)), 2, 0, 1, HARDWARE[hw],
                                target_at(float(t), T1, T2, HARDWARE[hw]))
            assert abs(got[i] - want) <= TOL

    def test_rz_encode_angle_range_checked_elementwise(self):
        with pytest.raises(ValueError, match="outside"):
            rz_encode_angle(np.array([0.2, 1.5, 0.3]))
        with pytest.raises(ValueError, match="outside"):
            rz_encode_angle(np.array([0.2, np.nan]))

    def test_stats_checks_act_on_every_row(self):
        with pytest.raises(ValueError, match="sum"):
            MeasurementStats(np.array([0.5, 0.6]), np.array([0.5, 0.5]), 0.0, 0.0)
        with pytest.raises(ValueError, match="negative"):
            MeasurementStats(np.array([0.5, 1.1]), np.array([0.5, -0.1]), 0.0, 0.0)
        ref = MeasurementStats(0.5, 0.5, 0.0, 0.0)  # S'^2 - T0'^2 = 0
        with pytest.raises(ValueError, match="floor"):
            correct_stats(MeasurementStats(np.array([0.5, 1.0]), np.array([0.5, 0.0]), 0.0, 0.0),
                          ref)

    @pytest.mark.parametrize("regime", ["zero", "high"])
    @pytest.mark.parametrize("method", ["none", "kraus", "per-gate", "echo-synthetic"])
    def test_simulate_runs_no_circuit(self, monkeypatch, method, regime):
        # the per-gate delay, the echo-synthetic runs and its correction are all read out
        # as one both-site channel
        calls = []
        for original in (run_density, noisecal.correct_stats):
            def counted(*args, _original=original, **kwargs):
                calls.append(_original.__name__)
                return _original(*args, **kwargs)

            for module in [m for k, m in sys.modules.items() if k.startswith("qbeats")]:
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, counted)
        for name in ("octalin", "dmb"):
            config = load_preset(name)
            config.noise_method = method
            config.time_grid = (0.0, 4.0, 1.0)
            pipeline.simulate(config, regime, sectors=True)
        assert calls == []
