"""pipeline.simulate against independent recombinations of its own parts."""

import dataclasses
import sys

import numpy as np
import pytest

from qbeats import dynamics, hamiltonians
from qbeats.config import load_preset
from qbeats.dynamics import evaluate_spectrum, one_group_weights, singlet_values, time_grid
from qbeats.noisemethods import per_gate_singlet_values
from qbeats.pipeline import (one_group_sector_spectra, one_group_spectrum, simulate,
                             two_group_spectrum)
from qbeats.relaxation import relaxed_singlet
from qbeats.spinalg import HalfInt, spin_addition_counts
from support import class_average, sector_columns, werner_trajectory

GRID = (0.0, 20.0, 0.5)


def preset(name, method):
    return dataclasses.replace(load_preset(name), noise_method=method, time_grid=GRID)


def sector_average(columns, regime):
    """Count-weighted average of the one-group |I, m=I> columns."""
    weights = one_group_weights(8, regime)
    total = sum(weights.values())
    return sum((w / total) * columns[f"I={abs(k)}"] for k, w in weights.items())


@pytest.mark.parametrize("regime", ["zero", "high"])
@pytest.mark.parametrize("method", ["kraus", "per-gate", "echo-synthetic"])
def test_one_group_sector_columns_average_to_the_main_trace(method, regime):
    result = simulate(preset("octalin", method), regime, sectors=True)
    assert result.labels == ["I=4", "I=3", "I=2", "I=1", "I=0"]
    dev = np.abs(sector_average(sector_columns(result), regime) - result.trace.values).max()
    assert dev <= 1e-12
    weights = one_group_weights(8, regime)
    assert result.weights == [weights[HalfInt(2 * k)] / 2 ** 8 for k in (4, 3, 2, 1, 0)]


@pytest.mark.parametrize("regime", ["zero", "high"])
def test_two_group_sector_columns_reassemble_to_the_main_trace(regime):
    """Under every noise method, the I2 columns weighted by their share of the ensemble,
    4 (2 I2 + 1) count(I2) / 2^14, sum to the main trace."""
    counts = spin_addition_counts(12)
    for method in ("none", "kraus", "per-gate", "echo-synthetic"):
        result = simulate(preset("dmb", method), regime, sectors=True)
        assert result.labels == [f"I2={I2}" for I2 in counts]
        assert result.weights == [4 * (I2.twice_value + 1) * c / 2 ** 14
                                  for I2, c in counts.items()]
        rebuilt = result.sectors @ np.array(result.weights)
        assert np.abs(rebuilt - result.trace.values).max() <= 1e-12, method


def test_two_group_sectors_take_no_padded_register(monkeypatch):
    # the padded sector register and the evaluated trajectory are oracles of the tests
    def refuse(*args, **kwargs):
        raise AssertionError("the padded-register route was taken")

    padded = (hamiltonians.build_two_group_block, dynamics.evaluate_spectrum)
    for module in [m for k, m in sys.modules.items() if k.startswith("qbeats")]:
        for name, value in list(vars(module).items()):
            if any(value is f for f in padded):
                monkeypatch.setattr(module, name, refuse)
    for regime in ("zero", "high"):
        for method in ("none", "kraus", "per-gate", "echo-synthetic"):
            assert len(simulate(preset("dmb", method), regime, sectors=True).labels) == 7


@pytest.mark.parametrize("regime", ["zero", "high"])
@pytest.mark.parametrize("name", ["octalin", "dmb"])
def test_per_gate_equals_kraus(name, regime):
    kraus = simulate(preset(name, "kraus"), regime).trace.values
    per_gate = simulate(preset(name, "per-gate"), regime).trace.values
    assert np.abs(kraus - per_gate).max() <= 1e-12


@pytest.mark.parametrize("regime", ["zero", "high"])
def test_two_group_per_gate_matches_the_gate_level_circuit(regime):
    """per-gate simulate on a two-group system against the noisy delay circuit run on its
    evaluated pair trajectory."""
    config = preset("dmb", "per-gate")
    spec, times = config.spin_spec(regime), time_grid(*GRID)
    oracle = per_gate_singlet_values(evaluate_spectrum(two_group_spectrum(spec), times), times,
                                     spec.T1, spec.T2)
    assert np.abs(simulate(config, regime).trace.values - oracle).max() <= 1e-12


def test_without_sectors_no_columns_are_returned():
    result = simulate(preset("octalin", "kraus"), "zero")
    assert result.labels == result.weights == [] and result.sectors.shape == (41, 0)


def noisy_singlet(method, spectrum, times, spec):
    """S(t) of a beat spectrum under a noise method: coherent, through the closed-form channel,
    or through the gate-level delay circuit run on its evaluated trajectory."""
    if method == "none":
        return evaluate_spectrum(spectrum, times, singlet=True)
    if method == "kraus":
        return relaxed_singlet(spectrum, times, times, spec.T1, spec.T2)
    return per_gate_singlet_values(evaluate_spectrum(spectrum, times), times, spec.T1, spec.T2)


@pytest.mark.parametrize("regime", ["zero", "high"])
def test_summed_spectrum_matches_the_average_of_sector_trajectories(regime):
    """The one-group mixed trajectory, evaluated once from the summed spectra, against the
    count-weighted average of the five evaluated |I, m=I> trajectories; at zero field,
    against the rotation-invariant pair state of that average's S(t)."""
    spec = load_preset("octalin").spin_spec(regime)
    times = time_grid(0.0, 100.0, 0.1)
    trajs = {I: evaluate_spectrum(s, times) for I, s in one_group_sector_spectra(spec).items()}
    oracle = class_average(8, regime, trajs)
    if regime == "zero":
        oracle = werner_trajectory(singlet_values(oracle))
    mixed = evaluate_spectrum(one_group_spectrum(spec, regime), times)
    assert np.abs(mixed - oracle).max() <= 1e-12


@pytest.mark.parametrize("regime", ["zero", "high"])
@pytest.mark.parametrize("method", ["none", "kraus", "per-gate"])
def test_simulate_matches_per_sector_trajectories(method, regime):
    """simulate, with and without sectors, against noisy per-sector trajectories: the main
    trace is their count-weighted average and each sector column is one of them."""
    config = preset("octalin", method)
    spec, times = config.spin_spec(regime), time_grid(*GRID)
    per_sector = {f"I={I}": noisy_singlet(method, s, times, spec)
                  for I, s in one_group_sector_spectra(spec).items()}
    plain, with_sectors = simulate(config, regime), simulate(config, regime, sectors=True)
    assert np.array_equal(plain.trace.values, with_sectors.trace.values)
    assert np.abs(plain.trace.values - sector_average(per_sector, regime)).max() <= 1e-12
    assert with_sectors.labels == list(per_sector)
    for label, values in per_sector.items():
        assert np.abs(sector_columns(with_sectors)[label] - values).max() <= 1e-12


def test_pure_sector_state_matches_its_sector_trajectory():
    config = dataclasses.replace(preset("octalin", "kraus"), initial_state="3,3")
    spec, times = config.spin_spec("zero"), time_grid(*GRID)
    spectrum = one_group_sector_spectra(spec)[HalfInt.from_float(3)]
    assert np.abs(simulate(config, "zero").trace.values
                  - noisy_singlet("kraus", spectrum, times, spec)).max() <= 1e-12


@pytest.mark.parametrize("grid, count", [
    ((0.0, 1.0, 0.6), 2),        # 1 / 0.6 intervals: 0 and 0.6, never 1.2
    ((0.0, 0.3, 0.1), 4),        # 2.9999999999999996 intervals: the end is kept
    ((0.0, 100.0, 0.1), 1001),
    ((0.0, 100.0, 0.02), 5001),
    ((5.0, 20.0, 0.1), 151),
    ((2.0, 2.0, 0.5), 1),
])
def test_time_grid_never_passes_its_end(grid, count):
    times = time_grid(*grid)
    start, end, step = grid
    assert len(times) == count and times[0] == start
    assert times[-1] <= end + 1e-9 * step
    assert np.array_equal(times, start + step * np.arange(count))


def test_simulate_writes_no_row_past_the_end():
    config = dataclasses.replace(load_preset("octalin"), noise_method="none",
                                 time_grid=(0.0, 1.0, 0.6))
    assert list(simulate(config, "zero").trace.times) == [0.0, 0.6]
