"""pipeline.simulate against independent recombinations of its own parts."""

import dataclasses

import numpy as np
import pytest

from qbeats.config import load_preset
from qbeats.dynamics import TimeSeries, one_group_weights, reassemble_two_group
from qbeats.hamiltonians import build_two_group_block
from qbeats.pipeline import simulate
from qbeats.spinalg import spin_addition_counts

GRID = (0.0, 20.0, 0.5)


def preset(name, method):
    return dataclasses.replace(load_preset(name), noise_method=method, time_grid=GRID)


def sector_average(columns, regime):
    """Count-weighted average of the one-group |I, m=I> columns."""
    weights = one_group_weights(8, regime)
    total = sum(weights.values())
    return sum((w / total) * columns[f"I={abs(k)}"] for k, w in weights.items())


@pytest.mark.parametrize("regime", ["zero", "high"])
@pytest.mark.parametrize("method", ["kraus", "per-gate"])
def test_one_group_sector_columns_average_to_the_main_trace(method, regime):
    result = simulate(preset("octalin", method), regime, sectors=True)
    assert list(result.sectors) == ["I=4", "I=3", "I=2", "I=1", "I=0"]
    dev = np.abs(sector_average(result.sectors, regime) - result.trace.values).max()
    assert dev <= 1e-12


@pytest.mark.parametrize("regime", ["zero", "high"])
def test_one_group_echo_trace_is_the_average_of_its_sector_runs(regime):
    result = simulate(preset("octalin", "echo-synthetic"), regime, sectors=True)
    assert np.array_equal(sector_average(result.sectors, regime), result.trace.values)


@pytest.mark.parametrize("regime", ["zero", "high"])
def test_two_group_sector_columns_reassemble_to_the_main_trace(regime):
    config = preset("dmb", "none")
    result = simulate(config, regime, sectors=True)
    spec = config.spin_spec(regime)
    traces, padding, degeneracy = {}, {}, {}
    for I2 in spin_addition_counts(12):
        sector = build_two_group_block(I2, spec)
        traces[I2] = TimeSeries(result.trace.times, result.sectors[f"I2={I2}"])
        padding[I2] = (sector.pad_register, sector.register_size)
        degeneracy[I2] = sector.degeneracy
    rebuilt = reassemble_two_group(traces, padding, degeneracy, 14)
    assert np.abs(rebuilt.values - result.trace.values).max() <= 1e-12


@pytest.mark.parametrize("regime", ["zero", "high"])
@pytest.mark.parametrize("name", ["octalin", "dmb"])
def test_per_gate_equals_kraus(name, regime):
    kraus = simulate(preset(name, "kraus"), regime).trace.values
    per_gate = simulate(preset(name, "per-gate"), regime).trace.values
    assert np.abs(kraus - per_gate).max() <= 1e-12


def test_without_sectors_no_columns_are_returned():
    assert simulate(preset("octalin", "kraus"), "zero").sectors == {}
