"""Tests of the benchmark's own code: checks, tracer and calibration.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py
"""

import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# two protons keep the dense evolution at 16 states
SMALL = {
    "name": "small",
    "system": {
        "groups": [{"count": 2, "hfc_G": 24.9}],
        "g1": 2.0028, "g2": 2.0028, "field_B": 0.3,
        "relaxation": {"zero": {"T1": 9.0, "T2": 9.0}, "high": {"T1": math.inf, "T2": 9.0}},
    },
    "noise_method": "kraus",
    "time_grid": {"start": 0.0, "end": 10.0, "step": 0.25},
    "postprocess": {"theta": 0.35, "tau_f": 1.2, "t0": 1.0, "t_g": 1.0},
}
ROWS = 41
RELAXATION = {"zero": (9.0, 9.0), "high": (math.inf, 9.0)}


def run_cli(tmp_path, noise_method, tracer=None):
    from qbeats import cli

    config = tmp_path / f"{noise_method}.yaml"
    config.write_text(yaml.safe_dump(dict(SMALL, noise_method=noise_method)))
    out = tmp_path / f"{noise_method}.csv"
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["trmfe", "--config", str(config), "--out", str(out)]) == 0
    return checks.read_csv(out)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    return {m: run_cli(tmp, m) for m in ("kraus", "per-gate", "echo-synthetic")}


def perturbed(cols, key, index, value):
    out = {k: v.copy() for k, v in cols.items()}
    out[key][index] = value
    return out


def test_checks_accept_the_program_output(outputs):
    kraus = outputs["kraus"]
    assert checks.check_trace(kraus, ROWS) == []
    assert checks.check_envelope(kraus, RELAXATION) == []
    assert checks.check_agreement(outputs["per-gate"], kraus, 1e-12, 1e-12, "kraus") == []
    assert checks.check_agreement(outputs["echo-synthetic"], kraus, 1e-12, 5e-3, "kraus") == []
    # zero field is exact; see the README for the high-field tolerance
    assert checks.check_dense(kraus, SMALL["system"], range(1, ROWS), 2e-3, 1e-9) == []


@pytest.mark.parametrize("key,index,value", [
    ("S_0", 0, 0.99),              # S(0) != 1
    ("S_B", 5, 1.01),              # above 1
    ("S_0", 7, -0.01),             # below 0
    ("S_B", 9, float("nan")),      # non-finite
    ("ratio", 12, None),           # ratio != I_B / I_0
    ("I_0", 3, -1.0),              # non-positive intensity
])
def test_check_trace_rejects(outputs, key, index, value):
    cols = outputs["kraus"]
    if value is None:
        value = cols[key][index] * (1 + 1e-9)
    assert checks.check_trace(perturbed(cols, key, index, value), ROWS)


def test_check_trace_rejects_missing_rows(outputs):
    cols = {k: v[:-1] for k, v in outputs["kraus"].items()}
    assert checks.check_trace(cols, ROWS)


def test_check_envelope_rejects_a_slow_decay(outputs):
    cols = outputs["kraus"]
    # at t = 10 ns the zero-field bound is 1/4 +- 0.081
    assert checks.check_envelope(perturbed(cols, "S_0", ROWS - 1, 0.4), RELAXATION)


def test_check_agreement_rejects(outputs):
    kraus = outputs["kraus"]
    pergate = perturbed(outputs["per-gate"], "S_B", 20, outputs["per-gate"]["S_B"][20] + 1e-11)
    assert checks.check_agreement(pergate, kraus, 1e-12, 1e-12, "kraus")
    echo = perturbed(outputs["echo-synthetic"], "S_0", 20, kraus["S_0"][20] + 1e-2)
    assert checks.check_agreement(echo, kraus, 1e-12, 5e-3, "kraus")


@pytest.mark.parametrize("key,delta", [("S_0", 1e-8), ("S_B", 1e-2)])
def test_check_dense_rejects(outputs, key, delta):
    cols = outputs["kraus"]
    bad = perturbed(cols, key, 17, cols[key][17] + delta)
    assert checks.check_dense(bad, SMALL["system"], [3, 17, 30], 2e-3, 1e-9)


def test_dense_reference_starts_in_the_singlet_and_relaxes_to_a_quarter():
    times = np.array([0.0, 500.0])
    assert abs(checks.dense_singlet(SMALL["system"], "high", times)[0] - 1) < 1e-12
    s = checks.dense_singlet(SMALL["system"], "zero", times)
    assert abs(s[0] - 1) < 1e-12 and abs(s[1] - 0.25) < 1e-12


def test_self_times_never_exceed_their_span(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        run_cli(tmp_path, "per-gate", tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    names = {name for name, *_ in spans}
    assert {"cli.main", "backends.run_density", "dynamics.pair_trajectory_pure",
            "relaxation.infinite_temperature_thermal_channel", "cli.write_csv"} <= names
    for name, parent, start, end, own in spans:
        assert 0.0 <= own <= end - start, name
        if parent >= 0:
            p = spans[parent]
            assert p[2] <= start and end <= p[3], name
    root = next(s for s in spans if s[0] == "cli.main")
    metrics = layer_metrics(tracer, root[3] - root[2])
    assert metrics["trace.self_share"] == pytest.approx(100.0)
    assert metrics["backends.run_density_calls"] == 2 * ROWS
    assert metrics["relaxation.channel_builds"] == metrics["backends.gates"] == 4 * (ROWS - 1)


def test_uninstall_restores_the_program(tmp_path):
    from qbeats import backends, noisemethods

    before = noisemethods.run_density
    tracer = Tracer()
    tracer.install()
    assert noisemethods.run_density is not before
    tracer.uninstall()
    assert noisemethods.run_density is before and backends.run_density is before


def test_rescaled_cancels_a_uniform_slowdown():
    ref = calibrate.REF_S
    # the same command on a host at full, half and a drifting speed
    times = [2.0, 4.0, 3.0]
    cals = [ref, 2 * ref, 2 * ref, ref]
    assert calibrate.rescaled(times, cals) == pytest.approx([4 / 3, 2.0, 2.0])
    assert calibrate.rescaled([2.0], [ref, ref]) == pytest.approx([2.0])
    with pytest.raises(ValueError):
        calibrate.rescaled(times, cals[:-1])
