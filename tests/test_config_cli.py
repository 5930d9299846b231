import contextlib
import io
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from qbeats import __version__
from qbeats.cli import CSV_BLOCK_ROWS, write_csv
from qbeats.config import (
    MAX_COUNT,
    YAML_LOADER,
    ConfigError,
    load_config_file,
    load_preset,
    parse_config,
)
from qbeats.dynamics import singlet_values, time_grid
from qbeats.pipeline import one_group_pair_trace, simulate
from qbeats.postprocess import observed_intensity, observed_ratio
from qbeats.relaxation import relax_pair_trajectory

MINIMAL = {
    "system": {
        "groups": [{"count": 8, "hfc_mT": 2.49}],
        "field_B": 0.3,
        "relaxation": {"zero": {"T1": 9.0, "T2": 9.0}, "high": {"T1": ".inf", "T2": 9.0}},
    },
}


class TestConfigParsing:
    def test_minimal(self):
        cfg = parse_config(dict(MINIMAL))
        assert cfg.groups[0].count == 8
        spec = cfg.spin_spec("high")
        assert spec.field_B == 0.3
        assert math.isinf(spec.T1)
        assert cfg.spin_spec("zero").field_B == 0.0

    def test_gauss_conversion(self):
        data = {"system": {"groups": [{"count": 8, "hfc_G": 24.9}]}}
        cfg = parse_config(data)
        assert cfg.groups[0].hfc_mT == pytest.approx(2.49)

    def test_unknown_key_reported_with_path(self):
        with pytest.raises(ConfigError, match="config.bogus"):
            parse_config(dict(MINIMAL, bogus=1))

    def test_bad_group_reported_with_path(self):
        data = {"system": {"groups": [{"count": -1, "hfc_mT": 1.0}]}}
        with pytest.raises(ConfigError, match=r"groups\[0\]"):
            parse_config(data)

    def test_bad_noise_method(self):
        with pytest.raises(ConfigError, match="noise_method"):
            parse_config(dict(MINIMAL, noise_method="magic"))

    def test_unphysical_relaxation_rejected(self):
        data = {"system": {
            "groups": [{"count": 8, "hfc_mT": 2.49}],
            "relaxation": {"zero": {"T1": 4.0, "T2": 9.0}},
        }}
        with pytest.raises(ConfigError):
            parse_config(data)


class TestPresets:
    def test_octalin_constants(self):
        cfg = load_preset("octalin")
        assert cfg.groups[0].count == 8
        assert cfg.groups[0].hfc_mT == pytest.approx(2.49)
        assert cfg.field_B == 0.3
        assert cfg.relaxation["zero"] == (9.0, 9.0)
        assert cfg.relaxation["high"][0] == math.inf
        assert cfg.postprocess.theta == 0.35

    def test_dmb_constants(self):
        cfg = load_preset("dmb")
        assert [g.count for g in cfg.groups] == [2, 12]
        assert cfg.groups[0].hfc_mT == pytest.approx(0.65)
        assert cfg.groups[1].hfc_mT == pytest.approx(1.66)
        assert cfg.field_B == 0.1
        assert cfg.relaxation == {"zero": (20.0, 20.0), "high": (2000.0, 20.0)}
        assert cfg.postprocess.theta == 0.132

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("benzene")

    @pytest.mark.parametrize("preset", ["octalin", "dmb"])
    def test_libyaml_loader_parses_like_the_pure_loader(self, preset):
        from importlib.resources import files

        preset_text = files("qbeats.data").joinpath(f"{preset}.yaml").read_text()
        for text in (preset_text, yaml.safe_dump(yaml.safe_load(preset_text))):
            assert yaml.load(text, Loader=YAML_LOADER) == yaml.safe_load(text)


# --compare files that must be refused: (file text or None for no file, reason printed)
BAD_REFERENCES = {
    "missing": (None, "No such file or directory"),
    "one column": ("time_ns,value\n0,1.0\n1\n", "line 3: expected 'time, value', got '1'"),
    "not a number": ("0,1.0\n1,one\n", "line 2: expected 'time, value', got '1,one'"),
    "nan": ("0,1.0\n1,nan\n2,1.0\n", "line 2: non-finite value in '1,nan'"),
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qbeats.cli", *args],
                          capture_output=True, text=True)


def preset_with(name, *path_and_value):
    """Preset YAML document with one field replaced (path given as keys)."""
    from importlib.resources import files

    doc = yaml.safe_load(files("qbeats.data").joinpath(f"{name}.yaml").read_text())
    *keys, value = path_and_value
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def echo_with(key, value):
    """Octalin echo-synthetic document with one top-level key set."""
    return dict(preset_with("octalin", "noise_method", "echo-synthetic"), **{key: value})


UNRECOVERABLE_HARDWARE = {"T1_us": 0.001, "T2_us": 0.001, "u_circuit_ns": 1000}

BAD_CONFIGS = {
    "count 0": preset_with("octalin", "system", "groups", 0, "count", 0),
    "small group of 3": preset_with("dmb", "system", "groups", 0, "count", 3),
    "no such I": preset_with("octalin", "initial_state", "5,5"),
    "not a state": preset_with("octalin", "initial_state", "up"),
    "two-group pure state": preset_with("dmb", "initial_state", "1,1"),
    "echo with m != I": dict(preset_with("octalin", "initial_state", "2,1"),
                             noise_method="echo-synthetic"),
    "field_B nan": preset_with("octalin", "system", "field_B", math.nan),
    "g1 nan": preset_with("octalin", "system", "g1", math.nan),
    "g2 inf": preset_with("octalin", "system", "g2", math.inf),
    "hfc nan": preset_with("octalin", "system", "groups", 0, "hfc_G", math.nan),
    "grid end inf": preset_with("octalin", "time_grid", "end", math.inf),
    "grid step 1e-300": preset_with("octalin", "time_grid", "step", 1e-300),
    "field_B 1e300": preset_with("octalin", "system", "field_B", 1e300),
    "g1 1e300": preset_with("octalin", "system", "g1", 1e300),
    # the unconfigured regime is validated too: --field high runs it
    "high T2 > 2 T1, zero configured": preset_with(
        "octalin", "system", "relaxation", "high", {"T1": 4.0, "T2": 9.0}),
    "zero T1 nan": preset_with("octalin", "system", "relaxation", "zero", "T1", math.nan),
    "finite T1, T2 inf": preset_with("octalin", "system", "relaxation", "high",
                                     {"T1": 5.0, "T2": ".inf"}),
    "echo start < 0": echo_with("time_grid", {"start": -1.0, "end": 1.0, "step": 0.5}),
    # relaxing over a negative elapsed time would amplify coherences
    "kraus start < 0": dict(preset_with("octalin", "noise_method", "kraus"),
                            time_grid={"start": -3.0, "end": 1.0, "step": 1.0}),
    "per-gate start < 0": dict(preset_with("octalin", "noise_method", "per-gate"),
                               time_grid={"start": -3.0, "end": 1.0, "step": 1.0}),
    "hardware T1_us -5": echo_with("hardware", {"T1_us": -5}),
    "hardware identity_ns 0": echo_with("hardware", {"identity_ns": 0}),
    "hardware T2_us > 2 T1_us": echo_with("hardware", {"T1_us": 10, "T2_us": 30}),
    "hardware drift nan": echo_with("hardware", {"drift_phase_rate": math.nan}),
    "hardware three drifts": echo_with("hardware", {"drift_phase_rate": [0.1, 0.2, 0.3]}),
    "hardware u_circuit_ns inf": echo_with("hardware", {"u_circuit_ns": math.inf}),
    # the reference run decays fully: the statistics correction has no solution
    "hardware noise unrecoverable": echo_with("hardware", UNRECOVERABLE_HARDWARE),
    # (T1_ns + T2_ns) / 2 overflows, and so does the identity-gate count of the longest echo run
    "hardware T1_us + T2_us overflow": echo_with("hardware", {"T1_us": 1e305, "T2_us": 1e305}),
    # a finite identity-gate count whose total delay overflows
    "hardware delay overflow": echo_with("hardware", {"T1_us": 1e305, "T2_us": 1e304}),
    # a misspelt key of any mapping is refused, not replaced by its default
    "unknown key in system": preset_with("octalin", "system", "field", 0.3),
    "unknown key in a group": preset_with("octalin", "system", "groups", 0, "hfc", 2.49),
    "unknown key in relaxation": preset_with("octalin", "system", "relaxation", "low", {}),
    "unknown key in zero relaxation": preset_with("octalin", "system", "relaxation", "zero",
                                                  "T_1", 9.0),
    "unknown key in high relaxation": preset_with("octalin", "system", "relaxation", "high",
                                                  "T_2", 9.0),
    "unknown key in time_grid": preset_with("octalin", "time_grid", "stop", 20.0),
    "unknown key in postprocess": preset_with("octalin", "postprocess", "tauf", 1.2),
    "unknown key in hardware": preset_with("octalin", "hardware", {"T1us": 100.0}),
    # a number given twice, or as a YAML boolean, is refused, not silently picked or read as 1
    "hfc_mT and hfc_G": preset_with("octalin", "system", "groups", 0, "hfc_mT", 2.49),
    "count true": preset_with("octalin", "system", "groups", 0, "count", True),
    "hfc_mT true": preset_with("octalin", "system", "groups", 0, {"count": 8, "hfc_mT": True}),
    "g1 true": preset_with("octalin", "system", "g1", True),
    "grid step true": preset_with("octalin", "time_grid", "step", True),
}


TRMFE_BAD_GRIDS = {
    # min(tau_f, t_g)/4 = 0.25 ns for the octalin preset
    "step above the kernel limit": preset_with(
        "octalin", "time_grid", {"start": 0.0, "end": 10.0, "step": 0.5}),
    "one point": preset_with("octalin", "time_grid", {"start": 0.0, "end": 0.0, "step": 0.1}),
    "t + t0 <= 0": dict(preset_with("octalin", "noise_method", "none"),
                        time_grid={"start": -5.0, "end": 5.0, "step": 0.1}),
}


class TestCli:
    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        r1 = run_cli("simulate", "--preset", "octalin", "--field", "zero",
                     "--out", str(out1))
        r2 = run_cli("simulate", "--preset", "octalin", "--field", "zero",
                     "--out", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_single_row_grid(self, tmp_path):
        cfgfile = tmp_path / "tiny.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "system": {"groups": [{"count": 8, "hfc_mT": 2.49}],
                       "relaxation": {"zero": {"T1": 9.0, "T2": 9.0}}},
            "time_grid": {"start": 0.0, "end": 0.0, "step": 0.1},
            "noise_method": "none",
        }))
        out = tmp_path / "one.csv"
        r = run_cli("simulate", "--config", str(cfgfile), "--out", str(out))
        assert r.returncode == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2  # header + single data row
        t, s = rows[1].split(",")
        assert float(t) == 0.0 and float(s) == pytest.approx(1.0)

    def test_pure_sector_initial_state(self, tmp_path):
        cfgfile = tmp_path / "sector.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "system": {"groups": [{"count": 8, "hfc_mT": 2.49}],
                       "relaxation": {"zero": {"T1": 9.0, "T2": 9.0}}},
            "time_grid": {"start": 0.0, "end": 2.0, "step": 1.0},
            "initial_state": "0,0",
            "noise_method": "none",
        }))
        out = tmp_path / "sector.csv"
        r = run_cli("simulate", "--config", str(cfgfile), "--out", str(out))
        assert r.returncode == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        vals = [float(row.split(",")[1]) for row in rows[1:]]
        assert vals == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)  # I=0 sector is flat

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("system: {groups: [{count: 8}]}\n")
        r = run_cli("simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 1
        assert "hfc" in r.stderr

    @pytest.mark.parametrize("preset, group, system", [("octalin", 0, "one"), ("dmb", 1, "two")])
    def test_count_above_the_cap_exits_1_on_one_line(self, tmp_path, preset, group, system):
        cap = MAX_COUNT[group]
        at_cap = preset_with(preset, "system", "groups", group, "count", cap)
        assert parse_config(at_cap).groups[group].count == cap
        cfgfile = tmp_path / "big.yaml"
        cfgfile.write_text(yaml.safe_dump(
            preset_with(preset, "system", "groups", group, "count", cap + 1)))
        out = tmp_path / "x.csv"
        r = run_cli("trmfe", "--config", str(cfgfile), "--out", str(out))
        assert r.returncode == 1 and not out.exists()
        assert r.stderr == (f"configuration error: {cfgfile}.system.groups[{group}].count: "
                            f"{cap + 1} nuclei; at most {cap} allowed in a {system}-group system\n")

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_1_without_traceback(self, tmp_path, case):
        cfgfile = tmp_path / "bad.yaml"
        cfgfile.write_text(yaml.safe_dump(BAD_CONFIGS[case]))
        out = tmp_path / "x.csv"
        r = run_cli("simulate", "--config", str(cfgfile), "--field", "high", "--out", str(out))
        assert r.returncode == 1
        assert r.stderr.startswith(f"configuration error: {cfgfile}")
        assert "Traceback" not in r.stderr
        assert r.stderr.count("\n") == 1 and "Warning" not in r.stderr
        assert not out.exists()

    def test_drift_phase_rate_changes_only_the_config_hash(self, tmp_path):
        # the echo pulses cancel the drift phase, so even one that overflows is no error
        lines = {}
        for rate in (1e306, 0.0):
            cfgfile, out = tmp_path / f"{rate}.yaml", tmp_path / f"{rate}.csv"
            cfgfile.write_text(yaml.safe_dump(echo_with("hardware", {"drift_phase_rate": rate})))
            assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out)) == (0, [])
            lines[rate] = out.read_text().splitlines()
        changed = [a for a, b in zip(*lines.values()) if a != b]
        assert len(lines[0.0]) == len(lines[1e306]) and len(changed) == 1
        assert changed[0].startswith("# config_sha256: ")

    def test_malformed_yaml_exits_1_on_one_line(self, tmp_path):
        cfgfile, out = tmp_path / "bad.yaml", tmp_path / "x.csv"
        cfgfile.write_text("system: [1, 2\n")
        r = run_cli("simulate", "--config", str(cfgfile), "--out", str(out))
        assert r.returncode == 1
        assert re.fullmatch(f"configuration error: {re.escape(str(cfgfile))}: "
                            r"line 2, column 1: [^\n]+\n", r.stderr), r.stderr
        assert not out.exists()

    def test_unrecoverable_hardware_noise_exits_1(self, tmp_path):
        # the echo-octalin benchmark workload on a qubit with 1 ns T1 and T2
        doc = dict(echo_with("time_grid", {"start": 0.0, "end": 25.0, "step": 0.25}),
                   hardware=UNRECOVERABLE_HARDWARE)
        cfgfile, out = tmp_path / "strong.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        r = run_cli("trmfe", "--config", str(cfgfile), "--out", str(out))
        assert r.returncode == 1
        assert re.fullmatch(f"configuration error: {re.escape(str(cfgfile))}.hardware: "
                            r"unrecoverable noise level: correction denominators "
                            r"\([^)]+\) below floor 1e-06\n", r.stderr), r.stderr
        assert not out.exists()

    def test_echo_synthetic_near_the_correction_floor(self, tmp_path):
        # 1 - 4 T+' = 1.2e-6 passes the floor; the corrected T+- of the damped run grow
        # like <Z1 + Z2>/(4 g_u), yet S is the target channel on the evolved pair
        doc = echo_with("hardware", {"T1_us": 0.1, "T2_us": 0.2, "u_circuit_ns": 680})
        cfgfile, sim, ratio = tmp_path / "floor.yaml", tmp_path / "s.csv", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(sim)) == (0, [])
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(ratio)) == (0, [])
        config = load_config_file(str(cfgfile))
        hw, times = config.hardware, time_grid(*config.time_grid)
        want = {}
        for regime in ("zero", "high"):
            spec = config.spin_spec(regime)
            elapsed, T1, T2 = times, spec.T1, spec.T2
            if math.isfinite(spec.T1):  # the echo-delay runs on the hardware qubit
                rate = (hw.T1_ns + hw.T2_ns) / 2 / ((T1 + T2) / 2 * hw.identity_ns)
                elapsed, T1, T2 = rate * times // 8 * 8 * hw.identity_ns, hw.T1_ns, hw.T2_ns
            traj = one_group_pair_trace(spec, regime, times).trajectory
            want[regime] = singlet_values(relax_pair_trajectory(traj, elapsed, T1, T2))
        for path, column, regime in ((sim, "singlet_probability", "zero"),
                                     (ratio, "S_0", "zero"), (ratio, "S_B", "high")):
            header, values = csv_columns(path)
            got = dict(zip(header, values.T))
            assert np.all((got[column] >= 0) & (got[column] <= 1)), column
            mask = np.isin(times, got["time_ns"])
            assert np.abs(got[column] - want[regime][mask]).max() <= 1e-12, column

    @pytest.mark.parametrize("case", sorted(TRMFE_BAD_GRIDS))
    def test_trmfe_bad_grid_exits_1_before_simulating(self, tmp_path, monkeypatch, case):
        from qbeats import cli

        cfgfile, out = tmp_path / "grid.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(TRMFE_BAD_GRIDS[case]))
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(out)) == (0, [])
        out.unlink()
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated first"))
        code, err = run_main("trmfe", "--config", str(cfgfile), "--out", str(out))
        assert code == 1 and len(err) == 1, err
        assert err[0].startswith(f"configuration error: {cfgfile}.time_grid: ")
        assert not out.exists()

    def test_trmfe_zero_denominator_exits_1(self, tmp_path):
        # (t + t0)^(-3/2) underflows to 0 on the whole grid: I_0 is 0 everywhere
        doc = dict(preset_with("octalin", "time_grid",
                               {"start": 1e250, "end": 1e250 + 1e247, "step": 1e246}),
                   postprocess={"theta": 0.35, "tau_f": 1e300, "t0": 1.0, "t_g": 1e300})
        cfgfile, out = tmp_path / "far.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out)) == (1, [
            f"configuration error: {cfgfile}.time_grid: denominator underflow across the "
            "whole grid"])
        assert not out.exists()

    def test_trmfe_intensity_overflow_exits_2(self, tmp_path):
        doc = dict(preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 0.1}),
                   postprocess={"theta": 0.35, "tau_f": 1.2, "t0": 1e-300, "t_g": 1.0})
        cfgfile, out = tmp_path / "t0.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        code, err = run_main("trmfe", "--config", str(cfgfile), "--out", str(out))
        assert code == 2 and len(err) == 1 and err[0].startswith("numerical error: ")
        assert not out.exists()

    def test_trmfe_columns_are_the_separate_postprocess_calls(self, tmp_path):
        doc = preset_with("octalin", "time_grid", {"start": 0.0, "end": 30.0, "step": 0.05})
        cfgfile, out = tmp_path / "r.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out)) == (0, [])
        header, values = csv_columns(out)
        got = dict(zip(header, values.T))
        config = load_config_file(str(cfgfile))
        s_b, s_0 = simulate(config, "high").trace, simulate(config, "zero").trace
        ratio = observed_ratio(s_b, s_0, config.postprocess)
        mask = np.isin(s_b.times, ratio.times)
        want = {"time_ns": ratio.times, "ratio": ratio.values,
                "I_B": observed_intensity(s_b, config.postprocess).values[mask],
                "I_0": observed_intensity(s_0, config.postprocess).values[mask],
                "S_B": s_b.values[mask], "S_0": s_0.values[mask]}
        assert header == list(want)
        for name, column in want.items():
            assert np.array_equal(got[name], column), name  # '%.17g' round-trips exactly

    @pytest.mark.parametrize("bad", [math.nan, 1.5])
    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch, bad):
        from qbeats import cli, pipeline

        monkeypatch.setattr(pipeline, "relaxed_singlet",
                            lambda spectrum, times, *channel: np.full(len(times), bad))
        cfgfile = tmp_path / "tiny.yaml"
        cfgfile.write_text(yaml.safe_dump(dict(
            preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 1.0}),
            noise_method="none")))
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--config", str(cfgfile), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_validate_unknown_suite(self):
        r = run_cli("validate", "--suite", "nonsense")
        assert r.returncode == 1
        assert "available" in r.stderr

    def test_validate_tables_suite(self):
        r = run_cli("validate", "--suite", "tables")
        assert r.returncode == 0
        assert "[PASS]" in r.stdout and "[FAIL]" not in r.stdout

    def test_compare_reports_rms(self, tmp_path):
        ref = tmp_path / "ref.csv"
        ref.write_text("time_ns,value\n0,1.0\n1,1.0\n2,1.0\n")
        cfgfile = tmp_path / "flat.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "system": {"groups": [{"count": 8, "hfc_mT": 2.49}],
                       "relaxation": {"zero": {"T1": 9.0, "T2": 9.0}}},
            "time_grid": {"start": 0.0, "end": 2.0, "step": 1.0},
            "initial_state": "0,0",   # flat S(t) = 1 sector
            "noise_method": "none",
        }))
        out = tmp_path / "cmp.csv"
        r = run_cli("simulate", "--config", str(cfgfile), "--out", str(out),
                    "--compare", str(ref))
        assert r.returncode == 0
        assert "RMS deviation" in r.stdout
        rms_line = [l for l in out.read_text().splitlines()
                    if l.startswith("# rms_vs_reference")][0]
        assert float(rms_line.split(":")[1].split("(")[0]) < 1e-9

    def test_missing_config_file_exits_1(self, tmp_path):
        missing = tmp_path / "missing.yaml"
        r = run_cli("simulate", "--config", str(missing), "--out", str(tmp_path / "x.csv"))
        assert r.returncode == 1
        assert r.stderr == f"configuration error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["simulate", "trmfe"])
    def test_out_in_missing_directory_exits_1_before_simulating(self, tmp_path, monkeypatch,
                                                                 command):
        from qbeats import cli

        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated first"))
        out = tmp_path / "nowhere" / "x.csv"
        assert run_main(command, "--preset", "octalin", "--out", str(out)) == (1, [
            f"configuration error: {out}: directory '{out.parent}' does not exist"])

    @pytest.mark.parametrize("case", sorted(BAD_REFERENCES))
    def test_bad_compare_file_exits_1_before_simulating(self, tmp_path, monkeypatch, case):
        from qbeats import cli

        text, reason = BAD_REFERENCES[case]
        ref, out = tmp_path / "ref.csv", tmp_path / "x.csv"
        if text is not None:
            ref.write_text(text)
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated first"))
        assert run_main("simulate", "--preset", "octalin", "--out", str(out),
                        "--compare", str(ref)) == (1, [f"configuration error: {ref}: {reason}"])
        assert not out.exists()

    def test_trmfe_smoke(self, tmp_path):
        cfgfile = tmp_path / "small.yaml"
        cfgfile.write_text(yaml.safe_dump({
            "system": {"groups": [{"count": 8, "hfc_mT": 2.49}],
                       "field_B": 0.3,
                       "relaxation": {"zero": {"T1": 9.0, "T2": 9.0},
                                      "high": {"T1": ".inf", "T2": 9.0}}},
            "time_grid": {"start": 0.0, "end": 30.0, "step": 0.1},
            "postprocess": {"theta": 0.35, "tau_f": 1.2, "t0": 1.0, "t_g": 1.0},
        }))
        out = tmp_path / "ratio.csv"
        r = run_cli("trmfe", "--config", str(cfgfile), "--out", str(out))
        assert r.returncode == 0
        header = [l for l in out.read_text().splitlines() if l.startswith("time_ns")]
        assert header[0] == "time_ns,ratio,I_B,I_0,S_B,S_0"


ORACLE_MODULES = {"backends", "circuits", "library", "kak", "noisemethods", "validate"}
LOADED_AFTER = """
import contextlib, io, json, sys
from qbeats import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_simulate_and_trmfe_never_load_the_gate_level_oracle(tmp_path):
    # every noise method reads one both-site channel: the circuit layer, the density
    # backend and the validation suites load only for the tests and ``validate``
    commands = []
    for name in ("octalin", "dmb"):
        for method in ("none", "kraus", "per-gate", "echo-synthetic"):
            cfgfile, out = tmp_path / f"{name}-{method}.yaml", str(tmp_path / "out.csv")
            cfgfile.write_text(yaml.safe_dump(preset_with(name, "noise_method", method)))
            commands.append(["trmfe", "--config", str(cfgfile), "--out", out])
            commands += [["simulate", "--sectors", "--field", field, "--config", str(cfgfile),
                          "--out", out] for field in ("zero", "high")]
    r = subprocess.run([sys.executable, "-c", LOADED_AFTER, json.dumps(commands)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = {k.split(".", 1)[1] for k in json.loads(r.stdout) if k.startswith("qbeats.")}
    assert "pipeline" in loaded and not loaded & ORACLE_MODULES, sorted(loaded)


def run_main(*argv):
    """``cli.main`` in-process: (exit code, stderr lines).

    A warning counts as the stderr line it would print from the command line.
    """
    from qbeats import cli

    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def csv_columns(path):
    """Header names and (rows, columns) values of a qbeats CSV."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    values = np.array([[float(x) for x in l.split(",")] for l in lines[1:]]).reshape(
        len(lines) - 1, -1)
    return lines[0].split(","), values


NASTY = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, 1e307]
TIMES = st.one_of(st.sampled_from(NASTY + [".inf"]), st.floats(0.5, 5e3))
POST = st.one_of(st.sampled_from(NASTY), st.floats(0.01, 50.0))
HARDWARE = st.one_of(st.sampled_from(NASTY + [1e-3, [0.1, 0.2, 0.3]]), st.floats(0.0, 1e3))


@st.composite
def configs(draw):
    """A preset document; its grid, relaxation times, postprocess and hardware blocks
    are each either sane or drawn from extreme and invalid values."""
    doc = preset_with(draw(st.sampled_from(["octalin", "octalin", "dmb"])), "noise_method",
                      draw(st.sampled_from(["none", "kraus", "per-gate", "echo-synthetic"])))
    wild = st.sampled_from([False, False, True])
    if draw(wild):
        start = draw(st.one_of(st.sampled_from([-2.0, 1e250, math.nan, math.inf]),
                               st.floats(0.0, 1e3)))
        step = draw(st.one_of(st.sampled_from(NASTY + [1e246]), st.floats(1e-3, 2.0)))
    else:
        start, step = draw(st.sampled_from([0.0, 0.5])), draw(st.floats(0.005, 0.25))
    k = draw(st.integers(-1, 49))  # at most 50 grid points
    doc["time_grid"] = {"start": start, "end": start + k * step, "step": step}
    for regime in ("zero", "high"):
        if draw(wild):
            doc["system"]["relaxation"][regime] = {"T1": draw(TIMES), "T2": draw(TIMES)}
    if draw(wild):
        doc["postprocess"] = {"theta": draw(st.one_of(st.sampled_from([-0.1, 1.5, math.nan]),
                                                      st.floats(0.0, 1.0))),
                              "tau_f": draw(POST), "t0": draw(POST), "t_g": draw(POST)}
    if draw(wild):
        doc["hardware"] = {key: draw(HARDWARE) for key in
                           ("T1_us", "T2_us", "identity_ns", "u_circuit_ns", "drift_phase_rate")}
    elif draw(st.booleans()):
        doc["hardware"] = {"T1_us": draw(st.floats(50.0, 200.0)),
                           "T2_us": draw(st.floats(20.0, 100.0)),
                           "identity_ns": draw(st.floats(10.0, 100.0)),
                           "u_circuit_ns": draw(st.floats(0.0, 1000.0)),
                           "drift_phase_rate": draw(st.floats(-0.01, 0.01))}
    return doc


class TestCliContract:
    """Whatever the configuration: exit 0, 1 or 2, at most one stderr line and no
    traceback, no CSV unless exit 0, no NaN in a written CSV; per-gate equals kraus."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=configs(), command=st.sampled_from(["simulate", "trmfe"]),
           field=st.sampled_from(["zero", "high"]))
    def test_exit_codes_stderr_and_csv(self, tmp_path_factory, doc, command, field):
        tmp = tmp_path_factory.mktemp("contract")
        cfgfile, out = tmp / "c.yaml", tmp / "out.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        extra = ["--field", field] if command == "simulate" else []
        code, err = run_main(command, "--config", str(cfgfile), "--out", str(out), *extra)
        assert code in (0, 1, 2)
        assert len(err) <= 1 and not any("Traceback" in line for line in err), err
        assert out.exists() == (code == 0)
        if code:
            return
        header, values = csv_columns(out)
        assert not np.isnan(values).any()
        if doc["noise_method"] in ("kraus", "per-gate"):
            other = "per-gate" if doc["noise_method"] == "kraus" else "kraus"
            cfgfile.write_text(yaml.safe_dump(dict(doc, noise_method=other)))
            out2 = tmp / "other.csv"
            assert run_main(command, "--config", str(cfgfile), "--out", str(out2),
                            *extra) == (0, [])
            header2, values2 = csv_columns(out2)
            probability = [i for i, name in enumerate(header)
                           if name in ("singlet_probability", "S_B", "S_0")]
            assert header2 == header
            assert np.abs(values2[:, probability] - values[:, probability]).max(
                initial=0.0) <= 1e-12


def per_cell_csv(path, columns, meta):
    """The former writer, one f-string per cell: the oracle of ``write_csv``."""
    keys = list(columns)
    n = len(next(iter(columns.values())))
    with open(path, "w") as fh:
        fh.write(f"# qbeats {__version__}\n")
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(",".join(keys) + "\n")
        for i in range(n):
            fh.write(",".join(f"{columns[k][i]:.17g}" for k in keys) + "\n")


SPECIAL_FLOATS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
                           -3.7e-320, 1e300, -1e300, 1.7976931348623157e308, 1.0, -1.0, 3.0,
                           -42.0, 2.0 ** 53, 1e16, 1e22, 0.1, 1 / 3, np.nextafter(1.0, 2.0)])


@pytest.mark.parametrize("n_columns", [1, 6])
@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
def test_write_csv_is_byte_identical_to_the_per_cell_writer(tmp_path, rows, n_columns):
    rng = np.random.default_rng(1000 * n_columns + rows)
    pool = np.concatenate([SPECIAL_FLOATS, rng.normal(size=200),
                           rng.normal(size=200) * 10.0 ** rng.integers(-320, 300, 200)])
    columns = {f"c{i}": rng.choice(pool, rows) for i in range(n_columns)}
    meta = {"command": "test", "rows": rows}
    write_csv(str(tmp_path / "block.csv"), columns, meta)
    per_cell_csv(tmp_path / "cell.csv", columns, meta)
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()
