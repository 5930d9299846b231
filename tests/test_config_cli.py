import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from qbeats.config import (
    ConfigError,
    dump_config,
    load_preset,
    parse_config,
)

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

    def test_round_trip_is_semantically_idempotent(self):
        cfg = load_preset("octalin")
        again = parse_config(yaml.safe_load(dump_config(cfg)), name="octalin")
        assert again.canonical() == cfg.canonical()
        assert again.digest() == cfg.digest()


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

    @pytest.mark.parametrize("bad", [math.nan, 1.5])
    def test_numerical_failure_exits_2(self, tmp_path, capsys, monkeypatch, bad):
        from qbeats import cli, pipeline

        monkeypatch.setattr(pipeline, "singlet_values", lambda traj: np.full(len(traj), bad))
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
