import contextlib
import copy
import decimal
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from qbeats import __version__
from qbeats.cli import (CSV_BLOCK_CELLS, EXP_MAX, _layout, _pow10, _significands,
                        format_rows, write_csv)
from qbeats.config import (
    MAX_COUNT,
    YAML_LOADER,
    ConfigError,
    load_config_file,
    load_preset,
    parse_config,
)
from qbeats.dynamics import time_grid
from qbeats.pipeline import one_group_spectrum, simulate
from qbeats.postprocess import observed_ratio
from qbeats.relaxation import relaxed_singlet


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

    @pytest.mark.parametrize("preset, digest", [("octalin", "a6ed9451e4dc158c"),
                                                ("dmb", "7ef3bd1a1d3ff9d5")])
    def test_preset_digest_is_pinned(self, preset, digest):
        # the config_sha256 header line of every CSV the preset produces
        assert load_preset(preset).digest() == digest

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


DIRECTORY = object()  # an input path that names a directory


def make_input(path, content):
    """Put ``content`` at ``path``: text, bytes or a directory; ``None`` leaves no file."""
    if content is DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)


# input files that cannot be read as text: (content, reason printed)
UNREADABLE_FILES = {
    "missing": (None, "No such file or directory"),
    "directory": (DIRECTORY, "Is a directory"),
    "not UTF-8": (b"0,1.0\n1,\xff\n", "not a text file"),
}

# --compare files that must be refused: (content, reason printed)
BAD_REFERENCES = {
    **UNREADABLE_FILES,
    "one column": ("time_ns,value\n0,1.0\n1\n", "line 3: expected 'time, value', got '1'"),
    "not a number": ("0,1.0\n1,one\n", "line 2: expected 'time, value', got '1,one'"),
    "nan": ("0,1.0\n1,nan\n2,1.0\n", "line 2: non-finite value in '1,nan'"),
    "nan time": ("0,1.0\nnan,0.5\n2,1.0\n", "line 2: non-finite value in 'nan,0.5'"),
    "inf time": ("0,1.0\n1,0.5\ninf,0.2\n", "line 3: non-finite value in 'inf,0.2'"),
    "one row": ("time_ns,value\n0,1.0\n", "need at least two (time, value) rows"),
}


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

# refused configurations: (the dotted path that the error names, document)
BAD_CONFIGS = {
    "count 0": ("system.groups[0]", preset_with("octalin", "system", "groups", 0, "count", 0)),
    "small group of 3": ("system.groups[0].count",
                         preset_with("dmb", "system", "groups", 0, "count", 3)),
    "no such I": ("initial_state", preset_with("octalin", "initial_state", "5,5")),
    "m of the wrong parity": ("initial_state", preset_with("octalin", "initial_state", "1,0.5")),
    "not a state": ("initial_state", preset_with("octalin", "initial_state", "up")),
    "two-group pure state": ("initial_state", preset_with("dmb", "initial_state", "1,1")),
    "echo with m != I": ("initial_state", dict(preset_with("octalin", "initial_state", "2,1"),
                                               noise_method="echo-synthetic")),
    "field_B nan": ("system.field_B", preset_with("octalin", "system", "field_B", math.nan)),
    "g1 nan": ("system.g1", preset_with("octalin", "system", "g1", math.nan)),
    "g2 inf": ("system.g2", preset_with("octalin", "system", "g2", math.inf)),
    "hfc nan": ("system.groups[0].hfc_G",
                preset_with("octalin", "system", "groups", 0, "hfc_G", math.nan)),
    "grid end inf": ("time_grid.end", preset_with("octalin", "time_grid", "end", math.inf)),
    "grid step 1e-300": ("time_grid.step", preset_with("octalin", "time_grid", "step", 1e-300)),
    # the step is below the float spacing at 1e15 ns, so grid points repeat
    "grid step below the spacing of its times": ("time_grid.step", preset_with(
        "octalin", "time_grid", {"start": 1e15, "end": 1e15 + 100, "step": 0.1})),
    "field_B 1e300": ("system", preset_with("octalin", "system", "field_B", 1e300)),
    "g1 1e300": ("system", preset_with("octalin", "system", "g1", 1e300)),
    # the unconfigured regime is validated too: --field high runs it
    "high T2 > 2 T1, zero configured": ("system.relaxation.high", preset_with(
        "octalin", "system", "relaxation", "high", {"T1": 4.0, "T2": 9.0})),
    "zero T1 nan": ("system.relaxation.zero",
                    preset_with("octalin", "system", "relaxation", "zero", "T1", math.nan)),
    "finite T1, T2 inf": ("system.relaxation.high", preset_with(
        "octalin", "system", "relaxation", "high", {"T1": 5.0, "T2": ".inf"})),
    "echo start < 0": ("time_grid.start",
                       echo_with("time_grid", {"start": -1.0, "end": 1.0, "step": 0.5})),
    # relaxing over a negative elapsed time would amplify coherences
    "kraus start < 0": ("time_grid.start", dict(preset_with("octalin", "noise_method", "kraus"),
                                                time_grid={"start": -3.0, "end": 1.0,
                                                           "step": 1.0})),
    "per-gate start < 0": ("time_grid.start",
                           dict(preset_with("octalin", "noise_method", "per-gate"),
                                time_grid={"start": -3.0, "end": 1.0, "step": 1.0})),
    "hardware T1_us -5": ("hardware.T1_us", echo_with("hardware", {"T1_us": -5})),
    "hardware identity_ns 0": ("hardware.identity_ns", echo_with("hardware", {"identity_ns": 0})),
    "hardware T2_us > 2 T1_us": ("hardware.T2_us",
                                 echo_with("hardware", {"T1_us": 10, "T2_us": 30})),
    "hardware drift nan": ("hardware.drift_phase_rate",
                           echo_with("hardware", {"drift_phase_rate": math.nan})),
    "hardware three drifts": ("hardware.drift_phase_rate",
                              echo_with("hardware", {"drift_phase_rate": [0.1, 0.2, 0.3]})),
    "hardware u_circuit_ns inf": ("hardware.u_circuit_ns",
                                  echo_with("hardware", {"u_circuit_ns": math.inf})),
    # the reference run decays fully: the statistics correction has no solution
    "hardware noise unrecoverable": ("hardware", echo_with("hardware", UNRECOVERABLE_HARDWARE)),
    # (T1_ns + T2_ns) / 2 overflows, and so does the identity-gate count of the longest echo run
    "hardware T1_us + T2_us overflow": ("hardware",
                                        echo_with("hardware", {"T1_us": 1e305, "T2_us": 1e305})),
    # a finite identity-gate count whose total delay overflows
    "hardware delay overflow": ("hardware",
                                echo_with("hardware", {"T1_us": 1e305, "T2_us": 1e304})),
    # a misspelt key of any mapping is refused, not replaced by its default
    "unknown key in system": ("system.field", preset_with("octalin", "system", "field", 0.3)),
    "unknown key in a group": ("system.groups[0].hfc",
                               preset_with("octalin", "system", "groups", 0, "hfc", 2.49)),
    "unknown key in relaxation": ("system.relaxation.low",
                                  preset_with("octalin", "system", "relaxation", "low", {})),
    "unknown key in zero relaxation": ("system.relaxation.zero.T_1", preset_with(
        "octalin", "system", "relaxation", "zero", "T_1", 9.0)),
    "unknown key in high relaxation": ("system.relaxation.high.T_2", preset_with(
        "octalin", "system", "relaxation", "high", "T_2", 9.0)),
    "unknown key in time_grid": ("time_grid.stop",
                                 preset_with("octalin", "time_grid", "stop", 20.0)),
    # the reason of a refused FluorescenceParams names its key
    "postprocess theta 1.5": ("postprocess.theta",
                              preset_with("octalin", "postprocess", "theta", 1.5)),
    "postprocess tau_f 0": ("postprocess.tau_f", preset_with("octalin", "postprocess", "tau_f", 0)),
    "postprocess t0 -1": ("postprocess.t0", preset_with("octalin", "postprocess", "t0", -1)),
    "postprocess t_g inf": ("postprocess.t_g",
                            preset_with("octalin", "postprocess", "t_g", math.inf)),
    "unknown key in postprocess": ("postprocess.tauf",
                                   preset_with("octalin", "postprocess", "tauf", 1.2)),
    "unknown key in hardware": ("hardware.T1us",
                                preset_with("octalin", "hardware", {"T1us": 100.0})),
    # a number given twice, or as a YAML boolean, is refused, not silently picked or read as 1
    "hfc_mT and hfc_G": ("system.groups[0]",
                         preset_with("octalin", "system", "groups", 0, "hfc_mT", 2.49)),
    "count true": ("system.groups[0]",
                   preset_with("octalin", "system", "groups", 0, "count", True)),
    "hfc_mT true": ("system.groups[0].hfc_mT", preset_with(
        "octalin", "system", "groups", 0, {"count": 8, "hfc_mT": True})),
    "g1 true": ("system.g1", preset_with("octalin", "system", "g1", True)),
    "grid step true": ("time_grid.step", preset_with("octalin", "time_grid", "step", True)),
}


TRMFE_BAD_GRIDS = {
    # min(tau_f, t_g)/4 = 0.25 ns for the octalin preset
    "step above the kernel limit": preset_with(
        "octalin", "time_grid", {"start": 0.0, "end": 10.0, "step": 0.5}),
    "one point": preset_with("octalin", "time_grid", {"start": 0.0, "end": 0.0, "step": 0.1}),
    # increasing points, but the float spacing at 1e15 ns makes their steps differ
    "non-uniform at 1e15 ns": preset_with(
        "octalin", "time_grid", {"start": 1e15, "end": 1e15 + 100, "step": 0.3}),
    "t + t0 <= 0": dict(preset_with("octalin", "noise_method", "none"),
                        time_grid={"start": -5.0, "end": 5.0, "step": 0.1}),
}


BREAKS = "two\nlines\r\x0b\x0c\x1c\x1d\x1e\x85"  # each ends a line for str.splitlines


class TestCli:
    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main("simulate", "--preset", "octalin", "--field", "zero",
                        "--out", str(out1))[:2] == (0, [])
        assert run_main("simulate", "--preset", "octalin", "--field", "zero",
                        "--out", str(out2))[:2] == (0, [])
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
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(out))[:2] == (0, [])
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
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(out))[:2] == (0, [])
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        vals = [float(row.split(",")[1]) for row in rows[1:]]
        assert vals == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)  # I=0 sector is flat

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("system: {groups: [{count: 8}]}\n")
        code, err, _ = run_main("simulate", "--config", str(bad), "--out", str(tmp_path / "x.csv"))
        assert code == 1 and len(err) == 1 and "hfc" in err[0], err

    @pytest.mark.parametrize("argv, code, message", [
        (["simulate", "--preset", "nope"], 1, "argument --preset: invalid choice: 'nope'"),
        (["trmfe", "--bogus"], 1, "unrecognized arguments: --bogus"),
        ([], 1, "the following arguments are required: command"),
        (["simulate", "--config", "dmb.yaml", "--preset", "octalin"], 1,
         "argument --preset: not allowed with argument --config"),
        (["--help"], 0, None),
        (["--version"], 0, None),
        (["trmfe", "--help"], 0, None),
    ])
    def test_usage_errors_exit_1(self, monkeypatch, argv, code, message):
        # exit 2 is kept for numerical failures, so argparse's usage errors exit 1
        from qbeats import cli

        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated"))
        got, err, _ = run_main(*argv)
        assert got == code
        assert f"error: {message}" in err[-1] if message else err == [], err

    def test_sectors_of_a_pure_state_exit_1(self, tmp_path, monkeypatch):
        from qbeats import cli

        cfgfile, out = tmp_path / "pure.yaml", tmp_path / "x.csv"
        cfgfile.write_text(yaml.safe_dump(preset_with("octalin", "initial_state", "2, 1")))
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated"))
        assert run_main("simulate", "--sectors", "--config", str(cfgfile),
                        "--out", str(out))[:2] == (1, [
            f"configuration error: {cfgfile}.initial_state: --sectors splits the mixed "
            "nuclear state; '2, 1' is one pure state"])
        assert not out.exists()

    @pytest.mark.parametrize("preset, group, count, spins", [
        ("octalin", 0, 7, "I=7/2,I=5/2,I=3/2,I=1/2"),
        ("dmb", 1, 12, "I2=6,I2=5,I2=4,I2=3,I2=2,I2=1,I2=0")])
    def test_sectors_header_names_each_spin(self, tmp_path, preset, group, count, spins):
        cfgfile, out = tmp_path / "sectors.yaml", tmp_path / "s.csv"
        cfgfile.write_text(yaml.safe_dump(preset_with(preset, "system", "groups", group,
                                                      "count", count)))
        assert run_main("simulate", "--sectors", "--config", str(cfgfile),
                        "--out", str(out))[0] == 0
        header = next(line for line in out.read_text().splitlines() if line[0] != "#")
        assert header == f"time_ns,singlet_probability,{spins}"

    @pytest.mark.parametrize("preset, group, system", [("octalin", 0, "one"), ("dmb", 1, "two")])
    def test_count_above_the_cap_exits_1_on_one_line(self, tmp_path, preset, group, system):
        cap = MAX_COUNT[group]
        at_cap = preset_with(preset, "system", "groups", group, "count", cap)
        assert parse_config(at_cap).groups[group].count == cap
        cfgfile = tmp_path / "big.yaml"
        cfgfile.write_text(yaml.safe_dump(
            preset_with(preset, "system", "groups", group, "count", cap + 1)))
        out = tmp_path / "x.csv"
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out))[:2] == (1, [
            f"configuration error: {cfgfile}.system.groups[{group}].count: "
            f"{cap + 1} nuclei; at most {cap} allowed in a {system}-group system"])
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_1_without_traceback(self, tmp_path, case):
        cfgfile = tmp_path / "bad.yaml"
        path, doc = BAD_CONFIGS[case]
        cfgfile.write_text(yaml.safe_dump(doc))
        out = tmp_path / "x.csv"
        code, err, _ = run_main("simulate", "--config", str(cfgfile), "--field", "high",
                                "--out", str(out))
        assert code == 1 and len(err) == 1, err
        # the path once: a ConfigError re-raised under its mapping would repeat it
        assert err[0].startswith(f"configuration error: {cfgfile}.{path}: "), err
        assert not out.exists()

    def test_drift_phase_rate_changes_only_the_config_hash(self, tmp_path):
        # the echo pulses cancel the drift phase, so even one that overflows is no error
        lines = {}
        for rate in (1e306, 0.0):
            cfgfile, out = tmp_path / f"{rate}.yaml", tmp_path / f"{rate}.csv"
            cfgfile.write_text(yaml.safe_dump(echo_with("hardware", {"drift_phase_rate": rate})))
            assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out))[:2] == (0, [])
            lines[rate] = out.read_text().splitlines()
        changed = [a for a, b in zip(*lines.values()) if a != b]
        assert len(lines[0.0]) == len(lines[1e306]) and len(changed) == 1
        assert changed[0].startswith("# config_sha256: ")

    def test_malformed_yaml_exits_1_on_one_line(self, tmp_path):
        cfgfile, out = tmp_path / "bad.yaml", tmp_path / "x.csv"
        cfgfile.write_text("system: [1, 2\n")
        code, err, _ = run_main("simulate", "--config", str(cfgfile), "--out", str(out))
        assert code == 1 and len(err) == 1, err
        assert re.fullmatch(f"configuration error: {re.escape(str(cfgfile))}: "
                            r"line 2, column 1: .+", err[0]), err
        assert not out.exists()

    def test_yaml_reader_error_names_the_config_file(self, tmp_path, monkeypatch):
        # libyaml counts the reader's position in UTF-8 bytes, PyYAML in characters
        cfgfile, out = tmp_path / "bell.yaml", tmp_path / "x.csv"
        for loader in {yaml.SafeLoader, YAML_LOADER}:
            monkeypatch.setattr("qbeats.config.YAML_LOADER", loader)
            for text, where in (("system: \a\n", "line 1, column 9"),
                                ("name: é\nsystem: ü\a\n", "line 2, column 10")):
                cfgfile.write_text(text, encoding="utf-8")
                code, err, _ = run_main("simulate", "--config", str(cfgfile), "--out", str(out))
                assert code == 1 and len(err) == 1, err
                assert re.fullmatch(f"configuration error: {re.escape(str(cfgfile))}: {where}: "
                                    "[a-z]+ characters are not allowed", err[0]), (loader, err)
                assert not out.exists()

    def test_trmfe_without_postprocess_names_the_block(self, tmp_path):
        cfgfile, out = tmp_path / "plain.yaml", tmp_path / "x.csv"
        doc = preset_with("octalin", "noise_method", "none")
        del doc["postprocess"]
        cfgfile.write_text(yaml.safe_dump(doc))
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out))[:2] == (1, [
            f"configuration error: {cfgfile}.postprocess: trmfe requires a postprocess block"])
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(UNREADABLE_FILES))
    def test_unreadable_config_file_exits_1(self, tmp_path, case):
        content, reason = UNREADABLE_FILES[case]
        cfgfile, out = tmp_path / "c.yaml", tmp_path / "x.csv"
        make_input(cfgfile, content)
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(out))[:2] == (1, [
            f"configuration error: {cfgfile}: {reason}"])
        assert not out.exists()

    def test_unrecoverable_hardware_noise_exits_1(self, tmp_path):
        # the echo-octalin benchmark workload on a qubit with 1 ns T1 and T2
        doc = dict(echo_with("time_grid", {"start": 0.0, "end": 25.0, "step": 0.25}),
                   hardware=UNRECOVERABLE_HARDWARE)
        cfgfile, out = tmp_path / "strong.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        code, err, _ = run_main("trmfe", "--config", str(cfgfile), "--out", str(out))
        assert code == 1 and len(err) == 1, err
        assert re.fullmatch(f"configuration error: {re.escape(str(cfgfile))}.hardware: "
                            r"unrecoverable noise level: correction denominators "
                            r"\([^)]+\) below floor 1e-06", err[0]), err
        assert not out.exists()

    def test_echo_synthetic_near_the_correction_floor(self, tmp_path):
        # 1 - 4 T+' = 1.2e-6 passes the floor; the corrected T+- of the damped run grow
        # like <Z1 + Z2>/(4 g_u), yet S is the target channel on the evolved pair
        doc = echo_with("hardware", {"T1_us": 0.1, "T2_us": 0.2, "u_circuit_ns": 680})
        cfgfile, sim, ratio = tmp_path / "floor.yaml", tmp_path / "s.csv", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(sim))[:2] == (0, [])
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(ratio))[:2] == (0, [])
        config = load_config_file(str(cfgfile))
        hw, times = config.hardware, time_grid(*config.time_grid)
        want = {}
        for regime in ("zero", "high"):
            spec = config.spin_spec(regime)
            elapsed, T1, T2 = times, spec.T1, spec.T2
            if math.isfinite(spec.T1):  # the echo-delay runs on the hardware qubit
                rate = (hw.T1_ns + hw.T2_ns) / 2 / ((T1 + T2) / 2 * hw.identity_ns)
                elapsed, T1, T2 = rate * times // 8 * 8 * hw.identity_ns, hw.T1_ns, hw.T2_ns
            want[regime] = relaxed_singlet(one_group_spectrum(spec, regime), times, elapsed,
                                           T1, T2)
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
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(out))[:2] == (0, [])
        out.unlink()
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated first"))
        code, err, _ = run_main("trmfe", "--config", str(cfgfile), "--out", str(out))
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
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out))[:2] == (1, [
            f"configuration error: {cfgfile}.time_grid: denominator underflow across the "
            "whole grid"])
        assert not out.exists()

    def test_trmfe_intensity_overflow_exits_2(self, tmp_path):
        # the one run of exit 2 through the real process and its -m entry point
        doc = dict(preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 0.1}),
                   postprocess={"theta": 0.35, "tau_f": 1.2, "t0": 1e-300, "t_g": 1.0})
        cfgfile, out = tmp_path / "t0.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        r = subprocess.run([sys.executable, "-m", "qbeats.cli", "trmfe", "--config", str(cfgfile),
                            "--out", str(out)], capture_output=True, text=True)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("numerical error: ") and r.stderr.count("\n") == 1, r.stderr
        assert not out.exists()

    def test_trmfe_decay_slower_than_the_grid_exits_0(self, tmp_path):
        # tau_f/step = 1e308 is finite; 20 tau_f/step, the scan's block length, is not
        doc = dict(preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 0.1}),
                   postprocess={"theta": 0.35, "tau_f": 1e307, "t0": 1.0, "t_g": 1.0})
        cfgfile, out = tmp_path / "tau.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out))[:2] == (0, [])
        assert np.isfinite(csv_columns(out)[1]).all()

    def test_trmfe_columns_are_observed_ratio(self, tmp_path):
        doc = preset_with("octalin", "time_grid", {"start": 0.0, "end": 30.0, "step": 0.05})
        cfgfile, out = tmp_path / "r.yaml", tmp_path / "r.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out))[:2] == (0, [])
        header, values = csv_columns(out)
        got = dict(zip(header, values.T))
        config = load_config_file(str(cfgfile))
        s_b, s_0 = simulate(config, "high").trace, simulate(config, "zero").trace
        want = observed_ratio(s_b, s_0, config.postprocess)
        assert header == list(want)
        for name, column in want.items():
            assert np.array_equal(got[name], column), name  # '%.17g' round-trips exactly

    def trmfe_edge(self, tmp_path, start, end):
        """The edge header and the (time_ns, ratio) columns of an octalin ``trmfe`` run."""
        doc = preset_with("octalin", "time_grid", {"start": start, "end": end, "step": 0.1})
        cfgfile, out = tmp_path / f"{start}.yaml", tmp_path / f"{start}.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        assert run_main("trmfe", "--config", str(cfgfile), "--out", str(out))[:2] == (0, [])
        edge = [l for l in out.read_text().splitlines() if l.startswith("# edge_unreliable")]
        header, values = csv_columns(out)
        return float(edge[0].split(": ")[1]), values[:, 0], values[:, 1]

    def test_edge_metadata(self, tmp_path):
        assert self.trmfe_edge(tmp_path, 0.0, 60.0)[0] == pytest.approx(1.0 + 3 * 1.2)

    def test_edge_metadata_counts_from_the_first_grid_point(self, tmp_path):
        # the zero extension starts at the grid's first point, not at t = 0
        edge, t, ratio = self.trmfe_edge(tmp_path, 5.0, 20.0)
        assert edge == pytest.approx(5.0 + 1.0 + 3 * 1.2)
        # against the same run from t = 0, the cut run differs most at its first point
        whole = self.trmfe_edge(tmp_path, 0.0, 20.0)[2][-len(t):]
        gap = np.abs(ratio - whole)
        assert gap[0] == gap.max() and gap[t > 18.0].max() < 1e-3 * gap[0]

    @pytest.mark.parametrize("bad", [math.nan, 1.5])
    def test_numerical_failure_exits_2(self, tmp_path, monkeypatch, bad):
        from qbeats import pipeline

        monkeypatch.setattr(pipeline, "relaxed_singlet",
                            lambda spectrum, times, *channel: np.full(len(times), bad))
        cfgfile = tmp_path / "tiny.yaml"
        cfgfile.write_text(yaml.safe_dump(dict(
            preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 1.0}),
            noise_method="none")))
        out = tmp_path / "x.csv"
        code, err, _ = run_main("simulate", "--config", str(cfgfile), "--out", str(out))
        assert code == 2 and len(err) == 1 and err[0].startswith("numerical error: "), err
        assert not out.exists()

    def test_clipping_warning_is_the_one_stderr_line(self, tmp_path, monkeypatch):
        # roundoff above 1 + 1e-12 is clipped with a logged warning, which the command prints
        from qbeats import pipeline

        monkeypatch.setattr(pipeline, "relaxed_singlet",
                            lambda spectrum, times, *channel: np.full(len(times), 1 + 1e-10))
        cfgfile, out = tmp_path / "tiny.yaml", tmp_path / "x.csv"
        cfgfile.write_text(yaml.safe_dump(dict(
            preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 1.0}),
            noise_method="none")))
        code, err, _ = run_main("simulate", "--config", str(cfgfile), "--out", str(out))
        assert code == 0 and len(err) == 1, err
        assert err[0].startswith("clipping probability roundoff in 'S_zero' "), err
        assert csv_columns(out)[1][:, 1].tolist() == [1.0, 1.0, 1.0]

    def test_validate_unknown_suite(self):
        code, err, _ = run_main("validate", "--suite", "nonsense")
        assert code == 1 and len(err) == 1 and "available" in err[0], err

    def test_validate_numerical_failure_exits_2(self, monkeypatch):
        from qbeats import validate
        from qbeats.dynamics import NumericalError

        def broken():
            raise NumericalError("probability trace 'S' has non-finite values")

        monkeypatch.setitem(validate.SUITES, "tables", broken)
        assert run_main("validate", "--suite", "tables")[:2] == (2, [
            "numerical error: probability trace 'S' has non-finite values"])

    def test_validate_tables_suite(self):
        code, err, out = run_main("validate", "--suite", "tables")
        assert code == 0 and err == []
        assert "[PASS]" in out and "[FAIL]" not in out

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
        code, err, stdout = run_main("simulate", "--config", str(cfgfile), "--out", str(out),
                                     "--compare", str(ref))
        assert code == 0 and err == []
        assert "RMS deviation" in stdout
        rms_line = [l for l in out.read_text().splitlines()
                    if l.startswith("# rms_vs_reference")][0]
        assert float(rms_line.split(":")[1].split("(")[0]) < 1e-9

    def test_compare_file_with_a_byte_order_mark(self, tmp_path):
        # as spreadsheet "CSV UTF-8" exports write it: the mark before the header line
        rms = {}
        for name, mark in (("plain", ""), ("bom", "\ufeff")):
            ref, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-out.csv"
            ref.write_text(f"{mark}time_ns,value\n0,0.9\n1,0.8\n2,0.7\n", encoding="utf-8")
            code, err, stdout = run_main("simulate", "--preset", "octalin", "--out", str(out),
                                         "--compare", str(ref))
            assert code == 0 and err == [], err
            rms[name] = stdout.split(f"RMS deviation vs {ref}: ")[1].split()[0]
        assert rms["bom"] == rms["plain"]

    def test_missing_config_file_exits_1(self, tmp_path):
        # the one run of exit 1 through the real process and its -m entry point
        missing, out = tmp_path / "missing.yaml", tmp_path / "x.csv"
        r = subprocess.run([sys.executable, "-m", "qbeats.cli", "simulate", "--config",
                            str(missing), "--out", str(out)], capture_output=True, text=True)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == f"configuration error: {missing}: No such file or directory\n"
        assert not out.exists()

    def test_utf8_files_under_a_non_utf8_locale(self, tmp_path):
        # the config is read and the CSV written as UTF-8 whatever the locale
        doc = dict(preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 0.1}),
                   name="café")
        cfgfile, out = tmp_path / "cafe.yaml", tmp_path / "x.csv"
        cfgfile.write_text(yaml.safe_dump(doc, allow_unicode=True), encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        r = subprocess.run([sys.executable, "-m", "qbeats.cli", "simulate", "--config",
                            str(cfgfile), "--out", str(out)], capture_output=True, text=True,
                           env=env)
        assert r.returncode == 0 and r.stderr == "", r.stderr
        assert "# name: café\n" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("where, value", [
        ("name", BREAKS), ("config path", BREAKS), ("compare", BREAKS), ("config path", "c\udcff")])
    def test_header_values_stay_on_their_comment_line(self, tmp_path, where, value):
        # a control character in a header value is escaped, as is a path's undecodable byte
        doc = preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 0.5})
        doc["name"] = value
        if where != "name":
            del doc["name"]  # the header names the config path instead
        cfgfile = tmp_path / (f"{value}.yaml" if where == "config path" else "c.yaml")
        ref, out = tmp_path / f"{value}.csv", tmp_path / "x.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        ref.write_text("0,0.5\n2,0.4\n")
        compare = ["--compare", str(ref)] if where == "compare" else []
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(out), *compare)[:2] \
            == (0, [])
        lines = out.read_text(encoding="utf-8").splitlines()
        body = lines.index("time_ns,singlet_probability")
        assert body == 8 + bool(compare) and all(line.startswith("# ") for line in lines[:body])
        assert repr(value)[1:-1] in "\n".join(lines[:body])

    @pytest.mark.parametrize("where", ["config", "out", "compare"])
    def test_a_path_with_a_line_break_stays_on_its_line(self, tmp_path, where):
        # the configuration error, the RMS line and the wrote line each print the path escaped
        broken = tmp_path / "a\nb"
        cfgfile, ref, out = tmp_path / "c.yaml", tmp_path / "ref.csv", tmp_path / "x.csv"
        cfgfile.write_text(yaml.safe_dump(
            preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 0.5})))
        ref.write_text("0,0.5\n2,0.4\n")
        if where == "config":
            code, err, stdout = run_main("simulate", "--config", f"{broken}.yaml", "--out",
                                         str(out))
            want = [f"configuration error: {tmp_path}/a\\nb.yaml: No such file or directory"]
        elif where == "out":
            code, err, stdout = run_main("simulate", "--config", str(cfgfile), "--out",
                                         f"{broken}/x.csv")
            want = [f"configuration error: {tmp_path}/a\\nb/x.csv: directory "
                    f"{str(broken)!r} does not exist"]
        else:
            ref = ref.rename(f"{broken}.csv")
            out = tmp_path / "x\ny.csv"
            code, err, stdout = run_main("simulate", "--config", str(cfgfile), "--out",
                                         str(out), "--compare", str(ref))
            assert (code, err) == (0, [])
            assert stdout.splitlines() == [
                f"RMS deviation vs {tmp_path}/a\\nb.csv: {stdout.split(': ')[1].split()[0]}",
                f"wrote {tmp_path}/x\\ny.csv (5 rows)"]
            return
        assert (code, err, stdout) == (1, want, "")

    def test_out_naming_a_directory_exits_1(self, tmp_path):
        assert run_main("simulate", "--preset", "octalin", "--out", str(tmp_path))[:2] == (1, [
            f"configuration error: {tmp_path}: is a directory"])
        assert not any(tmp_path.iterdir())

    def test_compare_file_outside_the_grid_exits_1(self, tmp_path):
        doc = preset_with("octalin", "time_grid", {"start": 0.0, "end": 2.0, "step": 0.1})
        cfgfile, ref, out = tmp_path / "c.yaml", tmp_path / "ref.csv", tmp_path / "x.csv"
        cfgfile.write_text(yaml.safe_dump(doc))
        ref.write_text("100,0.5\n101,0.4\n")
        assert run_main("simulate", "--config", str(cfgfile), "--out", str(out), "--compare",
                        str(ref))[:2] == (1, [
            f"configuration error: {ref}: no overlap with the simulated grid"])
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_on_a_full_device_exits_1(self):
        assert run_main("simulate", "--preset", "octalin", "--out", "/dev/full")[:2] == (1, [
            "configuration error: /dev/full: No space left on device"])

    @pytest.mark.parametrize("command", ["simulate", "trmfe"])
    def test_out_in_missing_directory_exits_1_before_simulating(self, tmp_path, monkeypatch,
                                                                 command):
        from qbeats import cli

        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated first"))
        out = tmp_path / "nowhere" / "x.csv"
        assert run_main(command, "--preset", "octalin", "--out", str(out))[:2] == (1, [
            f"configuration error: {out}: directory '{out.parent}' does not exist"])

    @pytest.mark.parametrize("case", sorted(BAD_REFERENCES))
    def test_bad_compare_file_exits_1_before_simulating(self, tmp_path, monkeypatch, case):
        from qbeats import cli

        content, reason = BAD_REFERENCES[case]
        ref, out = tmp_path / "ref.csv", tmp_path / "x.csv"
        make_input(ref, content)
        monkeypatch.setattr(cli, "simulate", lambda *a, **k: pytest.fail("simulated first"))
        assert run_main("simulate", "--preset", "octalin", "--out", str(out), "--compare",
                        str(ref))[:2] == (1, [f"configuration error: {ref}: {reason}"])
        assert not out.exists()

    def test_trmfe_smoke(self, tmp_path):
        # the one run of exit 0 through the real process and its -m entry point
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
        r = subprocess.run([sys.executable, "-m", "qbeats.cli", "trmfe", "--config", str(cfgfile),
                            "--out", str(out)], capture_output=True, text=True)
        assert r.returncode == 0 and r.stderr == "", r.stderr
        assert r.stdout == f"wrote {out} (301 rows)\n"
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


def test_simulate_and_trmfe_never_load_numpy_ma(tmp_path):
    # np.unique without an inverse imports numpy.ma, which costs a fresh run 9-15 ms
    out = str(tmp_path / "out.csv")
    commands = [[*command, "--preset", name, "--out", out] for name in ("octalin", "dmb")
                for command in (["trmfe"], ["simulate", "--sectors"])]
    r = subprocess.run([sys.executable, "-c", LOADED_AFTER, json.dumps(commands)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = set(json.loads(r.stdout))
    assert "numpy" in loaded and not loaded & {"numpy.ma"}


def test_sector_weights_reassemble_the_main_column_from_the_file(tmp_path):
    doc = preset_with("dmb", "noise_method", "kraus")
    doc["time_grid"] = {"start": 0.0, "end": 10.0, "step": 0.25}
    cfgfile, out = tmp_path / "c.yaml", tmp_path / "x.csv"
    cfgfile.write_text(yaml.safe_dump(doc))
    assert run_main("simulate", "--sectors", "--field", "high", "--config", str(cfgfile),
                    "--out", str(out))[:2] == (0, [])
    weights = [line for line in out.read_text().splitlines() if line.startswith("# sector_")]
    assert len(weights) == 1 and weights[0].startswith("# sector_weights: ")
    weights = np.array(weights[0].split(": ")[1].split(","), dtype=float)
    header, values = csv_columns(out)
    assert header[2:] == [f"I2={k}" for k in range(6, -1, -1)] and len(weights) == 7
    assert weights.sum() == 1.0
    assert np.abs(values[:, 2:] @ weights - values[:, 1]).max() <= 1e-12


def run_main(*argv):
    """``cli.main`` in the test process: (exit code, stderr lines, stdout).

    An exception escaping ``main`` fails the test, as a traceback fails the command
    line; argparse's ``SystemExit`` gives the exit code.  A warning, and a ``qbeats``
    log record at WARNING or above, count as the stderr line the command line prints
    for them: under pytest neither reaches the redirected stderr.
    """
    from qbeats import cli

    err, out, records = io.StringIO(), io.StringIO(), []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("qbeats")
    logger.addHandler(handler)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(out):
            warnings.simplefilter("always")
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        logger.removeHandler(handler)
    lines = [*err.getvalue().splitlines(), *(str(w.message) for w in caught),
             *(r.getMessage() for r in records)]
    return code, lines, out.getvalue()


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
        start = draw(st.one_of(st.sampled_from([-2.0, 1e15, 1e250, math.nan, math.inf]),
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
        code, err, _ = run_main(command, "--config", str(cfgfile), "--out", str(out), *extra)
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
                            *extra)[:2] == (0, [])
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


SIX_COLUMN_BLOCK = CSV_BLOCK_CELLS // 6  # rows of a block of the 6-column trmfe CSV


# one block of 6 columns, its edges and the edges of the fourth, for 1 and 6 columns; the
# edges of a 1-column block; and a 3,003-column CSV over two 2-row blocks and one of 1 row
@pytest.mark.parametrize("rows, n_columns", [
    *((rows, n_columns) for rows in (0, 1, SIX_COLUMN_BLOCK - 1, SIX_COLUMN_BLOCK,
                                     SIX_COLUMN_BLOCK + 1, 4 * SIX_COLUMN_BLOCK - 1,
                                     4 * SIX_COLUMN_BLOCK, 4 * SIX_COLUMN_BLOCK + 1)
      for n_columns in (1, 6)),
    (CSV_BLOCK_CELLS - 1, 1), (CSV_BLOCK_CELLS, 1), (CSV_BLOCK_CELLS + 1, 1),
    (2 * (CSV_BLOCK_CELLS // 3003) + 1, 3003)])
def test_write_csv_is_byte_identical_to_the_per_cell_writer(tmp_path, rows, n_columns):
    rng = np.random.default_rng(1000 * n_columns + rows)
    pool = np.concatenate([SPECIAL_FLOATS, rng.normal(size=200),
                           rng.normal(size=200) * 10.0 ** rng.integers(-320, 300, 200)])
    columns = {f"c{i}": rng.choice(pool, rows) for i in range(n_columns)}
    meta = {"command": "test", "rows": rows}
    per_cell_csv(tmp_path / "cell.csv", columns, meta)
    names, values = list(columns), list(columns.values())
    # one array per column, and the columns after the first as one (rows, n - 1) table
    for parts in (values, [values[0], np.column_stack([np.empty(rows), *values[1:]])[:, 1:]]):
        write_csv(str(tmp_path / "block.csv"), names, parts, meta)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cell.csv").read_bytes()


def per_cell_rows(block):
    """``'%.17g' % x`` of every cell, a comma between cells and a newline after each row."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in block.tolist()).encode()


# 18 significant digits ending in 5: '%' rounds these exact ties half-even
TIES = [x for x in (math.ldexp(m, e) for m in range(1, 40, 2) for e in range(-64, -20))
        if len(decimal.Decimal(x).as_tuple().digits) == 18]
EDGES = [1e-4, np.nextafter(1e-4, 0), 1e-5, np.nextafter(1e-5, 0), 1e16, 1e17,
         9.999999999999998e16, 1e-280, np.nextafter(1e-280, 0), np.nextafter(1e-280, 1),
         1e280, np.nextafter(1e281, 0), 1e281, np.nextafter(1e281, np.inf), 0.1, 1.0, 100.0]


def test_format_rows_at_exact_ties_and_layout_edges():
    assert math.ldexp(1, -25) in TIES and len(TIES) > 20
    cells = np.array(TIES + EDGES)
    block = np.concatenate([cells, -cells]).reshape(-1, 2)
    assert format_rows(block).split(b"\n") == per_cell_rows(block).split(b"\n")
    assert format_rows(np.array([[math.ldexp(1, -25), 1e-4, np.nextafter(1e-4, 0)]])) == \
        b"2.9802322387695312e-08,0.0001,9.9999999999999991e-05\n"
    assert format_rows(np.array([[1e16, 1e17, 9.999999999999998e16, -1e-5]])) == \
        b"10000000000000000,1e+17,99999999999999984,-1.0000000000000001e-05\n"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(st.floats(width=64), min_size=cols, max_size=cols), min_size=1, max_size=30)))
def test_format_rows_is_percent_17g_of_every_double(rows):
    # st.floats draws nan, ±inf, ±0 and subnormals as well as normal doubles
    block = np.array(rows, dtype=np.float64)
    assert format_rows(block) == per_cell_rows(block)


def test_format_rows_in_every_exponent_row():
    # the hypothesis test draws random doubles and reaches few of the 563 table rows
    tens = np.array([float(f"1e{e}") for e in range(-280, 281)])  # 10^E correctly rounded
    cells = np.concatenate([np.outer(tens, [1.0, 1.5, 2 / 3, np.pi, 7.25, 9.87654321]).ravel(),
                            tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    N, row, certain = _significands(cells, _layout()[2])
    assert set(row[certain]) == set(range(1, 2 * EXP_MAX))  # E = -280..280, all certified
    block = np.concatenate([cells, -cells]).reshape(-1, 6)
    assert format_rows(block) == per_cell_rows(block)


def test_pow10_of_every_row_is_exact_in_halves():
    def nearest(value, exact):  # no double is closer to the exact number
        return all(abs(exact - Fraction(value)) <= abs(exact - Fraction(np.nextafter(value, d)))
                   for d in (-math.inf, math.inf))

    for k in range(16 - EXP_MAX, 17 + EXP_MAX):  # 10^(16 - E) of every row
        hi, lo, bh, bl = _pow10(k)
        exact = Fraction(10) ** k
        assert nearest(hi, exact) and nearest(lo, exact - Fraction(hi)), k
        assert Fraction(bh) + Fraction(bl) == Fraction(hi), k
        assert all(math.frexp(h)[0] * 2 ** 26 % 1 == 0 for h in (bh, bl)), k  # 26 bits
        assert abs(bl) <= 2.0 ** -26 * abs(bh), k


def rerendered(path):
    """A qbeats CSV with each number re-rendered as ``'%.17g'``, header lines as written."""
    lines = path.read_bytes().splitlines(keepends=True)
    body = next(i for i, line in enumerate(lines) if not line.startswith(b"#")) + 1
    values = [[float(v) for v in line.split(b",")] for line in lines[body:]]
    return b"".join(lines[:body]) + b"".join(
        b",".join(b"%.17g" % v for v in row) + b"\n" for row in values)


def leaves(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, (*path, i))
    else:
        yield path


BAD_VALUES = [0, 1, -1.0, 1e300, -1e300, 5e-324, math.inf, -math.inf, math.nan, "", "x",
              [], {}, True, None, 2 ** 70, MAX_COUNT[0] + 1, MAX_COUNT[1] + 1]
SANE_HARDWARE = {"T1_us": 100.0, "T2_us": 50.0, "identity_ns": 35.0, "u_circuit_ns": 680.0,
                 "drift_phase_rate": 0.001}
SHORT_PRESETS = {name: preset_with(name, "time_grid", {"start": 0.0, "end": 10.0, "step": 0.5})
                 for name in ("octalin", "dmb")}


@st.composite
def bad_inputs(draw):
    """A preset on a 21-point grid, sometimes with a hardware block, and one or two of
    its leaves set to a value from ``BAD_VALUES``.

    No example runs long: a count set to a bad value is at most 1 or above its cap, a
    grid end or step gives at most 21 points or more than the grid cap (refused before
    anything runs), and a bad tau_f or t_g makes at most a 21-point kernel.
    """
    doc = copy.deepcopy(SHORT_PRESETS[draw(st.sampled_from(sorted(SHORT_PRESETS)))])
    doc["noise_method"] = draw(st.sampled_from(["none", "kraus", "per-gate", "echo-synthetic"]))
    if draw(st.booleans()):
        doc["hardware"] = dict(SANE_HARDWARE)
    for path in draw(st.lists(st.sampled_from(list(leaves(doc))), min_size=1, max_size=2,
                              unique=True)):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return doc


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=bad_inputs(), command=st.sampled_from(["simulate", "trmfe"]))
def test_bad_input_ends_in_exit_1_or_a_finite_csv(tmp_path, doc, command):
    """Exit 0, 1 or 2 and no traceback; exit 1 is one 'configuration error: ' line and
    no CSV; exit 0 writes finite values, each the '%.17g' of its double."""
    cfgfile, out = tmp_path / "c.yaml", tmp_path / "out.csv"
    out.unlink(missing_ok=True)  # tmp_path is shared by the examples
    cfgfile.write_text(yaml.safe_dump(doc))
    code, err, _ = run_main(command, "--config", str(cfgfile), "--out", str(out))
    assert code in (0, 1, 2), (code, err)
    if code == 1:
        assert len(err) == 1 and err[0].startswith("configuration error: "), err
        assert not out.exists()
    elif code == 2:
        assert len(err) == 1 and err[0].startswith("numerical error: "), err
    else:
        assert np.isfinite(csv_columns(out)[1]).all()
        assert out.read_bytes() == rerendered(out)
