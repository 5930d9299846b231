"""End-to-end checks of ``python -m qbeats.cli``, a fresh interpreter per run: repeats, cells
that are '%.17g', noise methods that agree, a long trmfe against the uncut convolution, peak
RSS on large inputs, and the exits of an over-cap count and of the validation suites.

    PYTHONPATH=src python -m pytest e2e -q -s
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from qbeats.config import load_config_file  # noqa: E402
from qbeats.dynamics import TimeSeries  # noqa: E402
from qbeats.postprocess import boxcar_kernel, ideal_intensity  # noqa: E402
from support import exponential_kernel  # noqa: E402

LONG_GRID = {"start": 0.0, "end": 2000.0, "step": 0.01}  # 200,001 points


def source(tmp, preset, overrides=None):
    """Arguments naming the preset, or a config file of it with each dotted path of
    ``overrides`` ("system.groups.1.count") set to its value."""
    if not overrides:
        return ["--preset", preset]
    doc = yaml.safe_load((ROOT / "src" / "qbeats" / "data" / f"{preset}.yaml").read_text())
    for path, value in overrides.items():
        *keys, last = (int(key) if key.isdigit() else key for key in path.split("."))
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
    config = tmp / f"{preset}_{len(list(tmp.glob('*.yaml')))}.yaml"
    config.write_text(yaml.safe_dump(doc))
    return ["--config", str(config)]


# The CLI runs as the child of a small interpreter that prints the child's peak RSS last: a
# process started straight from pytest would count pytest's resident set as its own.
PEAK_RSS = """import os, subprocess, sys
with subprocess.Popen(sys.argv[1:]) as proc:
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss)
sys.exit(proc.returncode)
"""


def cli(*args, code=0):
    """Run ``python -m qbeats.cli *args`` in a fresh interpreter and check its exit code;
    return its stderr lines and its peak RSS in MB."""
    run = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "qbeats.cli",
                          *map(str, args)], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True)
    *out, peak_kib = run.stdout.splitlines()  # ru_maxrss is in KiB on Linux
    print(*out, sep="\n")
    sys.stderr.write(run.stderr)
    assert run.returncode == code, run.stderr
    return run.stderr.splitlines(), int(peak_kib) / 1024


def columns(path):
    """Header name -> column of a qbeats CSV."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    data = np.loadtxt(rows[1:], delimiter=",", ndmin=2)
    return dict(zip(rows[0].split(","), data.T))


def assert_cells_are_percent_17g(path):
    # '%.17g' round-trips every double, so a wrong byte in any cell changes the file
    lines = path.read_bytes().splitlines(keepends=True)
    body = next(i for i, line in enumerate(lines) if not line.startswith(b"#")) + 1
    assert path.read_bytes() == b"".join(lines[:body]) + b"".join(
        b",".join(b"%.17g" % float(v) for v in line.split(b",")) + b"\n" for line in lines[body:])


@pytest.mark.parametrize("method", [None, "echo-synthetic"], ids=["preset", "echo-synthetic"])
@pytest.mark.parametrize("preset", ["octalin", "dmb"])
def test_repeated_trmfe_is_bit_identical(tmp_path, preset, method):
    args = source(tmp_path, preset, method and {"noise_method": method})
    for out in ("a.csv", "b.csv"):
        cli("trmfe", *args, "--out", tmp_path / out)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert_cells_are_percent_17g(tmp_path / "a.csv")


def test_sector_columns(tmp_path):
    # the I2 columns of a relaxed dmb run, weighted as the header gives, sum to the main one
    cli("simulate", "--preset", "octalin", "--sectors", "--out", tmp_path / "s.csv")
    out = tmp_path / "d.csv"
    cli("simulate", *source(tmp_path, "dmb", {"noise_method": "kraus"}), "--sectors",
        "--field", "high", "--out", out)
    assert_cells_are_percent_17g(out)
    header = [line for line in out.read_text().splitlines() if line.startswith("# sector_")]
    weights = np.array(header[0].split(": ", 1)[1].split(","), dtype=float)
    got = columns(out)
    sectors = np.column_stack([got[f"I2={k}"] for k in range(6, -1, -1)])
    gap = np.abs(sectors @ weights - got["singlet_probability"]).max()
    print(f"\nmax |sum of weighted I2 columns - main column| = {gap:.3g}")
    assert len(got) == 9 and gap <= 1e-12


def direct_convolution(x, kernel, block=512):
    """The first T terms y[n] = sum_j kernel[j] x[n - j] of the direct, uncut convolution of
    each row of the (S, T) array x, as blocked matrix products: output block p gathers
    input block p - d times the Toeplitz block E_d[r, s] = kernel[d block + r - s]."""
    S, T = x.shape
    count = -(-T // block)
    X = np.zeros((S, count * block))
    X[:, :T] = x
    X = X.reshape(S, count, block)
    Y = np.zeros_like(X)
    r = np.arange(block)
    for d in range(min(count, -(-(len(kernel) + block - 1) // block))):
        lag = d * block + r[:, None] - r
        E = np.where((lag >= 0) & (lag < len(kernel)), kernel[np.clip(lag, 0, len(kernel) - 1)], 0)
        Y[:, d:] += X[:, :count - d] @ E.T
    return Y.reshape(S, -1)[:, :T]


def test_long_kraus_trmfe_matches_the_uncut_convolution(tmp_path):
    # step 0.01 ns with tau_f = 1.2 ns: 84 scan blocks of 2,400 points
    args = source(tmp_path, "octalin", {"noise_method": "kraus", "time_grid": LONG_GRID})
    cli("trmfe", *args, "--out", tmp_path / "r.csv")
    got = columns(tmp_path / "r.csv")
    pp = load_config_file(args[1]).postprocess
    t = got["time_ns"]
    assert len(t) == 200_001  # the denominator floor drops no point here
    h = t[1] - t[0]
    e, g = exponential_kernel(pp.tau_f, h, len(t)), boxcar_kernel(pp.t_g, h, len(t))
    e = e[:np.flatnonzero(e)[-1] + 1]  # its taps past exp(-t/tau_f) underflow are exactly 0
    k = len(g) // 2
    ideal = np.stack([ideal_intensity(TimeSeries(t, got[s]), pp).values for s in ("S_B", "S_0")])
    decayed = np.pad(direct_convolution(ideal, e), ((0, 0), (0, k)))  # the boxcar is centred
    want = dict(zip(("I_B", "I_0"), direct_convolution(decayed, g)[:, k:]))
    want["ratio"] = want["I_B"] / want["I_0"]
    gap = max(np.abs(got[c] / want[c] - 1).max() for c in want)
    print(f"\nmax relative gap to the uncut convolution: {gap:.3g}")
    assert gap <= 1e-12
    assert_cells_are_percent_17g(tmp_path / "r.csv")


@pytest.mark.parametrize("preset, command, method, names", [
    ("octalin", ["trmfe"], "per-gate", ["S_B", "S_0"]),
    ("dmb", ["trmfe"], "per-gate", ["S_B", "S_0"]),
    # at high field the target of echo-synthetic is the Kraus channel
    ("octalin", ["simulate", "--field", "high"], "echo-synthetic", ["singlet_probability"])],
    ids=["octalin-per-gate", "dmb-per-gate", "octalin-high-field-echo-synthetic"])
def test_noise_method_equals_kraus(tmp_path, preset, command, method, names):
    got = {}
    for m in ("kraus", method):
        out = tmp_path / f"{m}.csv"
        cli(*command, *source(tmp_path, preset, {"noise_method": m}), "--out", out)
        got[m] = columns(out)
    gap = max(np.abs(got["kraus"][c] - got[method][c]).max() for c in names)
    print(f"\nmax |S(kraus) - S({method})| = {gap:.3g}")
    assert gap <= 1e-12


def test_echo_synthetic_trmfe_near_the_correction_floor(tmp_path):
    hardware = {"T1_us": 0.1, "T2_us": 0.2, "u_circuit_ns": 680}
    cli("trmfe", *source(tmp_path, "octalin", {"noise_method": "echo-synthetic",
                                               "hardware": hardware}), "--out", tmp_path / "r.csv")


@pytest.mark.parametrize("preset, overrides, command, bound_mb", [
    ("octalin", {"noise_method": "echo-synthetic",
                 "time_grid": {"start": 0.0, "end": 2000.0, "step": 0.1}}, ["trmfe"], 120),
    ("octalin", {"noise_method": "echo-synthetic", "time_grid": LONG_GRID}, ["trmfe"], 150),
    ("octalin", {"noise_method": "per-gate", "time_grid": LONG_GRID}, ["trmfe"], 120),
    ("octalin", {"system.groups.0.count": 200}, ["trmfe"], 150),
    ("dmb", {"system.groups.1.count": 100}, ["trmfe"], 105),
    ("dmb", {"system.groups.1.count": 200}, ["trmfe"], 125),
    ("octalin", {"system.groups.0.count": 60000, "initial_state": "30000,30000"}, ["trmfe"], 60),
    ("octalin", {"system.groups.0.count": 6000}, ["simulate", "--sectors"], 150)],
    ids=["echo-20001", "echo-200001", "per-gate-200001", "one-group-200", "two-group-2+100",
         "two-group-2+200", "pure-60000", "sectors-6000"])
def test_peak_memory_stays_bounded(tmp_path, preset, overrides, command, bound_mb):
    out = tmp_path / "r.csv"
    _, peak_mb = cli(*command, *source(tmp_path, preset, overrides), "--out", out)
    print(f"\n{' '.join(command)} {overrides}: peak RSS {peak_mb:.1f} MB (bound {bound_mb})")
    assert peak_mb < bound_mb
    if "--sectors" in command:
        assert len(columns(out)) == 3003


def test_count_above_the_cap_exits_1_on_one_line(tmp_path):
    err, _ = cli("trmfe", *source(tmp_path, "octalin", {"system.groups.0.count": 100000}),
                 "--out", tmp_path / "r.csv", code=1)
    assert len(err) == 1 and not any("Traceback" in line for line in err), err
    assert err[0].startswith("configuration error: ") and "groups[0].count: " in err[0], err
    assert not (tmp_path / "r.csv").exists()


def test_sectors_above_the_cell_cap_exit_1_at_once(tmp_path):
    # the one-group count cap on the 999,501-point grid: its 30,003 columns would hold about
    # 240 GB, so the run ends before anything is built
    big = {"system.groups.0.count": 60000, "time_grid": {"start": 0.0, "end": 9995.0,
                                                          "step": 0.01}}
    err, peak_mb = cli("simulate", "--sectors", *source(tmp_path, "octalin", big),
                       "--out", tmp_path / "s.csv", code=1)
    assert len(err) == 1 and err[0].startswith("configuration error: "), err
    assert "--sectors would write 29988028503 CSV cells" in err[0], err
    print(f"\npeak RSS {peak_mb:.1f} MB")
    assert peak_mb < 75 and not (tmp_path / "s.csv").exists()


def test_validation_suites():
    cli("validate", "--suite", "all")
