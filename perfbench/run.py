"""Benchmark of the qbeats CLI on three TR-MFE workloads.

    python3 perfbench/run.py --workload trmfe-dmb --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs ``qbeats.cli.main(["trmfe", ...])`` (CSV write included)
in one fresh worker process, in a closed loop: the next command starts when
the previous one has ended. Every process the benchmark starts has BLAS
pinned to one thread. With ``--trace 0`` it reports the end-to-end metrics:
the median command time, the median set-up time of several fresh
interpreters, and the worker's peak RSS. Both times are rescaled to a
reference host speed by a calibration timed around each sample (see
calibrate.py). With ``--trace 1`` the worker
alternates untraced commands with commands traced by layer spans (see
tracer.py) and reports the per-layer metrics. The outputs are checked outside the timed
region (see checks.py). The last line of standard output is one JSON object.
"""

import os

BLAS_PIN = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                             "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)  # before numpy is imported here or in any child

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0      # every run ends within 180 s
SETUP_PROBES = 9        # fresh interpreters per run for setup_s, after one discarded
DENSE_SAMPLES = 6       # seeded grid rows per regime checked against the dense evolution
HIGH_FIELD_REDUCTION = 2e-3  # see README: |m|-class representatives at a finite field
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")  # BLAS_PIN is already in os.environ

# Inputs are the shipped presets plus these overrides; nothing is random.
# kraus_tol / dense_tol: (high field, zero field) distance allowed from a kraus
# run of the same config and from the dense evolution.
WORKLOADS = {
    "trmfe-dmb": {
        "preset": "dmb", "overrides": {},
        "kraus_tol": None, "dense_tol": None,
    },
    "echo-octalin": {
        "preset": "octalin",
        "overrides": {"noise_method": "echo-synthetic",
                      "time_grid": {"start": 0.0, "end": 25.0, "step": 0.25}},
        "kraus_tol": (1e-12, 5e-3), "dense_tol": (HIGH_FIELD_REDUCTION, 5e-3),
    },
    "pergate-octalin-long": {
        "preset": "octalin",
        "overrides": {"noise_method": "per-gate",
                      "time_grid": {"start": 0.0, "end": 100.0, "step": 0.02}},
        "kraus_tol": (1e-12, 1e-12), "dense_tol": (HIGH_FIELD_REDUCTION, 1e-9),
    },
}


def time_left(start: float) -> float:
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 0:
        raise RuntimeError("out of time")
    return left


def write_configs(wl: dict, work: Path) -> dict:
    """YAML configs of the workload, its short warm-up grid and its kraus twin."""
    import yaml

    with open(SRC / "qbeats" / "data" / f"{wl['preset']}.yaml") as fh:
        base = yaml.safe_load(fh)
    config = {**base, **wl["overrides"]}
    grid = config["time_grid"]
    paths = {}
    variants = {
        "config": config,
        "warm": {**config, "time_grid": {**grid, "end": grid["start"] + 20 * grid["step"]}},
        "kraus": {**config, "noise_method": "kraus"},
    }
    for key, doc in variants.items():
        paths[key] = work / f"{key}.yaml"
        with open(paths[key], "w") as fh:
            yaml.safe_dump(doc, fh, sort_keys=False)
    rows = int(round((grid["end"] - grid["start"]) / grid["step"])) + 1
    source = ["--preset", wl["preset"]] if not wl["overrides"] else ["--config", str(paths["config"])]
    return {"config": config, "paths": paths, "rows": rows, "source": source}


def probe_setup(source: list, start: float) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, and the calibrations around them."""
    samples, cals = [], []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "setup", "trmfe", *source],
                              capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT,
                              timeout=time_left(start))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        if i > 0:  # the first probe also compiles bytecode
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
        cals.append(calibrate.calibrate())
    return samples, cals


def run_worker(spec: dict, work: Path, start: float) -> dict:
    spec_path, result_path = work / "spec.json", work / "result.json"
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    result_path.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "loop",
                           str(spec_path), str(result_path)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          env=CHILD_ENV, cwd=ROOT, timeout=time_left(start))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    with open(result_path) as fh:
        return json.load(fh)


def check_outputs(wl: dict, cfg: dict, work: Path, seed: int) -> list[str]:
    import checks

    cols = checks.read_csv(work / "out.csv")
    errors = checks.check_trace(cols, cfg["rows"])
    if errors:
        return errors
    system = cfg["config"]["system"]
    relaxation = {r: (float(v["T1"]), float(v["T2"])) for r, v in system["relaxation"].items()}
    if cfg["config"]["noise_method"] in ("kraus", "per-gate"):
        errors += checks.check_envelope(cols, relaxation)
    if wl["kraus_tol"]:
        from qbeats import cli

        ref_csv = work / "kraus.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["trmfe", "--config", str(cfg["paths"]["kraus"]), "--out", str(ref_csv)])
        if rc != 0:
            return errors + ["kraus reference run failed"]
        errors += checks.check_agreement(cols, checks.read_csv(ref_csv), *wl["kraus_tol"],
                                         "the kraus run")
    if wl["dense_tol"]:
        rows = random.Random(seed).sample(range(1, cfg["rows"]), DENSE_SAMPLES)
        errors += checks.check_dense(cols, system, rows, *wl["dense_tol"])
    return errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    wl = WORKLOADS[name]
    work = WORK / name
    work.mkdir(parents=True, exist_ok=True)
    cfg = write_configs(wl, work)
    csv = str(work / "out.csv")
    setup, setup_cals = ([], []) if trace else probe_setup(cfg["source"], start)
    spec = {
        "argv": ["trmfe", *cfg["source"], "--out", csv],
        "warm_argv": ["trmfe", "--config", str(cfg["paths"]["warm"]), "--out",
                      str(work / "warm.csv")],
        "csv": csv, "seconds": seconds, "trace": trace,
    }
    res = run_worker(spec, work, start)

    ok_times = [t for t, rc in zip(res["times"], res["rcs"]) if rc == 0]
    if not ok_times:
        raise RuntimeError("no command succeeded")
    errors = []
    if len({d for d in res["digests"] if d is not None}) > 1:
        errors.append("the same command wrote different CSVs")
    errors += check_outputs(wl, cfg, work, seed)
    for e in errors:
        print(f"CHECK FAILED {name}: {e}", file=sys.stderr)

    if trace:
        metrics = {k: (v, _unit(k)) for k, v in res["layers"].items()}
    else:
        print(f"{name}: raw medians, not rescaled: command {statistics.median(ok_times):.4g} s, "
              f"set-up {statistics.median(setup):.4g} s, calibration "
              f"{statistics.median(res['cals'] + setup_cals):.4g} s (reference "
              f"{calibrate.REF_S} s)")
        ok_rescaled = [r for r, rc in zip(calibrate.rescaled(res["times"], res["cals"]),
                                          res["rcs"]) if rc == 0]
        metrics = {
            "wall_ref_s": (statistics.median(ok_rescaled), "s"),
            "setup_s": (statistics.median(calibrate.rescaled(setup, setup_cals)), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    return {
        "correct": not errors,
        "attempted": len(res["rcs"]),
        "failed": len(res["rcs"]) - len(ok_times),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric == "trace.self_share":
        return "%"
    if metric == "cli.csv_bytes":
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the grid rows checked against the dense evolution")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qbeats" / "cli.py").is_file():
        print(f"error: no qbeats source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the reference kraus runs import qbeats here

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        r = results[name]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for key, m in r["metrics"].items():
            print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
