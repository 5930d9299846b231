"""Fresh-process side of the benchmark.

    python3 perfbench/worker.py setup <qbeats trmfe arguments...>
        Prints the seconds from the first line of this script to a parsed
        workload config: ``import qbeats.cli`` plus the config load.
    python3 perfbench/worker.py loop <spec.json> <result.json>
        Runs the CLI entry point ``qbeats.cli.main`` in a closed loop, one
        command after the other, and writes command times, exit codes, CSV
        digests, peak RSS, and either the calibration times around the
        commands (see calibrate.py) or, when the spec asks for a trace,
        per-layer metrics.

run.py starts this script with BLAS pinned to one thread.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_COMMANDS = 3  # timed commands per untraced run, at least
MIN_PAIRS = 2     # untraced/traced command pairs per traced run, at least


def import_cli():
    """qbeats.cli from the source tree next to the benchmark, never another copy."""
    sys.path.insert(0, str(SRC))
    from qbeats import cli

    if Path(cli.__file__).resolve().parent != (SRC / "qbeats").resolve():
        raise SystemExit(f"qbeats imported from {cli.__file__}, not from {SRC}")
    return cli


def probe_setup(argv: list[str]) -> float:
    cli = import_cli()
    from qbeats.config import load_config_file, load_preset

    args = cli.build_parser().parse_args(argv)
    config = load_config_file(args.config) if args.config else load_preset(args.preset)
    elapsed = time.perf_counter() - T0
    if not config.name:
        raise SystemExit("config without a name")
    return elapsed


def run_commands(call, argv, csv_path, seconds, min_commands, record):
    """Closed loop: start the next command only while it is expected to end in time."""
    start = time.perf_counter()
    last = 0.0  # the previous round: command, digest and record
    count = 0
    while count < min_commands or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        try:
            rc = call(argv)
        except Exception:  # a failed command is counted, the loop goes on
            traceback.print_exc()
            rc = -1
        elapsed = time.perf_counter() - t
        count += 1
        digest = None
        if rc == 0:
            with open(csv_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        record(elapsed, rc, digest)
        last = time.perf_counter() - t


def loop(spec: dict) -> dict:
    cli = import_cli()
    # untimed warm-up on a short grid: lazy imports and first BLAS calls
    if cli.main(spec["warm_argv"]) != 0:
        raise SystemExit("warm-up command failed")

    result = {"times": [], "rcs": [], "digests": [], "cals": []}

    def record(dt, rc, digest):
        result["times"].append(dt)
        result["rcs"].append(rc)
        result["digests"].append(digest)

    if not spec["trace"]:
        from calibrate import calibrate

        def record_and_calibrate(dt, rc, digest):
            record(dt, rc, digest)
            result["cals"].append(calibrate())

        # every command sits between two calibrations (see calibrate.py)
        result["cals"].append(calibrate())
        run_commands(cli.main, spec["argv"], spec["csv"], spec["seconds"], MIN_COMMANDS,
                     record_and_calibrate)
    else:
        from tracer import Tracer, layer_metrics

        # untraced and traced commands alternate, so both see the same machine
        tracer = Tracer()
        root = tracer.wrap("cli.main", cli.main)
        traced = []

        def paired_call(argv):
            if len(result["times"]) % 2 == 0:
                return cli.main(argv)
            tracer.install()
            tracer.reset()
            try:
                t = time.perf_counter()
                rc = root(argv)
                total = time.perf_counter() - t
            finally:
                tracer.uninstall()
            traced.append(layer_metrics(tracer, total))
            return rc

        run_commands(paired_call, spec["argv"], spec["csv"], spec["seconds"], 2 * MIN_PAIRS,
                     record)
        layers = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        untraced = result["times"][0::2]
        layers["trace.overhead_s"] = layers["trace.total_s"] - statistics.median(untraced)
        layers["cli.csv_bytes"] = os.path.getsize(spec["csv"])
        result["layers"] = layers
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    if len(sys.argv) >= 2 and sys.argv[1] == "setup":
        print(repr(probe_setup(sys.argv[2:])))
        return 0
    if len(sys.argv) == 4 and sys.argv[1] == "loop":
        with open(sys.argv[2]) as fh:
            spec = json.load(fh)
        result = loop(spec)
        with open(sys.argv[3], "w") as fh:
            json.dump(result, fh)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
