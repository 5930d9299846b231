"""Command-line front end.

    qbeats simulate --preset octalin --field zero --out s.csv
    qbeats trmfe    --preset dmb --out ratio.csv
    qbeats validate --suite tables

Exit codes: 0 success, 1 configuration or usage error, 2 numerical-validation failure.
Output is deterministic for a given configuration at a fixed BLAS thread count (see README);
CSV files carry a '#'-prefixed metadata header including the resolved-config hash.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .config import (FIELD_REGIMES, PRESETS, ConfigError, ExperimentConfig, load_config_file,
                     load_preset, read_text)
from .dynamics import NumericalError, time_grid
from .pipeline import simulate
from .postprocess import kernel_step, observed_ratio

CSV_BLOCK_ROWS = 4096  # rows formatted per write: bounds the text held at once
FLOAT_WORDS = ("nan", "inf", "infinity")  # the spellings of float() that start with a letter


def write_csv(path: str, columns: dict[str, np.ndarray], meta: dict) -> None:
    values = list(columns.values())
    row = ",".join(["%.17g"] * len(values)) + "\n"  # '%.17g' % x == f"{x:.17g}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# qbeats {__version__}\n")
        for k, v in meta.items():
            fh.write(f"# {k}: {v}\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(values[0]), CSV_BLOCK_ROWS):
            block = np.column_stack([v[start:start + CSV_BLOCK_ROWS] for v in values])
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_reference(path: str) -> np.ndarray:
    """Time-sorted (time_ns, value) rows of a reference CSV.

    '#' starts a comment, a line starting with a letter is a header unless its
    first field spells a float ('nan', 'inf'), and ';' separates like ','.  A row
    that is not two finite numbers is an error naming its line.
    """
    rows = []
    # lines split at "\n" alone: splitlines() would also split at a form feed
    for number, raw in enumerate(read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        fields = line.replace(";", ",").split(",")
        if not line or line[0].isalpha() and fields[0].strip().lower() not in FLOAT_WORDS:
            continue
        try:
            time_ns, value = map(float, fields[:2])
        except ValueError:
            raise ConfigError(f"{path}: line {number}: expected 'time, value', "
                              f"got {line!r}") from None
        if not (np.isfinite(time_ns) and np.isfinite(value)):
            raise ConfigError(f"{path}: line {number}: non-finite value in {line!r}")
        rows.append((time_ns, value))
    if len(rows) < 2:
        raise ConfigError(f"{path}: need at least two (time, value) rows")
    return np.array(sorted(rows))


def _inputs(args) -> tuple[ExperimentConfig, np.ndarray | None]:
    """The configuration and the ``--compare`` reference, with ``--out`` checked: every
    file error surfaces before anything is simulated."""
    config = (load_config_file(args.config) if args.config
              else load_preset(args.preset or PRESETS[0]))
    folder = os.path.dirname(args.out) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"{args.out}: directory {folder!r} does not exist")
    if os.path.isdir(args.out):
        raise ConfigError(f"{args.out}: is a directory")
    return config, read_reference(args.compare) if args.compare else None


def _finish(args, reference, times, values, columns: dict[str, np.ndarray], meta: dict) -> int:
    """Write the CSV, after the RMS deviation from the ``--compare`` reference, if any.

    The reference curve is linearly interpolated onto the simulated grid,
    restricted to the overlapping time window.  Purely informational: nothing
    is asserted about external data.
    """
    if reference is not None:
        ref_t, ref_v = reference.T
        mask = (times >= ref_t[0]) & (times <= ref_t[-1])
        if not mask.any():
            raise ConfigError(f"{args.compare}: no overlap with the simulated grid")
        rms = np.sqrt(np.mean((values[mask] - np.interp(times[mask], ref_t, ref_v)) ** 2))
        meta["rms_vs_reference"] = f"{rms:.6g} ({args.compare})"
        print(f"RMS deviation vs {args.compare}: {rms:.6g}")
    try:
        write_csv(args.out, columns, meta)
    except OSError as exc:
        raise ConfigError(f"{args.out}: {exc.strerror}") from None
    print(f"wrote {args.out} ({len(times)} rows)")
    return 0


def cmd_simulate(args) -> int:
    config, reference = _inputs(args)
    if args.sectors and config.initial_sector():
        raise ConfigError(f"{args.config or config.name}.initial_state: --sectors splits the "
                          f"mixed nuclear state; {config.initial_state!r} is one pure state")
    regime = args.field or config.field_regime
    result = simulate(config, regime, sectors=args.sectors)
    trace = result.trace
    columns = {"time_ns": trace.times, "singlet_probability": trace.values, **result.sectors}
    meta = {
        "command": "simulate",
        "name": config.name,
        "config_sha256": config.digest(),
        "field_regime": regime,
        "noise_method": config.noise_method,
        "initial_state": config.initial_state,
        "units": "time_ns, probability",
    }
    return _finish(args, reference, trace.times, trace.values, columns, meta)


def _grid_checked(source: str, step, *args):  # a ValueError becomes a time_grid ConfigError
    try:
        return step(*args)
    except NumericalError:  # a ValueError too, but no fault of the grid: exit 2
        raise
    except ValueError as exc:
        raise ConfigError(f"{source}.time_grid: {exc}") from None


def cmd_trmfe(args) -> int:
    config, reference = _inputs(args)
    pp = config.postprocess
    source = args.config or config.name  # the prefix parse_config gives its errors
    if pp is None:
        raise ConfigError(f"{source}.postprocess: trmfe requires a postprocess block")
    _grid_checked(source, kernel_step, time_grid(*config.time_grid), pp)  # before simulating
    s_zero, s_high = (simulate(config, regime).trace for regime in FIELD_REGIMES)
    columns = _grid_checked(source, observed_ratio, s_high, s_zero, pp)
    meta = {
        "command": "trmfe",
        "name": config.name,
        "config_sha256": config.digest(),
        "noise_method": config.noise_method,
        "postprocess": f"theta={pp.theta}, tau_f={pp.tau_f}, t0={pp.t0}, t_g={pp.t_g}",
        "edge_unreliable_before_ns": float(s_zero.times[0] + (pp.t_g + 3 * pp.tau_f)),
        "units": "time_ns, dimensionless",
    }
    return _finish(args, reference, columns["time_ns"], columns["ratio"], columns, meta)


def cmd_validate(args) -> int:
    from .validate import SUITES, run_suite  # the gate-level oracle loads only for this command
    if args.suite not in (*SUITES, "all"):  # a suite's own ValueError is no usage error
        print(f"error: unknown suite {args.suite!r}; available: {', '.join([*SUITES, 'all'])}",
              file=sys.stderr)
        return 1
    results = run_suite(args.suite)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input: exit 1, as argparse's 2 is taken
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbeats",
        description="Quantum-beat simulator for spin-correlated radical pairs",
    )
    parser.add_argument("--version", action="version", version=f"qbeats {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="path to a YAML experiment configuration")
        source.add_argument("--preset", choices=PRESETS,
                            help=f"built-in experiment preset (default: {PRESETS[0]})")
        p.add_argument("--out", default="qbeats_out.csv", help="output CSV path")
        p.add_argument("--compare", metavar="CSV",
                       help="report the RMS deviation from a (time_ns, value) "
                            "reference curve (informational only)")

    p_sim = sub.add_parser("simulate", help="singlet-probability trace S(t)")
    common(p_sim)
    p_sim.add_argument("--field", choices=FIELD_REGIMES,
                       help="override the configured field regime")
    p_sim.add_argument("--sectors", action="store_true",
                       help="include per-sector trace columns")
    p_sim.set_defaults(func=cmd_simulate)

    p_ratio = sub.add_parser("trmfe", help="TR-MFE ratio curve I_B/I_0")
    common(p_ratio)
    p_ratio.set_defaults(func=cmd_trmfe)

    p_val = sub.add_parser("validate", help="run built-in validation suites")
    p_val.add_argument("--suite", default="all",
                       help="tables | oracle | channel-circuit | kak | correction | all")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
