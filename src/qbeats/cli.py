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
import functools
import os
import sys

import numpy as np

from . import __version__
from .config import (FIELD_REGIMES, PRESETS, ConfigError, ExperimentConfig, load_config_file,
                     load_preset, read_text)
from .dynamics import NumericalError, time_grid
from .pipeline import simulate
from .postprocess import kernel_step, observed_ratio

CSV_BLOCK_CELLS = 6 * 1024  # cells formatted per write: bounds the memory of one block
FLOAT_WORDS = ("nan", "inf", "infinity")  # the spellings of float() that start with a letter
SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split of a double into two 26-bit halves
CELL = 32  # bytes of a cell's layout: sign 0, digits 1-22, exponent 24-28, separator 31
EXP_MAX = 281  # |E| of the cells formatted in numpy (1e-280 <= |x| < 1e281), and 1 spare
CONTROL_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(32), *range(127, 160))}


def _pow10(k: int) -> tuple[float, float, float, float]:
    """10**k as (hi, lo, *_split(hi)): hi is 10**k and lo the rest, each correctly rounded."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den  # the true division of two ints rounds correctly
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q), *_split(hi)


def _split(v):
    """v as hi + lo with 26 significant bits each, so that a product of halves is exact."""
    t = SPLITTER * v
    hi = t - (t - v)
    return hi, v - hi


@functools.cache
def _layout() -> tuple[np.ndarray, ...]:
    """Tables of the '%.17g' layout, built once per process on first use.

    ``words`` holds the four ASCII digits of each chunk 0000-9999 as one native word, then the
    words '\\0\\0\\0d' (index 10000 + d), and ``trailing`` the trailing zeros of each chunk.  By
    row X + EXP_MAX, for a cell of exponent X: ``powers`` holds ``_pow10(16 - X)``, ``kind`` its
    layout, one of 23: X + 4 in fixed notation (-4 <= X <= 16), else 21 or 22 for two or three
    exponent digits, and ``template`` its fixed bytes (sign, '0.' and zeros, point, exponent
    'e±XXX', separator).  By layout, for the digits d0..d16, ``masks`` holds the bytes that take
    a digit from 6, 5 or 1 bytes to the right.  ``keep``, by row kind * 17 + z, holds the bytes
    kept when the digits end in z zeros.
    """
    two = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint8).reshape(100, 2)
    words = np.zeros((10010, 4), np.uint8)
    words[:10000, :2] = two.repeat(100, axis=0)
    words[:10000, 2:] = np.tile(two, (100, 1))
    words[10000:, 3] = two[:10, 1]
    chunk = np.arange(10000, dtype=np.uint16)
    trailing = sum((chunk % 10 ** k == 0).astype(np.uint8) for k in range(1, 5))
    X = np.arange(-EXP_MAX, EXP_MAX + 1)
    e = np.abs(X)
    # from an iterator: a list of 563 tuples would raise the process's peak RSS
    powers = np.fromiter((v for x in X for v in _pow10(16 - int(x))), float).reshape(-1, 4).T
    kind = np.where((X >= -4) & (X <= 16), X + 4, np.where(e < 100, 21, 22))
    exponent = np.column_stack([np.full_like(X, ord("e")), np.where(X < 0, ord("-"), ord("+")),
                                48 + e // 100, 48 + e // 10 % 10, 48 + e % 10])
    X = np.array([*range(-4, 17), 17, 100])[:, None]  # an exponent of each layout
    fixed = X <= 16  # '%g' at precision 17: else d0.d1...d16e+XX
    small = X < 0  # '0.' and -X - 1 zeros before d0
    P = np.where(fixed, X, 0)  # otherwise the point follows d_P
    c = np.arange(CELL)
    template = np.zeros((len(X), CELL), np.uint8)
    template[:, 0] = ord("-")
    template[:, 1:6] = np.where(small, ord("0"), 0)
    template[c == np.where(small, 6 + X, P + 2)] = ord(".")
    template[:, 31] = ord(",")
    template = template[kind]
    template[:, 24:29] = exponent  # kept in scientific notation only
    masks = np.stack([~small & (c >= 1) & (c <= P + 1),  # d0..dP before the point
                      ~small & (c >= P + 3) & (c <= 18),  # the digits after it
                      small & (c >= 6) & (c <= 22)])  # d0..d16 after '0.' and zeros
    z = np.arange(17)
    start = np.where(small, 5 + X, 1)[:, :, None]
    end = np.where(small, 23 - z, np.where(z >= 16 - P, P + 2, 19 - z))[:, :, None]
    keep = (c >= start) & (c < end)
    keep[21:, :, 24:29] = True
    keep[21, :, 26] = False  # the hundreds digit of an exponent below 100
    keep[:, :, [0, 31]] = True  # the sign, cleared for x >= 0 in format_rows, and separator
    return (words.view(np.uint32).ravel(), trailing, powers, kind, template,
            masks * np.uint8(255), keep.reshape(-1, CELL))


def _significands(x: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, ...]:
    """(N, E + EXP_MAX, certain): the 17 digits N = round(|x| 10^(16-E)) of each cell,
    with E = floor(log10 |x|), and where N is certain to be those of '%.17g'.

    N comes from one double-double product: 10^(16-E) is hi + lo, read from ``powers``
    with the halves of hi, |x| hi is exact by Dekker's split, and N is off by less
    than 1e-13 of a unit.  N is certain where x is finite and 1e-280 <= |x| < 1e281,
    10^16 < N < 10^17 - 1 before rounding (E was right and rounding adds no digit)
    and the fraction of N is more than 1e-6 from 1/2 (rounding it half up then agrees
    with '%', which rounds an exact tie to even).  Elsewhere N is 10^16, which keeps
    a log10 off by one inside the tables.
    """
    a = np.abs(x)
    certain = (a >= 1e-280) & (a < 1e281)
    a[~certain] = 1.0
    row = np.floor(np.log10(a)).astype(np.intp) + EXP_MAX
    hi, lo, bh, bl = (np.take(p, row) for p in powers)
    p = a * hi
    ah, al = _split(a)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # p + e = a hi exactly
    e += a * lo
    ph = p + e
    pl = e - (ph - p)
    floor = np.floor(pl)
    N = ph.astype(np.int64) + floor.astype(np.int64)
    pl -= floor
    certain &= (N > 10 ** 16) & (N < 10 ** 17 - 1) & (np.abs(pl - 0.5) > 1e-6)
    N += pl > 0.5
    N[~certain] = 10 ** 16
    return N, row, certain


def format_rows(block: np.ndarray) -> bytes:
    """The rows of a 2-D float array as CSV lines, each cell ``'%.17g' % x``.

    A cell whose 17 digits ``_significands`` certifies is laid out in numpy.  Every
    other cell, with ±0, subnormals, nan and ±inf, is ``'%.17g' % x`` itself.
    """
    words, trailing, powers, kind, template, masks, keep = _layout()
    x = block.ravel()
    n = len(x)
    N, row, certain = _significands(x, powers)
    # N = d0 c1 c2 c3 c4 in 4-digit chunks, laid out as 8 words (CELL bytes) a cell
    heads = [N // 10 ** k for k in (16, 12, 8, 4)] + [N]  # d0, d0 c1, ..., N
    chunks = [b - a * 10 ** 4 for a, b in zip(heads, heads[1:])]
    digits = np.zeros((n + 1, 8), np.uint32)  # a spare row for the shifted reads below
    for j, chunk in enumerate([10000 + heads[0], *chunks]):
        digits[:n, 1 + j] = words[chunk]
    digits = digits.view(np.uint8).ravel()  # d0..d16 at bytes 7-23 of a cell
    z = trailing[chunks[0]]  # the trailing zeros of N
    for chunk in chunks[1:]:
        t = trailing[chunk]
        z = t + (t == 4) * z
    layout = np.take(kind, row)
    cells = np.take(template, row, axis=0)
    for k, shift in enumerate((6, 5, 1)):
        mask = np.take(masks[k], layout, axis=0)
        cells |= np.bitwise_and(digits[shift:shift + n * CELL].reshape(n, CELL), mask, out=mask)
    cells.reshape(-1, block.shape[1], CELL)[:, -1, -1] = ord("\n")
    cells *= np.take(keep, layout * 17 + z, axis=0)
    cells[:, 0] *= x < 0
    for i in np.flatnonzero(~certain):
        text = ("%.17g" % x[i]).encode()
        cells[i, :-1] = 0
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells.tobytes().translate(None, b"\0")  # no kept byte is NUL


def _escaped(text: str) -> str:
    """``text`` on one line: C0, DEL and C1 escaped as by ``repr``, lone surrogates '\\udcXX'."""
    return text.translate(CONTROL_ESCAPES).encode(errors="backslashreplace").decode()


def write_csv(path: str, names: list[str], columns: list[np.ndarray], meta: dict) -> None:
    """The CSV as UTF-8 bytes and LF line ends: '#' header lines, each value ``_escaped``,
    the column ``names``, and the ``format_rows`` blocks of ``columns``, a list of (T,)
    columns and (T, k) tables whose columns run in the order of ``names``."""
    lines = [f"qbeats {__version__}", *(f"{k}: {v}" for k, v in meta.items())]
    header = "".join(f"# {_escaped(line)}\n" for line in lines) + ",".join(names) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        rows = max(1, CSV_BLOCK_CELLS // len(names))
        for start in range(0, len(columns[0]), rows):
            fh.write(format_rows(np.column_stack([c[start:start + rows] for c in columns])))


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


def _finish(args, reference, names, columns, meta: dict) -> int:
    """Write the CSV, after the RMS deviation of its second column from the ``--compare``
    reference, if any, interpolated linearly onto the grid where they overlap.  Purely
    informational: nothing is asserted about external data."""
    times, values = columns[:2]
    if reference is not None:
        ref_t, ref_v = reference.T
        mask = (times >= ref_t[0]) & (times <= ref_t[-1])
        if not mask.any():
            raise ConfigError(f"{args.compare}: no overlap with the simulated grid")
        rms = np.sqrt(np.mean((values[mask] - np.interp(times[mask], ref_t, ref_v)) ** 2))
        meta["rms_vs_reference"] = f"{rms:.6g} ({args.compare})"
        print(f"RMS deviation vs {_escaped(args.compare)}: {rms:.6g}")
    try:
        write_csv(args.out, names, columns, meta)
    except OSError as exc:
        raise ConfigError(f"{args.out}: {exc.strerror}") from None
    print(f"wrote {_escaped(args.out)} ({len(times)} rows)")
    return 0


def cmd_simulate(args) -> int:
    config, reference = _inputs(args)
    if args.sectors and config.initial_sector():
        raise ConfigError(f"{args.config or config.name}.initial_state: --sectors splits the "
                          f"mixed nuclear state; {config.initial_state!r} is one pure state")
    regime = args.field or config.field_regime
    result = simulate(config, regime, sectors=args.sectors)
    meta = {
        "command": "simulate",
        "name": config.name,
        "config_sha256": config.digest(),
        "field_regime": regime,
        "noise_method": config.noise_method,
        "initial_state": config.initial_state,
        "units": "time_ns, probability",
    }
    if args.sectors:  # each column's share of the main trace's ensemble
        meta["sector_weights"] = ",".join(map(repr, result.weights))
    return _finish(args, reference, ["time_ns", "singlet_probability", *result.labels],
                   [result.trace.times, result.trace.values, result.sectors], meta)


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
    return _finish(args, reference, list(columns), list(columns.values()), meta)


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
        print(f"configuration error: {_escaped(str(exc))}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
