"""Experiment configuration: YAML schema, presets, and validation.

A config file is a single YAML document; presets (octalin, dmb) ship as data
files carrying the published experimental constants and can be overlaid by a
user config.  Field values: hyperfine constants in mT (or gauss via
``hfc_G``), magnetic field in tesla, times in ns, ``.inf`` for infinite
relaxation times.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from .dynamics import time_grid
from .hamiltonians import NuclearGroup, SpinSystemSpec, one_group_reduced_index
from .noisecal import MeasurementStats, UnrecoverableNoiseError, correction_denominators
from .postprocess import FluorescenceParams
from .relaxation import SINGLET_CORRELATORS, relaxed_bell_probabilities
from .spinalg import HalfInt

PRESETS = ("octalin", "dmb")
MAX_TIME_POINTS = 1_000_000  # octalin trmfe CSV: 121 MB (dmb 86 MB); no (T, 4, 4) trajectory
# nuclei in the last group, by number of groups: default-grid trmfe at the cap takes up to
# 1.8 s and 0.39 GB (one group, mostly the exact spin multiplicities) and 1.9 s and 0.13 GB
# (two groups) on a busy 2-core host with one BLAS thread
MAX_COUNT = (60_000, 200)
NOISE_METHODS = ("none", "kraus", "per-gate", "echo-synthetic")
FIELD_REGIMES = ("zero", "high")
HFC_MT_PER_UNIT = {"hfc_mT": 1.0, "hfc_G": 0.1}  # the keys of a hyperfine constant: mT per unit


# libyaml's parser where it is built; both resolve scalars with the same SafeConstructor
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class HardwareModel:
    """Synthetic-hardware constants for the echo-based noise method."""

    T1_ns: float = 100_000.0
    T2_ns: float = 100_000.0
    identity_ns: float = 35.5
    u_circuit_ns: float = 300.0  # nominal on-device duration of the evolution block
    drift_phase_rate: tuple[float, float] = (0.0, 0.0)

    def echo_channel(self, times, T1: float, T2: float):
        """The both-site channel (elapsed, T1, T2) of the echo-delay target runs on a grid.

        At time t a singlet pair idles for N = (T_qubit / (T_RP t_identity)) t
        identity gates, rounded down to a multiple of 8, with echo pulses
        interleaved and under the synthetic qubit noise.  T_qubit and T_RP are
        the means of the hardware and of the radical-pair T1 and T2, so the
        pair's decay at the end of the run matches the radical-pair decay at
        simulated time t.  The per-site thermal map commutes with X and the
        delay segments N/8, N/4, N/4, N/4, N/8 between the four X pulses sum
        the drift phase to zero, so the run is the both-site channel of
        duration N t_identity at the hardware (T1, T2).  With infinite T1 the
        hardware cannot switch off amplitude damping, so the dephasing-only
        channel of duration t, the Kraus channel, supplies the target instead.
        """
        t = np.asarray(times, dtype=float)
        if math.isinf(T1):
            return t, T1, T2
        # np.divide: a denominator that underflows to 0 gives inf, rejected at parse time
        rate = np.divide((self.T1_ns + self.T2_ns) / 2, (T1 + T2) / 2 * self.identity_ns)
        return (rate * t) // 8 * 8 * self.identity_ns, self.T1_ns, self.T2_ns


@dataclass
class ExperimentConfig:
    """Resolved experiment description."""

    name: str
    groups: tuple[NuclearGroup, ...]
    g1: float
    g2: float
    field_B: float
    relaxation: dict            # regime -> (T1, T2)
    field_regime: str = "zero"
    initial_state: str = "mixed"
    noise_method: str = "kraus"
    time_grid: tuple[float, float, float] = (0.0, 100.0, 0.1)
    postprocess: FluorescenceParams | None = None
    hardware: HardwareModel = field(default_factory=HardwareModel)

    def spin_spec(self, regime: str) -> SpinSystemSpec:
        T1, T2 = self.relaxation[regime]
        field_B = self.field_B if regime == "high" else 0.0
        return SpinSystemSpec(self.groups, self.g1, self.g2, field_B, T1, T2)

    def initial_sector(self) -> tuple[HalfInt, HalfInt] | None:
        """(I, m) of a pure one-group initial state; None for the mixed state."""
        if self.initial_state == "mixed":
            return None
        return _parse_sector(self.initial_state)

    def canonical(self) -> dict:
        """Every field, with ``postprocess`` and ``hardware`` as value lists."""
        out = asdict(self)
        out["hardware"] = list(out["hardware"].values())
        if self.postprocess is not None:
            out["postprocess"] = list(out["postprocess"].values())
        return out

    def digest(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _require(cond: bool, where: str, message: str):
    if not cond:
        raise ConfigError(f"{where}: {message}")


def _mapping(raw, where: str, known, message: str = "expected a mapping") -> dict:
    """``raw`` checked to be a mapping whose every key is one of ``known``."""
    _require(isinstance(raw, dict), where, message)
    for key in raw:
        _require(key in known, f"{where}.{key}", "unknown key")
    return raw


def _section(raw, where: str, defaults: dict, read) -> dict:
    """Each key of ``defaults`` read from the mapping ``raw`` (or its default) by ``read``."""
    _mapping(raw, where, defaults)
    return {key: read(raw.get(key, default), f"{where}.{key}")
            for key, default in defaults.items()}


def _float(raw, where: str) -> float:
    # a YAML boolean (true, yes, on) is no number, although float() reads it as 1.0
    _require(not isinstance(raw, bool), where, f"expected a number, got {raw!r}")
    if isinstance(raw, str) and raw.strip() in (".inf", "inf", "infinity"):
        return math.inf
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _finite(raw, where: str) -> float:
    value = _float(raw, where)
    _require(math.isfinite(value), where, f"expected a finite number, got {raw!r}")
    return value


def _parse_sector(text: str) -> tuple[HalfInt, HalfInt]:
    I, m = (HalfInt.from_float(float(x)) for x in text.split(","))
    return I, m


def _check_initial_state(initial: str, groups, noise: str, where: str) -> None:
    """'mixed', or a valid |I, m> of a one-group system (m = I for echo-synthetic)."""
    if initial == "mixed":
        return
    _require(len(groups) == 1, where, "two-group systems support only the mixed state")
    try:
        I, m = _parse_sector(initial)
        one_group_reduced_index(groups[0].count, I, m)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: expected 'mixed' or a valid 'I,m' ({exc})") from None
    _require(noise != "echo-synthetic" or m == I, where,
             "echo-synthetic supports the mixed state or |I, m=I> sectors")


def _parse_groups(raw, where: str) -> tuple[NuclearGroup, ...]:
    _require(isinstance(raw, list) and 1 <= len(raw) <= 2, where,
             "expected a list of one or two nuclear groups")
    out = []
    for i, g in enumerate(raw):
        spot = f"{where}[{i}]"
        _mapping(g, spot, ("count", *HFC_MT_PER_UNIT))
        count = g.get("count")
        _require(isinstance(count, int) and not isinstance(count, bool) and count >= 1, spot,
                 "count must be an integer >= 1")
        given = [key for key in HFC_MT_PER_UNIT if key in g]
        _require(len(given) < 2, spot, "give hfc_mT or hfc_G, not both")
        _require(len(given) == 1, spot, "missing hfc_mT (or hfc_G)")
        hfc = _finite(g[given[0]], f"{spot}.{given[0]}") * HFC_MT_PER_UNIT[given[0]]
        out.append(NuclearGroup(count, hfc))
    _require(len(out) == 1 or out[0].count == 2, f"{where}[0].count",
             "the small group of a two-group system must contain exactly 2 nuclei")
    cap = MAX_COUNT[len(out) - 1]
    _require(out[-1].count <= cap, f"{where}[{len(out) - 1}].count",
             f"{out[-1].count} nuclei; at most {cap} allowed in a "
             f"{('one', 'two')[len(out) - 1]}-group system")
    return tuple(out)


def parse_config(data: dict, name: str = "config") -> ExperimentConfig:
    _mapping(data, name, ("system", "field_regime", "initial_state", "noise_method",
                          "time_grid", "postprocess", "hardware", "name"),
             "top level must be a mapping")
    system = _mapping(data.get("system"), f"{name}.system",
                      ("groups", "g1", "g2", "field_B", "relaxation"), "missing system mapping")

    groups = _parse_groups(system.get("groups"), f"{name}.system.groups")
    g1, g2, field_B = (_finite(system.get(key, getattr(SpinSystemSpec, key)),
                               f"{name}.system.{key}") for key in ("g1", "g2", "field_B"))

    relax_raw = _mapping(system.get("relaxation", {}), f"{name}.system.relaxation",
                         FIELD_REGIMES)
    relaxation = {}
    for regime in FIELD_REGIMES:
        where = f"{name}.system.relaxation.{regime}"
        T1, T2 = _section(relax_raw.get(regime, {}), where,
                          {"T1": SpinSystemSpec.T1, "T2": SpinSystemSpec.T2}, _float).values()
        # both regimes are checked: --field and trmfe run the unconfigured one too
        try:
            SpinSystemSpec(groups=groups, T1=T1, T2=T2)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        _require(not (math.isnan(T1) or math.isnan(T2)), where, "relaxation times must not be NaN")
        relaxation[regime] = (T1, T2)

    regime = data.get("field_regime", ExperimentConfig.field_regime)
    _require(regime in FIELD_REGIMES, f"{name}.field_regime",
             f"must be one of {FIELD_REGIMES}")
    noise = data.get("noise_method", ExperimentConfig.noise_method)
    _require(noise in NOISE_METHODS, f"{name}.noise_method",
             f"must be one of {NOISE_METHODS}")
    initial = str(data.get("initial_state", ExperimentConfig.initial_state))
    _check_initial_state(initial, groups, noise, f"{name}.initial_state")

    grid = tuple(_section(data.get("time_grid", {}), f"{name}.time_grid",
                          dict(zip(("start", "end", "step"), ExperimentConfig.time_grid)),
                          _finite).values())
    _require(grid[2] > 0, f"{name}.time_grid.step", "step must be positive")
    _require(grid[1] >= grid[0], f"{name}.time_grid.end", "end must be >= start")
    _require(noise == "none" or grid[0] >= 0, f"{name}.time_grid.start",
             f"{noise} noise relaxes over elapsed time and needs times >= 0")
    intervals = (grid[1] - grid[0]) / grid[2]
    _require(intervals < MAX_TIME_POINTS, f"{name}.time_grid.step",
             f"the grid has {intervals:.3g} intervals; at most {MAX_TIME_POINTS - 1} allowed")
    _require(bool((np.diff(time_grid(*grid)) > 0).all()), f"{name}.time_grid.step",
             "the grid points are not strictly increasing: step is below the float spacing "
             "of the times")

    post = None
    if data.get("postprocess") is not None:
        # read outside the try: a ConfigError is a ValueError, and its path is already whole
        params = _section(data["postprocess"], f"{name}.postprocess",
                          {"theta": 0.0, "tau_f": 1.2, "t0": 1.0, "t_g": 1.0}, _float)
        try:
            post = FluorescenceParams(**params)
        except ValueError as exc:  # its message starts with the offending key
            raise ConfigError(f"{name}.postprocess.{exc}") from None

    config = ExperimentConfig(
        name=str(data.get("name", name)),
        groups=groups, g1=g1, g2=g2, field_B=field_B,
        relaxation=relaxation, field_regime=regime, initial_state=initial,
        noise_method=noise, time_grid=grid, postprocess=post,
        hardware=_parse_hardware(data.get("hardware", {}), f"{name}.hardware"),
    )
    _check_frequencies(config, f"{name}.system")
    _check_echo_hardware(config, f"{name}.hardware")
    return config


def _hardware_value(raw, where: str):
    """A finite number; ``drift_phase_rate`` is one rate, or one per electron site."""
    if not where.endswith(".drift_phase_rate"):
        return _finite(raw, where)
    rates = list(raw) if isinstance(raw, (list, tuple)) else [raw]
    _require(1 <= len(rates) <= 2, where, "expected one rate, or one per electron site")
    return tuple(_finite(rate, where) for rate in (rates[0], rates[-1]))


def _parse_hardware(raw, where: str) -> HardwareModel:
    """Positive finite qubit T1/T2 with T2 <= 2 T1, positive identity duration,
    finite circuit duration >= 0 and one or two finite drift rates."""
    hw = _section(raw, where, {
        "T1_us": HardwareModel.T1_ns / 1000.0, "T2_us": HardwareModel.T2_ns / 1000.0,
        "identity_ns": HardwareModel.identity_ns, "u_circuit_ns": HardwareModel.u_circuit_ns,
        "drift_phase_rate": HardwareModel.drift_phase_rate}, _hardware_value)
    for key in ("T1_us", "T2_us", "identity_ns"):
        _require(hw[key] > 0, f"{where}.{key}", "must be positive")
    _require(hw["u_circuit_ns"] >= 0, f"{where}.u_circuit_ns", "must be >= 0")
    T1_us, T2_us = hw.pop("T1_us"), hw.pop("T2_us")
    _require(T2_us <= 2 * T1_us, f"{where}.T2_us", f"{T2_us} exceeds 2 * T1_us = {2 * T1_us}")
    model = HardwareModel(T1_ns=T1_us * 1000.0, T2_ns=T2_us * 1000.0, **hw)
    _require(math.isfinite(model.T1_ns) and math.isfinite(model.T2_ns), where,
             "T1_us or T2_us is too large")
    return model


def _check_frequencies(config: ExperimentConfig, where: str) -> None:
    """Derived angular frequencies, and their phases over the grid, must be finite."""
    t_max = max(abs(config.time_grid[0]), abs(config.time_grid[1]))
    zero, high = (config.spin_spec(regime) for regime in FIELD_REGIMES)
    rates = {f"hyperfine[{i}]": rate for i, rate in enumerate(zero.hyperfine_rad_ns)}
    for spec in (zero, high):
        rates[f"b1 at {spec.field_B} T"], rates[f"b2 at {spec.field_B} T"] = spec.b1, spec.b2
    for label, rate in rates.items():
        _require(math.isfinite(rate * t_max), where,
                 f"angular frequency {label} = {rate:.3g} rad/ns is too large "
                 f"(its phase at t = {t_max:.3g} ns is not finite)")


def _check_echo_hardware(config: ExperimentConfig, where: str) -> None:
    """The hardware of an echo-synthetic run must leave the statistics correction
    solvable on its delay-only reference run, and the longest echo-delay target run of
    each regime must have a finite total delay.  The echo pulses cancel the drift
    phase, so no route reads it."""
    if config.noise_method != "echo-synthetic":
        return
    hw = config.hardware
    reference = relaxed_bell_probabilities(SINGLET_CORRELATORS, hw.u_circuit_ns,
                                           hw.T1_ns, hw.T2_ns)
    try:
        correction_denominators(MeasurementStats.from_array(np.clip(reference, 0.0, None)))
    except UnrecoverableNoiseError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    for regime, (T1, T2) in config.relaxation.items():
        with np.errstate(all="ignore"):
            delay = hw.echo_channel(config.time_grid[1], T1, T2)[0]
        _require(math.isfinite(delay), where,
                 f"the {regime}-field echo-delay run to t = {config.time_grid[1]:.3g} ns "
                 f"overflows ({delay:.3g} ns of identity gates)")


def read_text(path: str) -> str:
    """The text of an input file, a leading UTF-8 byte-order mark dropped; one that cannot be
    read as text is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a text file") from None


def load_config_file(path: str) -> ExperimentConfig:
    text = read_text(path)
    try:
        data = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {_yaml_problem(exc, text)}") from None
    return parse_config(data, name=path)


def _yaml_problem(exc: yaml.YAMLError, text: str) -> str:
    """A YAML error on one line: 'line L, column C: <problem>' where the parser marks it,
    or where the reader stops at an unacceptable character of ``text``."""
    if isinstance(exc, yaml.reader.ReaderError):  # libyaml counts the position in UTF-8 bytes
        before = (text[:exc.position] if YAML_LOADER is yaml.SafeLoader
                  else text.encode()[:exc.position].decode()).split("\n")
        return f"line {len(before)}, column {len(before[-1]) + 1}: {exc.reason}"
    mark = getattr(exc, "problem_mark", None)
    if mark is None or exc.problem is None:
        return " ".join(str(exc).split())
    return f"line {mark.line + 1}, column {mark.column + 1}: {exc.problem}"


def load_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    ref = importlib.resources.files("qbeats.data").joinpath(f"{name}.yaml")
    data = yaml.load(ref.read_text(), Loader=YAML_LOADER)
    return parse_config(data, name=name)

