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
from dataclasses import dataclass, field

import numpy as np
import yaml

from .constants import hyperfine_angular_frequency, zeeman_half_angular_frequency
from .hamiltonians import NuclearGroup, SpinSystemSpec, one_group_reduced_index
from .noisecal import MeasurementStats, UnrecoverableNoiseError, correction_denominators
from .postprocess import FluorescenceParams
from .relaxation import SINGLET_CORRELATORS, relaxed_bell_probabilities
from .spinalg import HalfInt

PRESETS = ("octalin", "dmb")
MAX_TIME_POINTS = 1_000_000  # a trmfe CSV of about 106 MB; no route builds a (T, 4, 4) trajectory
# nuclei in the last group, by number of groups: the dense cation blocks grow as count^3, and
# trmfe at the cap takes about 1 s and 0.43 GB (one group), 2.4 s and 0.50 GB (two groups)
# on a 2-core host with one BLAS thread
MAX_COUNT = (400, 100)
NOISE_METHODS = ("none", "kraus", "per-gate", "echo-synthetic")
FIELD_REGIMES = ("zero", "high")


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

    def spin_spec(self, regime: str | None = None) -> SpinSystemSpec:
        regime = regime or self.field_regime
        if regime not in FIELD_REGIMES:
            raise ConfigError(f"unknown field regime {regime!r}")
        T1, T2 = self.relaxation[regime]
        return SpinSystemSpec(
            groups=self.groups,
            g1=self.g1,
            g2=self.g2,
            field_B=self.field_B if regime == "high" else 0.0,
            T1=T1,
            T2=T2,
        )

    def initial_sector(self) -> tuple[HalfInt, HalfInt] | None:
        """(I, m) of a pure one-group initial state; None for the mixed state."""
        if self.initial_state == "mixed":
            return None
        return _parse_sector(self.initial_state)

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "groups": [{"count": g.count, "hfc_mT": g.hfc_mT} for g in self.groups],
            "g1": self.g1,
            "g2": self.g2,
            "field_B": self.field_B,
            "relaxation": {k: list(v) for k, v in sorted(self.relaxation.items())},
            "field_regime": self.field_regime,
            "initial_state": self.initial_state,
            "noise_method": self.noise_method,
            "time_grid": list(self.time_grid),
            "postprocess": None if self.postprocess is None else [
                self.postprocess.theta, self.postprocess.tau_f,
                self.postprocess.t0, self.postprocess.t_g,
            ],
            "hardware": [self.hardware.T1_ns, self.hardware.T2_ns,
                         self.hardware.identity_ns, self.hardware.u_circuit_ns,
                         list(self.hardware.drift_phase_rate)],
        }

    def digest(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _require(cond: bool, where: str, message: str):
    if not cond:
        raise ConfigError(f"{where}: {message}")


def _mapping(raw, where: str, known: tuple[str, ...],
             message: str = "expected a mapping") -> dict:
    """``raw`` checked to be a mapping whose every key is one of ``known``."""
    _require(isinstance(raw, dict), where, message)
    for key in raw:
        _require(key in known, f"{where}.{key}", "unknown key")
    return raw


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
        _mapping(g, spot, ("count", "hfc_mT", "hfc_G"))
        count = g.get("count")
        _require(isinstance(count, int) and not isinstance(count, bool) and count >= 1, spot,
                 "count must be an integer >= 1")
        _require(not {"hfc_mT", "hfc_G"} <= g.keys(), spot, "give hfc_mT or hfc_G, not both")
        if "hfc_mT" in g:
            hfc = _finite(g["hfc_mT"], spot + ".hfc_mT")
        elif "hfc_G" in g:
            hfc = _finite(g["hfc_G"], spot + ".hfc_G") * 0.1
        else:
            raise ConfigError(f"{spot}: missing hfc_mT (or hfc_G)")
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
    g1 = _finite(system.get("g1", 2.0028), f"{name}.system.g1")
    g2 = _finite(system.get("g2", 2.0028), f"{name}.system.g2")
    field_B = _finite(system.get("field_B", 0.0), f"{name}.system.field_B")

    relax_raw = _mapping(system.get("relaxation", {}), f"{name}.system.relaxation",
                         FIELD_REGIMES)
    relaxation = {}
    for regime in FIELD_REGIMES:
        where = f"{name}.system.relaxation.{regime}"
        block = _mapping(relax_raw.get(regime, {}), where, ("T1", "T2"))
        T1 = _float(block.get("T1", math.inf), f"{where}.T1")
        T2 = _float(block.get("T2", math.inf), f"{where}.T2")
        # both regimes are checked: --field and trmfe run the unconfigured one too
        try:
            SpinSystemSpec(groups=groups, T1=T1, T2=T2)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        _require(not (math.isnan(T1) or math.isnan(T2)), where, "relaxation times must not be NaN")
        relaxation[regime] = (T1, T2)

    regime = data.get("field_regime", "zero")
    _require(regime in FIELD_REGIMES, f"{name}.field_regime",
             f"must be one of {FIELD_REGIMES}")
    noise = data.get("noise_method", "kraus")
    _require(noise in NOISE_METHODS, f"{name}.noise_method",
             f"must be one of {NOISE_METHODS}")
    initial = str(data.get("initial_state", "mixed"))
    _check_initial_state(initial, groups, noise, f"{name}.initial_state")

    grid_raw = _mapping(data.get("time_grid", {}), f"{name}.time_grid", ("start", "end", "step"))
    grid = (
        _finite(grid_raw.get("start", 0.0), f"{name}.time_grid.start"),
        _finite(grid_raw.get("end", 100.0), f"{name}.time_grid.end"),
        _finite(grid_raw.get("step", 0.1), f"{name}.time_grid.step"),
    )
    _require(grid[2] > 0, f"{name}.time_grid.step", "step must be positive")
    _require(grid[1] >= grid[0], f"{name}.time_grid.end", "end must be >= start")
    _require(noise == "none" or grid[0] >= 0, f"{name}.time_grid.start",
             f"{noise} noise relaxes over elapsed time and needs times >= 0")
    intervals = (grid[1] - grid[0]) / grid[2]
    _require(intervals < MAX_TIME_POINTS, f"{name}.time_grid.step",
             f"the grid has {intervals:.3g} intervals; at most {MAX_TIME_POINTS - 1} allowed")

    post = None
    if data.get("postprocess") is not None:
        p = _mapping(data["postprocess"], f"{name}.postprocess", ("theta", "tau_f", "t0", "t_g"))
        try:
            post = FluorescenceParams(
                theta=_float(p.get("theta", 0.0), f"{name}.postprocess.theta"),
                tau_f=_float(p.get("tau_f", 1.2), f"{name}.postprocess.tau_f"),
                t0=_float(p.get("t0", 1.0), f"{name}.postprocess.t0"),
                t_g=_float(p.get("t_g", 1.0), f"{name}.postprocess.t_g"),
            )
        except ValueError as exc:
            raise ConfigError(f"{name}.postprocess: {exc}") from None

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


def _parse_hardware(raw, where: str) -> HardwareModel:
    """Positive finite qubit T1/T2 with T2 <= 2 T1, positive identity duration,
    finite circuit duration >= 0 and one or two finite drift rates."""
    _mapping(raw, where, ("T1_us", "T2_us", "identity_ns", "u_circuit_ns", "drift_phase_rate"))
    T1_us, T2_us, identity_ns, u_circuit_ns = (
        _finite(raw.get(key, default), f"{where}.{key}")
        for key, default in (("T1_us", 100.0), ("T2_us", 100.0), ("identity_ns", 35.5),
                             ("u_circuit_ns", 300.0)))
    for key, value in (("T1_us", T1_us), ("T2_us", T2_us), ("identity_ns", identity_ns)):
        _require(value > 0, f"{where}.{key}", "must be positive")
    _require(u_circuit_ns >= 0, f"{where}.u_circuit_ns", "must be >= 0")
    _require(T2_us <= 2 * T1_us, f"{where}.T2_us", f"{T2_us} exceeds 2 * T1_us = {2 * T1_us}")
    _require(math.isfinite(T1_us * 1000.0) and math.isfinite(T2_us * 1000.0), where,
             "T1_us or T2_us is too large")
    drift = raw.get("drift_phase_rate", 0.0)
    drift = list(drift) if isinstance(drift, (list, tuple)) else [drift]
    _require(1 <= len(drift) <= 2, f"{where}.drift_phase_rate",
             "expected one rate, or one per electron site")
    drift = [_finite(d, f"{where}.drift_phase_rate") for d in drift]
    return HardwareModel(T1_ns=T1_us * 1000.0, T2_ns=T2_us * 1000.0, identity_ns=identity_ns,
                         u_circuit_ns=u_circuit_ns, drift_phase_rate=(drift[0], drift[-1]))


def _check_frequencies(config: ExperimentConfig, where: str) -> None:
    """Derived angular frequencies, and their phases over the grid, must be finite."""
    t_max = max(abs(config.time_grid[0]), abs(config.time_grid[1]))
    rates = {f"hyperfine[{i}]": hyperfine_angular_frequency(g.hfc_mT, config.g1)
             for i, g in enumerate(config.groups)}
    for field_B in (0.0, config.field_B):
        rates[f"b1 at {field_B} T"] = zeeman_half_angular_frequency(field_B, config.g1)
        rates[f"b2 at {field_B} T"] = zeeman_half_angular_frequency(field_B, config.g2)
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


def load_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a text file") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: {_yaml_problem(exc)}") from None
    return parse_config(data, name=path)


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """A YAML error on one line: 'line L, column C: <problem>' where the parser marks it."""
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

