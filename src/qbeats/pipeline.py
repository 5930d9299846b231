"""End-to-end simulation pipelines: build -> evolve -> relax -> combine.

One-group systems reduce to five representative |I, m=I> beat spectra whose
count-weighted sum, evaluated once, reproduces the maximally mixed nuclear
state (zero field weights over I, high field weights over |m|).  Two-group
systems run one mixed-register evolution per I2 sector; sector results are
combined at the electron-pair-trajectory level, which keeps the classical
reassembly exact also in the presence of relaxation.

``simulate`` is the one entry point from a resolved configuration to S(t):
it picks the state preparation and owns the noise-method dispatch.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .dynamics import (
    PairSpectrum,
    TimeSeries,
    cation_spectrum,
    clip_probabilities,
    evaluate_spectrum,
    one_group_weights,
    singlet_values,
    time_grid,
)
from .hamiltonians import (
    SpinSystemSpec,
    TwoGroupSector,
    build_cation_one_group,
    build_partitioned,
    build_two_group_block,
    distinct_spins,
    one_group_reduced_index,
)
from .noisemethods import (
    echo_synthetic_encoded_values,
    echo_synthetic_sector_values,
    echo_targets,
    per_gate_singlet_values,
)
from .relaxation import relax_pair_trajectory
from .spinalg import HalfInt, spin_addition_counts


@dataclass
class PairTrace:
    """Electron-pair trajectory (T,4,4) on a grid, with provenance metadata."""

    times: np.ndarray
    trajectory: np.ndarray
    meta: dict

    def singlet(self, label: str = "") -> TimeSeries:
        vals = singlet_values(self.trajectory)
        return TimeSeries(self.times, clip_probabilities(vals, label), label, dict(self.meta))

    def relaxed(self, T1: float, T2: float, sites: str = "both") -> "PairTrace":
        if math.isinf(T1) and math.isinf(T2):
            return self
        relaxed = relax_pair_trajectory(self.trajectory, self.times, T1, T2, sites)
        meta = dict(self.meta, T1=T1, T2=T2)
        return PairTrace(self.times, relaxed, meta)


@dataclass
class SimulationResult:
    """Main S(t) trace plus per-sector columns (empty unless requested)."""

    trace: TimeSeries
    sectors: dict[str, np.ndarray]


def one_group_sector_spectra(spec: SpinSystemSpec, states=None) -> dict[HalfInt, PairSpectrum]:
    """Beat spectra of |I, m> x |S> by I, for each (I, m) of ``states`` (default: |I, m=I>
    for every distinct I), on one reduced cation block."""
    n, (h, twice_m) = spec.groups[0].count, build_cation_one_group(spec)

    def spectrum(I, m):
        weights = np.zeros(len(h) // 2)
        weights[one_group_reduced_index(n, I, m)] = 1.0
        return cation_spectrum(h, twice_m, weights, spec.b2)
    return {I: spectrum(I, m) for I, m in states or [(I, I) for I in distinct_spins(n)]}


def one_group_sector_trajectories(spec: SpinSystemSpec,
                                  times: np.ndarray) -> dict[HalfInt, PairTrace]:
    """Pair trajectories of |I, m=I> x |S> for every distinct I (reduced basis)."""
    return {I: PairTrace(times, evaluate_spectrum(s, times), {"I": I, "m": I})
            for I, s in one_group_sector_spectra(spec).items()}


def _class_average(n: int, field_regime: str, per_sector: dict):
    """Count-weighted average of per-|I, m=I> values or spectra over the mixed nuclear state.

    Each representative stands in for its degeneracy class: total spin I at
    zero field, |m| at high field.
    """
    weights = one_group_weights(n, field_regime)
    total = sum(weights.values())
    terms = [(w / total) * per_sector[abs(k)] for k, w in weights.items()]
    return functools.reduce(operator.add, terms)


def one_group_pair_trace(spec: SpinSystemSpec, field_regime: str, times: np.ndarray,
                         spectra: dict[HalfInt, PairSpectrum] | None = None) -> PairTrace:
    """Mixed-state pair trajectory of a one-group system.

    The count-weighted sector spectra are summed and evaluated once.
    ``spectra``, when given, are ``one_group_sector_spectra`` of the same spec.
    """
    avg = _class_average(spec.groups[0].count, field_regime,
                         spectra or one_group_sector_spectra(spec))
    return PairTrace(times, evaluate_spectrum(avg, times),
                     {"system": "one_group", "field_regime": field_regime})


def two_group_sector_spectrum(sector: TwoGroupSector) -> PairSpectrum:
    """Beat spectrum of one I2 sector's mixed register (real slots only).

    Subnormalized by design: each real register slot carries weight
    1/register_size, exactly what a padded purification run leaves behind
    once the frozen padding-state contribution is subtracted.
    """
    weights = np.full(sector.real_register, 1.0 / sector.register_size)
    return cation_spectrum(sector.cation, sector.twice_m, weights, sector.b2)


def two_group_pair_trace(spec: SpinSystemSpec, times: np.ndarray,
                         sectors: bool = False) -> PairTrace:
    """Fully mixed nuclear-state pair trajectory via I2 sector decomposition.

    The weighted sector spectra are summed and evaluated once.  With
    ``sectors``, ``meta["sectors"]`` maps each I2 (descending) to the
    coherent singlet trace of its padded-register run, in which the frozen
    padding slots count as 1.
    """
    counts2 = spin_addition_counts(spec.groups[1].count)
    total = 2 ** (spec.groups[0].count + spec.groups[1].count)
    meta = {"system": "two_group"}
    padded = meta.setdefault("sectors", {}) if sectors else {}

    def contribution(I2):
        sector = build_two_group_block(I2, spec)
        part = two_group_sector_spectrum(sector)
        if sectors:
            padded[I2] = (evaluate_spectrum(part, times, singlet=True)
                          + sector.pad_register / sector.register_size)
        return (counts2[I2] * sector.register_size / total) * part

    # one sector at a time: each is dropped before the next is built
    spectrum = functools.reduce(operator.add, map(contribution, sorted(counts2, reverse=True)))
    return PairTrace(times, evaluate_spectrum(spectrum, times), meta)


def _sector_label(I: HalfInt) -> str:
    return f"I={I}" if I.is_integer else f"I={I.twice_value}/2"


def _noisy_singlet(method: str, trace: PairTrace, spec: SpinSystemSpec) -> np.ndarray:
    """S(t) of a pair trajectory under 'none', 'kraus' or 'per-gate' noise."""
    if method == "none":
        return singlet_values(trace.trajectory)
    if method == "kraus":
        return singlet_values(trace.relaxed(spec.T1, spec.T2).trajectory)
    return per_gate_singlet_values(trace.trajectory, trace.times, spec.T1, spec.T2)


def simulate(config: ExperimentConfig, regime: str, sectors: bool = False) -> SimulationResult:
    """S(t) of a validated configuration in one field regime ('zero' or 'high').

    ``none``, ``kraus`` and ``per-gate`` act on the system's pair trajectory.
    ``echo-synthetic`` runs every |I, m=I> sector in one batch on the
    partitioned 3-qubit Hamiltonians (one group), or on the coherent S(t)
    encoded in an Rz rotation (two groups).  With ``sectors`` the result
    also carries one column per sector: the noisy |I, m=I> traces of a mixed
    one-group run, or the coherent padded-register trace of each I2 sector
    of a two-group run.
    """
    spec = config.spin_spec(regime)
    times = time_grid(*config.time_grid)
    method = config.noise_method
    columns: dict[str, np.ndarray] = {}
    if method == "echo-synthetic":
        # the target statistics depend on (t, T1, T2, hardware) only
        target = echo_targets(times, spec.T1, spec.T2, config.hardware)

    if len(spec.groups) == 2:
        trace = two_group_pair_trace(spec, times, sectors)
        if method == "echo-synthetic":
            values = echo_synthetic_encoded_values(trace.singlet("S_coherent"), target,
                                                   config.hardware)
        else:
            values = _noisy_singlet(method, trace, spec)
        for I2, padded in trace.meta.get("sectors", {}).items():
            columns[f"I2={I2}"] = clip_probabilities(padded, f"I2={I2}")
    else:
        n = spec.groups[0].count
        pure = config.initial_sector()
        if method == "echo-synthetic":
            spins = [pure[0]] if pure else distinct_spins(n)
            rows = echo_synthetic_sector_values([build_partitioned(I, spec) for I in spins],
                                                times, target, config.hardware)
            per_sector = {I: clip_probabilities(row, _sector_label(I))
                          for I, row in zip(spins, rows)}
            values = per_sector[pure[0]] if pure else _class_average(n, regime, per_sector)
            if sectors and not pure:
                columns = {_sector_label(I): v for I, v in per_sector.items()}
        elif pure:
            spectrum = one_group_sector_spectra(spec, [pure])[pure[0]]
            trace = PairTrace(times, evaluate_spectrum(spectrum, times), {})
            values = _noisy_singlet(method, trace, spec)
        else:
            spectra = one_group_sector_spectra(spec)
            values = _noisy_singlet(method, one_group_pair_trace(spec, regime, times, spectra),
                                    spec)
            for I, s in spectra.items() if sectors else ():
                label, tr = _sector_label(I), PairTrace(times, evaluate_spectrum(s, times), {})
                columns[label] = clip_probabilities(_noisy_singlet(method, tr, spec), label)

    label = f"S_{regime}"
    return SimulationResult(TimeSeries(times, clip_probabilities(values, label), label), columns)
