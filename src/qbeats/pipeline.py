"""End-to-end simulation pipelines: build -> evolve -> relax -> combine.

Each regime is one beat spectrum.  A one-group system is its cation blocks,
one per total spin I, with every |I, m=I> representative carrying the count
of its class (zero field weights over I, high field weights over |m|); a
two-group system is every fixed-I2 cation block at once, each weighted by
its I2 degeneracy, which keeps the classical reassembly exact also in the
presence of relaxation.  Per-sector spectra are built only for sector
columns.

``simulate`` is the one entry point from a resolved configuration to S(t):
it picks the state preparation and owns the noise-method dispatch, which is
the choice of one both-site channel per regime.
"""

from __future__ import annotations

import math
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
    build_two_group_block,
    distinct_spins,
)
from .relaxation import (relax_pair_trajectory, relaxed_bell_probabilities, relaxed_singlet,
                         rz_encoded_correlators)
from .spinalg import HalfInt, multiplicity, spin_addition_counts


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


def _one_group_ensembles(spec: SpinSystemSpec, ensembles) -> list[PairSpectrum]:
    """Beat spectrum of sum weights[I, m] |I, m><I, m| x |S><S| for each ``weights`` dict of
    ``ensembles``, on the cation blocks of the I it reaches (one owner each)."""
    blocks = build_cation_one_group(spec)
    spectra = []
    for weights in ensembles:
        slot_weights: dict[HalfInt, np.ndarray] = {}
        for (I, m), w in weights.items():
            slot_weights.setdefault(I, np.zeros(multiplicity(I)))[(I - m).twice_value // 2] = w
        spectra.append(cation_spectrum([(*blocks[I], slot_weights[I])
                                        for I in blocks if I in slot_weights], spec.b2))
    return spectra


def one_group_sector_spectra(spec: SpinSystemSpec, states=None) -> dict[HalfInt, PairSpectrum]:
    """Beat spectra of |I, m> x |S> by I, for each (I, m) of ``states`` (default: |I, m=I>
    for every distinct I)."""
    states = states or [(I, I) for I in distinct_spins(spec.groups[0].count)]
    spectra = _one_group_ensembles(spec, [{(I, m): 1.0} for I, m in states])
    return {I: spectrum for (I, _), spectrum in zip(states, spectra)}


def one_group_sector_trajectories(spec: SpinSystemSpec,
                                  times: np.ndarray) -> dict[HalfInt, PairTrace]:
    """Pair trajectories of |I, m=I> x |S> for every distinct I (reduced basis)."""
    return {I: PairTrace(times, evaluate_spectrum(s, times), {"I": I, "m": I})
            for I, s in one_group_sector_spectra(spec).items()}


def one_group_spectrum(spec: SpinSystemSpec, field_regime: str) -> PairSpectrum:
    """Beat spectrum of the mixed nuclear state of a one-group system: one ensemble in
    which every |I, m=I> representative carries the weight of its class."""
    counts = one_group_weights(spec.groups[0].count, field_regime)
    total = sum(counts.values())
    return _one_group_ensembles(spec, [{(k, k): c / total for k, c in counts.items()}])[0]


def one_group_pair_trace(spec: SpinSystemSpec, field_regime: str,
                         times: np.ndarray) -> PairTrace:
    """Mixed-state pair trajectory of a one-group system."""
    return PairTrace(times, evaluate_spectrum(one_group_spectrum(spec, field_regime), times),
                     {"system": "one_group", "field_regime": field_regime})


def two_group_sector_spectrum(sector: TwoGroupSector) -> PairSpectrum:
    """Beat spectrum of one I2 sector's mixed register (real slots only).

    Subnormalized by design: each real register slot carries weight
    1/register_size, exactly what a padded purification run leaves behind
    once the frozen padding-state contribution is subtracted.
    """
    weights = np.full(sector.real_register, 1.0 / sector.register_size)
    return cation_spectrum([(sector.cation, sector.twice_m, weights)], sector.b2)


def two_group_spectrum(spec: SpinSystemSpec) -> PairSpectrum:
    """Beat spectrum of the fully mixed nuclear state of a two-group system: every I2
    sector's cation block at once, each slot weighted by its I2 degeneracy / 2^N."""
    n1, n2 = spec.groups[0].count, spec.groups[1].count
    sectors = [build_two_group_block(I2, spec) for I2 in spin_addition_counts(n2)]
    total = 2 ** (n1 + n2)
    return cation_spectrum([(s.cation, s.twice_m, np.full(s.real_register, s.degeneracy / total))
                            for s in sectors], spec.b2)


def two_group_pair_trace(spec: SpinSystemSpec, times: np.ndarray) -> PairTrace:
    """Fully mixed nuclear-state pair trajectory via I2 sector decomposition."""
    return PairTrace(times, evaluate_spectrum(two_group_spectrum(spec), times),
                     {"system": "two_group"})


def _sector_label(I: HalfInt) -> str:
    return f"I={I}" if I.is_integer else f"I={I.twice_value}/2"


def simulate(config: ExperimentConfig, regime: str, sectors: bool = False) -> SimulationResult:
    """S(t) of a validated configuration in one field regime ('zero' or 'high').

    Every noise method is one both-site channel (elapsed, T1, T2), picked once
    per regime: of duration t at T1 = T2 = inf for ``none``, at the regime's
    (T1, T2) for ``kraus`` and ``per-gate`` (the noisy identity delay of
    duration t is that channel), and ``config.hardware.echo_channel`` for
    ``echo-synthetic`` (the correction undoes the hardware damping, so the
    procedure leaves its target channel).  S(t) is read from the correlators
    of the system's beat spectrum after the channel; a two-group
    ``echo-synthetic`` run reads it from the coherent S(t) encoded in an Rz
    rotation instead.  No route builds a (T, 4, 4) pair trajectory, runs a
    circuit or loads the gate-level modules (``circuits``, ``backends``,
    ``library``, ``noisemethods``): they are the oracle of the tests and of
    ``validate``.  With ``sectors`` the result also carries one column per
    sector: the noisy |I, m=I> traces of a mixed one-group run, or the
    coherent padded-register trace of each I2 sector of a two-group run.
    """
    spec = config.spin_spec(regime)
    times = time_grid(*config.time_grid)
    method = config.noise_method
    if method == "echo-synthetic":
        channel = config.hardware.echo_channel(times, spec.T1, spec.T2)
    elif method == "none":
        channel = (times, math.inf, math.inf)
    else:
        channel = (times, spec.T1, spec.T2)
    pure = config.initial_sector()
    columns: dict[str, np.ndarray] = {}

    if len(spec.groups) == 2:
        spectrum = two_group_spectrum(spec)
        if method == "echo-synthetic":
            coherent = clip_probabilities(relaxed_singlet(spectrum, times, times, math.inf,
                                                          math.inf), "S_coherent")
            values = relaxed_bell_probabilities(rz_encoded_correlators(coherent), *channel)[..., 0]
        else:
            values = relaxed_singlet(spectrum, times, *channel)
        for I2 in spin_addition_counts(spec.groups[1].count) if sectors else ():
            # the coherent padded-register run, in which the frozen padding slots count as 1
            sector, label = build_two_group_block(I2, spec), f"I2={I2}"
            padded = evaluate_spectrum(two_group_sector_spectrum(sector), times, singlet=True)
            columns[label] = clip_probabilities(
                padded + sector.pad_register / sector.register_size, label)
    elif pure:
        spectrum = one_group_sector_spectra(spec, [pure])[pure[0]]
        values = relaxed_singlet(spectrum, times, *channel)
    else:
        values = relaxed_singlet(one_group_spectrum(spec, regime), times, *channel)
        for I, s in one_group_sector_spectra(spec).items() if sectors else ():
            label = _sector_label(I)
            columns[label] = clip_probabilities(relaxed_singlet(s, times, *channel), label)

    label = f"S_{regime}"
    return SimulationResult(TimeSeries(times, clip_probabilities(values, label), label), columns)
