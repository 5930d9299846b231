"""End-to-end simulation pipelines: build -> evolve -> relax -> combine.

Each regime is one beat spectrum, read from the cation blocks its ensemble
reaches (``build_cation_blocks``).  In a one-group system every |I, m=I>
representative carries the count of its class (zero field weights over I,
high field weights over |m|); in a two-group system every nuclear state of
every I2 sector is weighted by its I2 degeneracy, which keeps the classical
reassembly exact also in the presence of relaxation.  A sector column reads
one part of that ensemble through the same channel.

``simulate`` is the one entry point from a resolved configuration to S(t):
it picks the state preparation and owns the noise-method dispatch, which is
the choice of one both-site channel per regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .dynamics import (SINGLET, TRIPLET_0, PairSpectrum, TimeSeries, cation_spectrum,
                       clip_probabilities, one_group_weights, singlet_only, time_grid)
from .hamiltonians import SpinSystemSpec, build_cation_blocks, distinct_spins, nuclear_states
from .relaxation import relaxed_singlet
from .spinalg import HalfInt, spin_addition_counts


@dataclass
class SimulationResult:
    """Main S(t) trace plus, on request, sector columns: column k of ``sectors`` is the S(t)
    of sector ``labels[k]``, whose share of the main trace's ensemble is ``weights[k]``."""

    trace: TimeSeries
    labels: list[str]
    sectors: np.ndarray  # (T, len(labels))
    weights: list[float]


def _ensemble_spectrum(spec: SpinSystemSpec, two_I, two_m, weights) -> PairSpectrum:
    """Beat spectrum of sum_r weights[r] |r><r| x |S><S| over the nuclear states r of (group,
    state) arrays ``two_I``, ``two_m`` of 2 I and 2 m, on the cation blocks it reaches."""
    return cation_spectrum(build_cation_blocks(spec, two_I, two_m, weights), spec.b2)


def one_group_sector_spectra(spec: SpinSystemSpec, states=None) -> dict[HalfInt, PairSpectrum]:
    """Beat spectra of |I, m> x |S> by I, for each (I, m) of ``states`` (default: |I, m=I>
    for every distinct I)."""
    states = states or [(I, I) for I in distinct_spins(spec.groups[0].count)]
    return {I: _ensemble_spectrum(spec, [[I.twice_value]], [[m.twice_value]], [1.0])
            for I, m in states}


def one_group_spectrum(spec: SpinSystemSpec, field_regime: str) -> PairSpectrum:
    """Beat spectrum of the mixed nuclear state of a one-group system: one ensemble in
    which every |I, m=I> representative carries the weight of its class.  At zero field
    the mixed pair state is rotation invariant, but no representative is: they carry its
    S(t) alone, so the spectrum is that of S |S><S| + (1 - S) / 3 (1 - |S><S|)."""
    counts = one_group_weights(spec.groups[0].count, field_regime)
    total = sum(counts.values())
    two_k = [[k.twice_value for k in counts]]
    spectrum = _ensemble_spectrum(spec, two_k, two_k, [c / total for c in counts.values()])
    if field_regime == "zero":
        spectrum = singlet_only(spectrum, (np.eye(4) - np.outer(SINGLET, SINGLET)) / 3)
    return spectrum


def two_group_spectrum(spec: SpinSystemSpec) -> PairSpectrum:
    """Beat spectrum of the fully mixed nuclear state of a two-group system: the cation
    blocks of every I2 sector at once, each slot weighted by its I2 degeneracy / 2^N."""
    n1, n2 = spec.groups[0].count, spec.groups[1].count
    counts = spin_addition_counts(n2)
    weight = np.zeros(n2 + 1)  # by 2 I2
    for I2, count in counts.items():
        weight[I2.twice_value] = count / 2 ** (n1 + n2)
    two_I, two_m = nuclear_states(spec, [I2.twice_value for I2 in counts])
    return _ensemble_spectrum(spec, two_I, two_m, weight[two_I[1]])


def sector_spectra(spec: SpinSystemSpec, regime: str) -> list[tuple[str, float, PairSpectrum]]:
    """(label, weight, spectrum) of every sector column, largest spin first: of one group,
    each class's |I, m=I> representative, of weight count / 2^n; of two, the I2 part of
    ``two_group_spectrum``, its R = 4 (2 I2 + 1) states at 1 / R each, of weight R count / 2^N.
    The weighted spectra sum to the main one (at zero field, one group: before ``singlet_only``)."""
    n, total = spec.groups[-1].count, 2 ** sum(g.count for g in spec.groups)  # 2^N, once:
    # recomputed per column, it took 4 s of the 30,001 weights at n = 60,000
    if len(spec.groups) == 1:
        counts = one_group_weights(n, regime)
        return [(f"I={I}", counts[I] / total, s)
                for I, s in one_group_sector_spectra(spec).items()]
    out = []
    for I2, count in spin_addition_counts(n).items():
        two_I, two_m = nuclear_states(spec, [I2.twice_value])
        R = two_I.shape[1]
        out.append((f"I2={I2}", R * count / total,
                    _ensemble_spectrum(spec, two_I, two_m, np.full(R, 1 / R))))
    return out


def simulate(config: ExperimentConfig, regime: str, sectors: bool = False) -> SimulationResult:
    """S(t) of a validated configuration in one field regime ('zero' or 'high').

    Every noise method is one both-site channel (elapsed, T1, T2), picked once
    per regime: of duration t at T1 = T2 = inf for ``none``, at the regime's
    (T1, T2) for ``kraus`` and ``per-gate`` (the noisy identity delay of
    duration t is that channel), and ``config.hardware.echo_channel`` for
    ``echo-synthetic`` (the correction undoes the hardware damping, so the
    procedure leaves its target channel).  ``relaxed_singlet`` reads S(t) from
    the prepared pair state's spectrum after the channel; a two-group
    ``echo-synthetic`` run prepares its coherent S(t) encoded in an Rz rotation,
    S |S><S| + (1 - S) |T0><T0| (``singlet_only``).  No route builds a (T, 4, 4)
    pair trajectory, runs a circuit or loads the gate-level modules (``circuits``,
    ``backends``, ``library``, ``noisemethods``): they are the oracle of the
    tests and of ``validate``.  With ``sectors`` a mixed run also reads one
    column per sector (``sector_spectra``) as it reads the main trace.
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
    if len(spec.groups) == 2:
        spectrum = two_group_spectrum(spec)
    elif pure:
        spectrum = one_group_sector_spectra(spec, [pure])[pure[0]]
    else:
        spectrum = one_group_spectrum(spec, regime)
    parts = [(f"S_{regime}", 1.0, spectrum)] + (sector_spectra(spec, regime)
                                                if sectors and not pure else [])
    table = np.empty((len(times), len(parts)))  # the main trace, then the sector columns
    for k, (label, _, spectrum) in enumerate(parts):
        if method == "echo-synthetic" and len(spec.groups) == 2:
            spectrum = singlet_only(spectrum, np.outer(TRIPLET_0, TRIPLET_0))
        table[:, k] = clip_probabilities(relaxed_singlet(spectrum, times, *channel), label)
    return SimulationResult(TimeSeries(times, table[:, 0], parts[0][0]),
                            [p[0] for p in parts[1:]], table[:, 1:], [p[1] for p in parts[1:]])
