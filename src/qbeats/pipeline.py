"""End-to-end simulation pipelines: build -> evolve -> relax -> combine.

Every run is one ensemble table of nuclear states and weights (``ensemble``), read from
the correlators of the cation blocks its states reach (or of S |S><S| + (w - S) rest).
Weighting every state of every I2 sector by its I2 degeneracy keeps the classical
reassembly exact also under relaxation.  A sector column is the table's states of one
last-group spin, read the same way.  ``simulate`` is
the one entry point from a resolved configuration to S(t): it picks the prepared pair
state and the noise method's both-site channel once per regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .dynamics import (PAIR_TRIU, SINGLET, TRIPLET_0, PairSpectrum, TimeSeries,
                       cation_correlators, cation_spectrum, clip_probabilities,
                       one_group_weights, singlet_only, time_grid)
from .hamiltonians import SpinSystemSpec, build_cation_blocks, distinct_spins, nuclear_states
from .relaxation import CORRELATOR_TRIU, relaxed_bell_probabilities
from .spinalg import HalfInt, spin_addition_counts

ROTATION_INVARIANT = (np.eye(4) - np.outer(SINGLET, SINGLET)) / 3  # rest of a mixed one group
ENCODED = np.outer(TRIPLET_0, TRIPLET_0)  # rest of an S(t) encoded in an Rz rotation


@dataclass
class SimulationResult:
    """Main S(t) trace plus, on request, sector columns: column k of ``sectors`` is the S(t)
    of sector ``labels[k]``, whose share of the main trace's ensemble is ``weights[k]``."""

    trace: TimeSeries
    labels: list[str]
    sectors: np.ndarray  # (T, len(labels))
    weights: list[float]


def ensemble(spec: SpinSystemSpec, regime: str | None = None, pure=None) -> tuple:
    """(two_I, two_m, weights, counts, total) of the pure state (I, m) ``pure``, or of the
    mixed nuclear state in field ``regime``: (G, R) arrays of 2I and 2m per group of its
    states, in runs of one last-group spin, largest first, and each state's weight, the
    integer ``counts[2 I]`` of its last group's spin over the integer ``total``."""
    n, total = spec.groups[-1].count, 2 ** sum(g.count for g in spec.groups)
    if pure:
        counts, total = {pure[0].twice_value: 1}, 1
        two_I, two_m = (np.array([[x.twice_value]]) for x in pure)
    elif len(spec.groups) == 1:
        classes = sorted(one_group_weights(n, regime).items(), reverse=True)
        counts = {k.twice_value: c for k, c in classes}
        two_I = two_m = np.array([list(counts)])
    else:
        counts = {I2.twice_value: c for I2, c in spin_addition_counts(n).items()}
        two_I, two_m = nuclear_states(spec, list(counts))
    share = np.zeros(max(counts) + 1)  # one exact division per spin, not per state
    share[list(counts)] = [c / total for c in counts.values()]
    return two_I, two_m, share[two_I[-1]], counts, total


def prepared_spectrum(spec: SpinSystemSpec, two_I, two_m, weights, rest=None) -> PairSpectrum:
    """Beat spectrum of sum_r weights[r] |r><r| x |S><S| over the nuclear states r of (G, R)
    arrays ``two_I``, ``two_m``, on the cation blocks it reaches; with a ``rest``, that of
    the pair state S(t) |S><S| + (w - S(t)) rest prepared from its S(t) (``singlet_only``)."""
    spectrum = cation_spectrum(build_cation_blocks(spec, two_I, two_m, weights), spec.b2)
    return spectrum if rest is None else singlet_only(spectrum, rest)


def one_group_sector_spectra(spec: SpinSystemSpec, states=None) -> dict[HalfInt, PairSpectrum]:
    """Beat spectra of |I, m> x |S> by I, for each (I, m) of ``states`` (default: |I, m=I>
    for every distinct I)."""
    states = states or [(I, I) for I in distinct_spins(spec.groups[0].count)]
    return {I: prepared_spectrum(spec, *ensemble(spec, pure=(I, m))[:3]) for I, m in states}


def one_group_spectrum(spec: SpinSystemSpec, field_regime: str) -> PairSpectrum:
    """Beat spectrum of the mixed nuclear state of a one-group system.  At zero field the
    mixed pair state is rotation invariant, but no class representative is: they carry its
    S(t) alone, so the spectrum is that of S |S><S| + (1 - S) / 3 (1 - |S><S|)."""
    return prepared_spectrum(spec, *ensemble(spec, field_regime)[:3],
                             ROTATION_INVARIANT if field_regime == "zero" else None)


def two_group_spectrum(spec: SpinSystemSpec) -> PairSpectrum:
    """Beat spectrum of the fully mixed nuclear state of a two-group system: the cation
    blocks of every I2 sector at once, each slot weighted by its I2 degeneracy / 2^N."""
    return prepared_spectrum(spec, *ensemble(spec)[:3])  # the same in either field


def simulate(config: ExperimentConfig, regime: str, sectors: bool = False) -> SimulationResult:
    """S(t) of a validated configuration in one field regime ('zero' or 'high').

    Every noise method is one both-site channel (elapsed, T1, T2): of duration t at
    T1 = T2 = inf for ``none``, at the regime's (T1, T2) for ``kraus`` and ``per-gate`` (the
    noisy identity delay of duration t is that channel), and ``config.hardware.echo_channel``
    for ``echo-synthetic`` (the correction undoes the hardware damping, so the procedure
    leaves its target channel).  Next to it one ``rest`` picks the prepared pair state: the
    rotation-invariant one of a mixed one-group ensemble at zero field, the coherent S(t)
    encoded in an Rz rotation, S |S><S| + (1 - S) |T0><T0|, for two-group ``echo-synthetic``,
    else the ensemble's own.  S(t) after the channel is read from the correlators
    (w, <ZZ>, <XX + YY>) of ``cation_correlators``, with a ``rest`` from those of
    S |S><S| + (w - S) rest, S = (w - <ZZ> - <XX + YY>) / 4.  No route builds a pair table,
    runs a circuit or loads the gate-level modules, the oracles of the tests and of
    ``validate``.  With ``sectors`` the same loop reads a column per last-group spin of the
    ensemble: its states at equal weight, of weight their share of the ensemble.
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
    pure, one_group = config.initial_sector(), len(spec.groups) == 1
    rest = (ROTATION_INVARIANT if one_group and not pure and regime == "zero" else
            ENCODED if not one_group and method == "echo-synthetic" else None)
    two_I, two_m, weights, counts, total = ensemble(spec, regime, pure)
    parts = [(f"S_{regime}", 1.0, slice(None), weights)]
    if sectors:  # one column per run of one last-group spin
        last = two_I[-1]
        for states in np.split(np.arange(len(last)), np.flatnonzero(np.diff(last)) + 1):
            k, R = int(last[states[0]]), len(states)
            parts.append((f"I{'' if one_group else 2}={HalfInt(k)}", R * counts[k] / total,
                          states, np.full(R, 1 / R)))
    table = np.empty((len(times), len(parts)))  # the main trace, then the sector columns
    for j, (label, _, states, w) in enumerate(parts):
        blocks = build_cation_blocks(spec, two_I[:, states], two_m[:, states], w)
        w, zz, xy = cation_correlators(blocks, spec.b2, times)
        if rest is not None:  # <ZZ> and <XX + YY> of S |S><S| + (w - S) rest
            s, (zz_rest, xy_rest) = (w - zz - xy) / 4, CORRELATOR_TRIU[1:3] @ rest[PAIR_TRIU]
            zz, xy = -s + (w - s) * zz_rest, -2 * s + (w - s) * xy_rest
        singlet = relaxed_bell_probabilities((w, zz, xy, 0.0), *channel)[..., 0]
        table[:, j] = clip_probabilities(singlet, label)
    return SimulationResult(TimeSeries(times, table[:, 0], parts[0][0]),
                            [p[0] for p in parts[1:]], table[:, 1:], [p[1] for p in parts[1:]])
