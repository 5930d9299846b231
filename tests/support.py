"""Helpers shared by several test modules, and the oracles that only tests use."""

import functools
import operator

import numpy as np

from qbeats.dynamics import (SINGLET, PairSpectrum, evaluate_rows, evaluate_spectrum,
                             one_group_weights, pair_probabilities)
from qbeats.hamiltonians import PAULI, BlockHamiltonian, SpinSystemSpec, build_two_group_block
from qbeats.noisecal import MeasurementStats
from qbeats.pipeline import one_group_sector_trajectories, two_group_sector_spectrum
from qbeats.relaxation import (CORRELATOR_TRIU, RelaxationParams, relax_pair_trajectory,
                               relaxed_singlet_values)
from qbeats.spinalg import spin_addition_counts


def half_rate_equivalence_check(spec: SpinSystemSpec, times: np.ndarray,
                                tol: float = 1e-10) -> bool:
    """Both-site channel at (T1,T2) vs single-site at (T1/2,T2/2), spec-level.

    Runs the system's standard coherent pipeline and compares the relaxed
    singlet traces pointwise.
    """
    if len(spec.groups) == 1:
        trajs = one_group_sector_trajectories(spec, times)
        traj = sum(t.trajectory for t in trajs.values()) / len(trajs)
    else:
        I2_max = max(spin_addition_counts(spec.groups[1].count))
        traj = evaluate_spectrum(two_group_sector_spectrum(build_two_group_block(I2_max, spec)),
                                 times)
    both = relaxed_singlet_values(traj, times, spec.T1, spec.T2, sites="both")
    single = relaxed_singlet_values(traj, times, spec.T1 / 2, spec.T2 / 2, sites="e1")
    return bool(np.abs(both - single).max() <= tol)


def cation_register(h: np.ndarray, b2: float) -> BlockHamiltonian:
    """The unpadded (e2, nuc, e1) register 1_e2 x h - b2 Z_e2 x 1 of a cation block."""
    K = len(h) // 2
    matrix = np.kron(np.eye(2), h) - b2 * np.kron(np.diag([1.0, -1.0]), np.eye(2 * K))
    return BlockHamiltonian(matrix, (2, K, 2), ("e2", "nuc", "e1"))


def pauli_matrix(s: str) -> np.ndarray:
    """Matrix of a Pauli string such as 'IZX', its first letter the leftmost factor."""
    return functools.reduce(np.kron, [PAULI[c] for c in s])


def class_average(n: int, field_regime: str, per_sector: dict):
    """Count-weighted average of per-|I, m=I> values or spectra over the mixed nuclear state.

    Each representative stands in for its degeneracy class: total spin I at
    zero field, |m| at high field.
    """
    weights = one_group_weights(n, field_regime)
    total = sum(weights.values())
    terms = [(w / total) * per_sector[abs(k)] for k, w in weights.items()]
    return functools.reduce(operator.add, terms)


def channel_target_stats(params: RelaxationParams, sites: str = "both") -> MeasurementStats:
    """Bell statistics of the thermal channel applied to a fresh singlet pair."""
    rho = np.outer(SINGLET, SINGLET.conj())[None, :, :]
    relaxed = relax_pair_trajectory(rho, np.array([params.t]), params.T1, params.T2, sites)
    return MeasurementStats.from_array(pair_probabilities(relaxed)[0])


def pair_correlators(spectrum: PairSpectrum, times: np.ndarray) -> np.ndarray:
    """(4, T) correlators (w, <ZZ>, <XX + YY>, <Z1 + Z2>) of a beat spectrum; w is the trace."""
    return evaluate_rows(spectrum, np.asarray(times, dtype=float), CORRELATOR_TRIU).real
