"""Helpers shared by several test modules."""

import numpy as np

from qbeats.dynamics import evaluate_spectrum
from qbeats.hamiltonians import BlockHamiltonian, SpinSystemSpec, build_two_group_block
from qbeats.pipeline import one_group_sector_trajectories, two_group_sector_spectrum
from qbeats.relaxation import relaxed_singlet_values
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
