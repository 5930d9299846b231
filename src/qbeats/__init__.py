"""Quantum-beat dynamics of spin-correlated radical pairs.

Builds symmetry-reduced spin Hamiltonians for radicals with one or two
groups of magnetically equivalent nuclei, evolves the electron-nuclear
system exactly, applies infinite-temperature thermal relaxation channels,
validates circuit-level realizations against the direct matrix path, and
post-processes singlet-probability traces into TR-MFE ratio curves.
"""

from .dynamics import (
    DensityMatrix,
    TimeSeries,
    initial_sector_state,
    maximally_mixed_nuclear_state,
    reassemble_two_group,
    singlet_probability,
    singlet_trace,
    time_grid,
    weighted_average_one_group,
)
from .hamiltonians import (
    BlockHamiltonian,
    NuclearGroup,
    SpinSystemSpec,
    build_full_one_group,
    build_partitioned,
    build_reduced_one_group,
    build_two_group_block,
    pauli_decompose_partitioned,
)
from .postprocess import FluorescenceParams, ideal_intensity, observed_ratio
from .relaxation import (
    KrausChannel,
    RelaxationParams,
    apply_channel,
    infinite_temperature_thermal_channel,
)
from .spinalg import HalfInt, SpinMultiplicityTable, cg_block_matrix, spin_addition_counts

__all__ = [
    "BlockHamiltonian",
    "DensityMatrix",
    "FluorescenceParams",
    "HalfInt",
    "KakDecomposition",
    "KrausChannel",
    "NuclearGroup",
    "RelaxationParams",
    "SpinMultiplicityTable",
    "SpinSystemSpec",
    "TimeSeries",
    "apply_channel",
    "build_full_one_group",
    "build_partitioned",
    "build_reduced_one_group",
    "build_two_group_block",
    "cg_block_matrix",
    "ideal_intensity",
    "infinite_temperature_thermal_channel",
    "initial_sector_state",
    "kak_decompose",
    "maximally_mixed_nuclear_state",
    "observed_ratio",
    "pauli_decompose_partitioned",
    "reassemble_two_group",
    "singlet_probability",
    "singlet_trace",
    "spin_addition_counts",
    "time_grid",
    "weighted_average_one_group",
]

__version__ = "0.1.0"


def __getattr__(name):  # kak loads on first use: nothing on the simulate path needs it
    if name in ("KakDecomposition", "kak_decompose"):
        from . import kak
        return getattr(kak, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
