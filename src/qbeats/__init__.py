"""Quantum-beat dynamics of spin-correlated radical pairs.

Builds symmetry-reduced spin Hamiltonians for radicals with one or two
groups of magnetically equivalent nuclei, evolves the electron-nuclear
system exactly, applies infinite-temperature thermal relaxation channels,
validates circuit-level realizations against the direct matrix path, and
post-processes singlet-probability traces into TR-MFE ratio curves.
"""

__version__ = "0.1.0"
