"""Physical constants and unit conversions.

All Hamiltonian matrix elements in this package are angular frequencies in
rad/ns, and all times are in nanoseconds.  Hyperfine coupling constants are
quoted in millitesla (or gauss) and converted to angular frequency with the
electron gyromagnetic factor of the radical-cation electron.
"""

# Bohr magneton over hbar, rad s^-1 T^-1 (CODATA: 9.2740100783e-24 / 1.054571817e-34).
MU_B_OVER_HBAR = 8.794e10

RAD_PER_SEC_TO_RAD_PER_NS = 1e-9
MILLITESLA_TO_TESLA = 1e-3


def hyperfine_angular_frequency(a_mT: float, g: float) -> float:
    """Angular frequency (rad/ns) of a hyperfine constant quoted in mT."""
    return MU_B_OVER_HBAR * g * a_mT * MILLITESLA_TO_TESLA * RAD_PER_SEC_TO_RAD_PER_NS


def zeeman_half_angular_frequency(B_tesla: float, g: float) -> float:
    """Coefficient b = mu_B g B / (2 hbar) of the Pauli-Z Zeeman term, rad/ns."""
    return 0.5 * MU_B_OVER_HBAR * g * B_tesla * RAD_PER_SEC_TO_RAD_PER_NS
