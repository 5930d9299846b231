"""Infinite-temperature thermal relaxation as explicit Kraus channels.

Amplitude damping symmetrized over decay direction plus a probabilistic
phase flip, parameterized by T1, T2 and the elapsed time t:

    p_x = 1 - exp(-t/T1)
    p_z = (1 - exp(-t (1/T2 - 1/(2 T1)))) / 2
    phi_x = 2 asin(sqrt(p_x))

The channel fixes identity/2 (infinite-temperature fixed point); populations
approach 1/2 with factor exp(-t/T1) and coherences scale by exp(-t/T2).
Noise acts on electronic sites only and is applied once, after the coherent
block, matching the circuit placement (the channel commutes with the
electronic Zeeman evolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DensityMatrix, PairSpectrum, evaluate_rows, triu_row
from .hamiltonians import SIGMA_X, SIGMA_Y, SIGMA_Z, check_relaxation_times


@dataclass(frozen=True)
class RelaxationParams:
    """Channel parameters for one elapsed duration."""

    t: float
    T1: float = math.inf
    T2: float = math.inf

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("elapsed time must be >= 0")
        check_relaxation_times(self.T1, self.T2)

    @property
    def p_x(self) -> float:
        return 0.0 if math.isinf(self.T1) else 1.0 - math.exp(-self.t / self.T1)

    @property
    def p_z(self) -> float:  # from the pure-dephasing rate 1/T2 - 1/(2 T1)
        r1 = 0.0 if math.isinf(self.T1) else 1.0 / self.T1
        r2 = 0.0 if math.isinf(self.T2) else 1.0 / self.T2
        return 0.5 * (1.0 - math.exp(-self.t * (r2 - r1 / 2)))

    @property
    def phi_x(self) -> float:
        return 2.0 * math.asin(math.sqrt(self.p_x))


@dataclass(frozen=True)
class KrausChannel:
    """Single-site operator-sum channel targeting one register site."""

    operators: tuple[np.ndarray, ...]
    target_site: str = "e1"

    def completeness_defect(self) -> float:
        acc = sum(k.conj().T @ k for k in self.operators)
        return float(np.abs(acc - np.eye(acc.shape[0])).max())

    def validate(self) -> "KrausChannel":
        defect = self.completeness_defect()
        if defect > 1e-13:
            raise ValueError(f"Kraus completeness violated by {defect:.2e}")
        return self


def infinite_temperature_thermal_channel(params: RelaxationParams,
                                         target_site: str = "e1") -> KrausChannel:
    """Symmetrized amplitude damping composed with a probabilistic phase flip."""
    px, pz = params.p_x, params.p_z
    if px > 0:
        k0 = np.array([[math.sqrt(1 - px), 0.0], [0.0, 1.0]], dtype=complex)
        k1 = np.array([[0.0, 0.0], [math.sqrt(px), 0.0]], dtype=complex)
        damping = [k / math.sqrt(2)
                   for k in (k0, k1, SIGMA_X @ k0 @ SIGMA_X, SIGMA_X @ k1 @ SIGMA_X)]
    else:
        damping = [np.eye(2, dtype=complex)]
    if pz > 0:
        dephasing = [math.sqrt(1 - pz) * np.eye(2, dtype=complex), math.sqrt(pz) * SIGMA_Z]
    else:
        dephasing = [np.eye(2, dtype=complex)]
    ops = tuple(d @ k for d in dephasing for k in damping)
    return KrausChannel(ops, target_site).validate()


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Operator-sum application on the embedded target site."""
    if channel.target_site not in rho.labels:
        raise ValueError(f"site {channel.target_site!r} not in register {rho.labels}")
    site = rho.labels.index(channel.target_site)
    n = len(rho.dims)
    d = rho.dims[site]
    work = rho.matrix.reshape(rho.dims + rho.dims)
    out = np.zeros_like(work)
    for k in channel.operators:
        if k.shape != (d, d):
            raise ValueError("Kraus operator dimension does not match target site")
        term = np.tensordot(k, work, axes=([1], [site]))
        term = np.moveaxis(term, 0, site)
        term = np.tensordot(term, k.conj().T, axes=([n + site], [0]))
        term = np.moveaxis(term, -1, n + site)
        out += term
    return DensityMatrix(out.reshape(rho.dim, rho.dim), rho.dims, rho.labels)


# ---------------------------------------------------------------------------
# The channel in closed form
# ---------------------------------------------------------------------------

def thermal_map(site: np.ndarray, g, f) -> None:
    """The thermal channel on one qubit, in place on an array whose first two axes are
    that qubit's ket and bra: populations move toward 1/2 by the factor g =
    exp(-t/T1), and the coherence is scaled by f = exp(-t/T2), possibly times a
    phase (the bra-ket one by its conjugate).  g and f broadcast against
    ``site[0, 0]``.  This is the closed form of
    ``infinite_temperature_thermal_channel``."""
    delta = 0.5 * (1.0 - g) * (site[0, 0] - site[1, 1])
    site[0, 0] -= delta
    site[1, 1] += delta
    site[0, 1] *= f
    site[1, 0] *= np.conj(f)


# the trace, <ZZ>, <XX + YY> = 4 Re rho_12 and <Z1 + Z2> (e1 the first factor) as rows over
# the PAIR_TRIU elements (real parts); a singlet pair has the correlators SINGLET_CORRELATORS
CORRELATOR_TRIU = np.stack([triu_row(op.real) for op in (
    np.eye(4), np.kron(SIGMA_Z, SIGMA_Z), np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Y, SIGMA_Y),
    np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z))])
SINGLET_CORRELATORS = np.array([1.0, -1.0, -2.0, 0.0])


def relaxed_bell_probabilities(correlators, t, T1: float, T2: float) -> np.ndarray:
    """(..., 4) Bell-outcome probabilities (S, T0, T+, T-) after the both-site channel of
    duration ``t``, read from (4, ...) correlators (w, <ZZ>, <XX + YY>, <Z1 + Z2>).

    The channel scales <Z1 + Z2> by g = exp(-t/T1), <ZZ> by g^2 and <XX + YY> by
    f^2 = exp(-2t/T2): S, T0 = (w - g^2 <ZZ> -+ f^2 <XX + YY>) / 4 and
    T+- = (w + g^2 <ZZ> +- g <Z1 + Z2>) / 4.
    """
    check_relaxation_times(T1, T2)
    w, zz, xy, z = correlators
    t = np.asarray(t, dtype=float)
    zz, xy, z = np.exp(-2 * t / T1) * zz, np.exp(-2 * t / T2) * xy, np.exp(-t / T1) * z
    return np.stack(np.broadcast_arrays(w - zz - xy, w - zz + xy, w + zz + z, w + zz - z),
                    axis=-1) / 4


def relaxed_singlet(spectrum: PairSpectrum, times: np.ndarray, elapsed, T1: float,
                    T2: float) -> np.ndarray:
    """S(t) of a beat spectrum at ``times`` after the both-site channel of duration
    ``elapsed`` (``times`` itself for the Kraus channel), read from its correlators, as
    ``apply_channel`` on both sites of the evaluated trajectory gives it.  S does not read
    <Z1 + Z2>, whose row costs as much as the <ZZ> one, so that row is left out."""
    w, zz, xy = evaluate_rows(spectrum, np.asarray(times, dtype=float), CORRELATOR_TRIU[:3])
    return relaxed_bell_probabilities((w, zz, xy, 0.0), elapsed, T1, T2)[..., 0]
