"""Measurement-statistics correction and injection for delay-based noise runs.

A noisy run of the Hamiltonian circuit yields damped Bell-outcome
probabilities; a reference run with the circuit replaced by matched-duration
delays isolates the noise.  The correction equations recover the undamped
statistics

    T+_k = (T+_k~ - T+') / (1 - 4 T+')          (and likewise for T-)
    A_k  = S_k~  - T+_k T+' - T-_k T-'
    B_k  = T0_k~ - T+_k T+' - T-_k T-'
    S_k  = (A_k S' - B_k T0') / (S'^2 - T0'^2)
    T0_k = (B_k S' - A_k T0') / (S'^2 - T0'^2)

and the injection step folds a target channel's statistics back in:

    S_k^n = S_k S'' + T0_k T0'' + T+_k T+'' + T-_k T-''.

The forward damping model implied by inverting the correction equations is
also provided; correct(damp(x)) round-trips exactly up to float error.

These equations are the gate-level oracle of the echo-synthetic method
(acceptance criterion 09, ``validate --suite correction`` and the per-point
circuit runs of the tests).  On the closed-form damping of a unit-trace pair
they reduce to the target channel (``noisemethods``), so ``simulate`` does
not call them; ``config`` calls ``correction_denominators`` on the hardware's
reference run at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DENOMINATOR_FLOOR = 1e-6


@dataclass(frozen=True)
class MeasurementStats:
    """Bell-basis outcome probabilities (singlet, T0, T+, T-).

    Each field is a float, or an array with one entry per time point; every
    check and formula below acts elementwise.
    """

    s: float
    t0: float
    tp: float
    tm: float

    def __post_init__(self):
        # corrected statistics are estimators and may carry small model error,
        # so construction is lenient
        total = np.asarray(self.s + self.t0 + self.tp + self.tm)
        off = np.abs(total - 1.0) > 1e-6
        if np.any(off):
            raise ValueError(f"outcome probabilities sum to {total[off].flat[0]}, not 1")
        if min(np.min(p) for p in (self.s, self.t0, self.tp, self.tm)) < -0.05:
            raise ValueError("strongly negative outcome probability")

    @staticmethod
    def from_array(p) -> "MeasurementStats":
        """Stats from (..., 4) probabilities (S, T0, T+, T-)."""
        p = np.asarray(p, dtype=float)
        p = np.where(np.abs(p) < 1e-15, 0.0, p)
        return MeasurementStats(*np.moveaxis(p, -1, 0))

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.t0, self.tp, self.tm])


class UnrecoverableNoiseError(ValueError):
    """The reference run is too damped for the statistics correction to be solved."""


def correction_denominators(reference: MeasurementStats) -> tuple:
    """The correction denominators 1 - 4 T+', 1 - 4 T-' and S'^2 - T0'^2 of a reference.

    Raises ``UnrecoverableNoiseError`` when a denominator's smallest magnitude
    over the rows falls below ``DENOMINATOR_FLOOR``; the message reports those magnitudes.
    """
    den_p = 1.0 - 4.0 * reference.tp
    den_m = 1.0 - 4.0 * reference.tm
    den_s = reference.s**2 - reference.t0**2
    smallest = [np.min(np.abs(den)) for den in (den_p, den_m, den_s)]
    if min(smallest) < DENOMINATOR_FLOOR:
        raise UnrecoverableNoiseError(
            "unrecoverable noise level: correction denominators "
            "({:.3e}, {:.3e}, {:.3e}) below floor {:g}".format(*smallest, DENOMINATOR_FLOOR))
    return den_p, den_m, den_s


def correct_stats(measured: MeasurementStats, reference: MeasurementStats) -> MeasurementStats:
    """Recover undamped statistics from a damped run and its delay-only reference
    (``correction_denominators`` raises for a reference below the floor)."""
    den_p, den_m, den_s = correction_denominators(reference)
    tp = (measured.tp - reference.tp) / den_p
    tm = (measured.tm - reference.tm) / den_m
    a = measured.s - tp * reference.tp - tm * reference.tm
    b = measured.t0 - tp * reference.tp - tm * reference.tm
    s = (a * reference.s - b * reference.t0) / den_s
    t0 = (b * reference.s - a * reference.t0) / den_s
    return MeasurementStats(s, t0, tp, tm)


def damp_stats(undamped: MeasurementStats, reference: MeasurementStats) -> MeasurementStats:
    """Forward damping model (the exact inverse of ``correct_stats``)."""
    tp = undamped.tp * (1.0 - 4.0 * reference.tp) + reference.tp
    tm = undamped.tm * (1.0 - 4.0 * reference.tm) + reference.tm
    s = (undamped.s * reference.s + undamped.t0 * reference.t0
         + undamped.tp * reference.tp + undamped.tm * reference.tm)
    t0 = (undamped.t0 * reference.s + undamped.s * reference.t0
          + undamped.tp * reference.tp + undamped.tm * reference.tm)
    return MeasurementStats(s, t0, tp, tm)
