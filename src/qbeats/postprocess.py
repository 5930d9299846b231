"""Fluorescence-intensity post-processing and TR-MFE ratio curves.

Singlet-probability traces become ideal intensities through the geminate
lifetime envelope F(t) = 1/(t+t0)^(3/2) and the recombination fraction
theta; observed intensities fold in the fluorescence decay E(t) =
exp(-t/tau_f) (causal) and the detector response G(t), a centered boxcar of
width t_g.  The reported ratio is R = (E * I_B * G) / (E * I_0 * G).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NumericalError, TimeSeries

DENOMINATOR_RELATIVE_FLOOR = 1e-12
SCAN_SPAN = 20  # scan block length in tau_f/h: r^-j stays below e^20


@dataclass(frozen=True)
class FluorescenceParams:
    """theta (recombination fraction), tau_f, t0, t_g (all times ns)."""

    theta: float
    tau_f: float
    t0: float
    t_g: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta: must lie in [0, 1], got {self.theta}")
        for key in ("tau_f", "t0", "t_g"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key}: must be positive and finite, got {getattr(self, key)}")


def kernel_step(times: np.ndarray, params: FluorescenceParams) -> float:
    """Step of a grid the kernels can act on: uniform, >= 2 points, fine enough, t + t0 > 0."""
    steps = np.diff(times)
    if len(steps) == 0:
        raise ValueError("need at least two grid points")
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-12):
        raise ValueError("post-processing requires a uniform time grid")
    if h > min(params.tau_f, params.t_g) / 4:
        raise ValueError(f"grid step {h} ns too coarse: need <= min(tau_f, t_g)/4 = "
                         f"{min(params.tau_f, params.t_g) / 4} ns")
    if times[0] + params.t0 <= 0:
        raise ValueError("t + t0 must be positive on the whole grid")
    return float(h)


def ideal_intensity(S: TimeSeries, params: FluorescenceParams) -> TimeSeries:
    """I~(t) = F(t) [theta S(t) + (1-theta)/4] with F(t) = (t+t0)^(-3/2)."""
    shifted = S.times + params.t0
    if np.any(shifted <= 0):
        raise ValueError("t + t0 must be positive on the whole grid")
    f = shifted ** -1.5
    vals = f * (params.theta * S.values + 0.25 * (1.0 - params.theta))
    return TimeSeries(S.times, vals, f"I_{S.label}" if S.label else "I")


def boxcar_kernel(t_g: float, step: float, n_max: float = math.inf) -> np.ndarray:
    """Centered boxcar of width t_g, height 1/t_g, cell-overlap discretized.

    Odd length; edge cells carry their partial overlap so the kernel mass is
    exactly 1 (a final one-cell compensation absorbs float rounding).  Cells
    beyond n_max from the center, which reach no point of an n_max-point grid,
    are cut, and then nothing is compensated.
    """
    half = t_g / 2
    K = math.ceil(min(half / step + 0.5, n_max))
    offsets = np.arange(-K, K + 1) * step
    lo = np.maximum(offsets - step / 2, -half)
    hi = np.minimum(offsets + step / 2, half)
    w = np.clip(hi - lo, 0.0, None) / t_g
    for _ in range(3 if half / step + 0.5 <= n_max else 0):  # rounding into the center cell
        defect = 1.0 - w.sum()
        if defect == 0.0:
            break
        w[K] += defect
    return w


def exponential_scan(x: np.ndarray, tau_f: float, step: float) -> np.ndarray:
    """x folded with h (1/2, r, r^2, ...), r = exp(-h/tau_f): the causal exp(-t/tau_f) with
    trapezoidal weights, uncut (a cut at 50 tau_f differs by about exp(-50) x(t - 50 tau_f)/x(t),
    below 1e-19 relative for t0 >= 1).  z - hx/2 with z_n = h x_n + r z_{n-1}: all blocks of
    ``SCAN_SPAN`` tau_f/h points at once as r^j cumsum(h x r^-j), each scaled by a power of two
    to max |x| <= 1 (so no sum overflows where z is finite), then the carried r^(j+1) z."""
    n = int(min(len(x), SCAN_SPAN * tau_f / step))  # min first: tau_f/step may overflow
    decay = np.exp(-(step / tau_f) * np.arange(n + 1))  # r^j
    z = np.append(step * x, np.zeros(-len(x) % n)).reshape(-1, n)  # the last block zero-padded
    e = np.frexp(np.abs(z).max(axis=1))[1][:, None]
    z = np.ldexp(np.cumsum(np.ldexp(z, -e) / decay[:-1], axis=1) * decay[:-1], e)
    carry = [0.0]  # carry[b]: z at the end of block b - 1, its own carry included
    for end in z[:-1, -1].tolist():
        carry.append(end + decay[-1] * carry[-1])
    return (z + np.multiply.outer(carry, decay[1:])).ravel()[:len(x)] - 0.5 * step * x


def observed_intensity(S: TimeSeries, params: FluorescenceParams) -> TimeSeries:
    """E * I~ * G on the trace's grid (zero-extended to the left of its first point)."""
    h = kernel_step(S.times, params)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported once, below
        ideal = ideal_intensity(S, params)
        g = boxcar_kernel(params.t_g, h, len(S.times))
        k = len(g) // 2
        vals = np.convolve(exponential_scan(ideal.values, params.tau_f, h), g)[k: k + len(S.times)]
    if not np.isfinite(vals).all():
        raise NumericalError(f"observed intensity {ideal.label!r} overflows")
    return TimeSeries(S.times, vals, ideal.label)


def observed_ratio(S_B: TimeSeries, S_0: TimeSeries,
                   params: FluorescenceParams) -> dict[str, np.ndarray]:
    """The TR-MFE columns: R(t) = [E * I_B * G] / [E * I_0 * G], both observed intensities
    and both traces, on the points where |I_0| exceeds a relative floor."""
    if S_B.times.shape != S_0.times.shape or not np.allclose(S_B.times, S_0.times):
        raise ValueError("field-on and field-off traces must share a grid")
    I_B, I_0 = observed_intensity(S_B, params).values, observed_intensity(S_0, params).values
    mask = np.abs(I_0) > DENOMINATOR_RELATIVE_FLOOR * np.abs(I_0).max()
    if not mask.any():
        raise ValueError("denominator underflow across the whole grid")
    return {"time_ns": S_B.times[mask], "ratio": I_B[mask] / I_0[mask], "I_B": I_B[mask],
            "I_0": I_0[mask], "S_B": S_B.values[mask], "S_0": S_0.values[mask]}
