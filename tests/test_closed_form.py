"""Zero-field S(t) of one group, up to large counts, against a closed form with no matrix.

At zero field H = a I.S1 conserves the total nuclear spin I, and on each I
manifold the cation levels J = I +- 1/2 are split by a (I + 1/2): the only
beat.  Averaged over the mixed nuclear state,

    S(t) = sum_I w_I [1/4 + 3/4 (g_I + (1 - g_I) cos(a (I + 1/2) t))],
    g_I = (1 + 4 I (I + 1) / 3) / (2I + 1)^2,   w_I = count(I) (2I + 1) / 2^n,

and the both-site thermal channel at T1 = T2 maps it to
1/4 + (S - 1/4) exp(-2t / T1).

Tolerance, fixed before running.  S(t) is a sum of beats whose amplitudes
sum to 1 in magnitude (every term of the closed form is a positive weight,
and the weights sum to 1).  ``cation_spectrum`` merges frequencies closer
than 64 eps (lambda_max + |b2|) into one, with lambda_max, a row-sum bound of
the cation blocks, below max|omega| = a (I_max + 1/2), and its 2 x 2 ``eigh``
and the phase arithmetic of ``evaluate_rows`` each add a few eps max|omega|
more.  A frequency off by d omega moves a beat's phase by at most
d omega t_max, so |S - S_closed| <= 128 eps max|omega| t_max: twice the merge
width, accumulated over the grid.
"""

import dataclasses
import math

import numpy as np
import pytest

from qbeats.config import load_preset
from qbeats.hamiltonians import NuclearGroup
from qbeats.pipeline import simulate
from qbeats.spinalg import spin_addition_counts

EPS = np.finfo(float).eps


def octalin_with(n, method):
    config = load_preset("octalin")
    group = NuclearGroup(n, config.groups[0].hfc_mT)
    return dataclasses.replace(config, groups=(group,), noise_method=method)


def closed_form(n, a, times):
    out = np.zeros_like(times)
    for I, count in spin_addition_counts(n).items():
        J = I.as_float
        g = (1 + 4 * J * (J + 1) / 3) / (2 * J + 1) ** 2
        w = count * (2 * J + 1) / 2**n
        out += w * (0.25 + 0.75 * (g + (1 - g) * np.cos(a * (J + 0.5) * times)))
    return out


@pytest.mark.parametrize("n", [3, 8, 120, 200])
def test_zero_field_mixed_state_matches_the_closed_form(n):
    config = octalin_with(n, "none")
    a = config.spin_spec("zero").hyperfine_rad_ns[0]
    result = simulate(config, "zero").trace
    times = result.times
    tol = 128 * EPS * a * (n / 2 + 0.5) * times.max()
    assert np.abs(result.values - closed_form(n, a, times)).max() <= tol


@pytest.mark.parametrize("n", [3, 8, 120, 200])
def test_zero_field_kraus_is_the_closed_form_under_the_t1_equal_t2_channel(n):
    config = octalin_with(n, "kraus")
    spec = config.spin_spec("zero")
    assert spec.T1 == spec.T2 and math.isfinite(spec.T1)
    a = spec.hyperfine_rad_ns[0]
    result = simulate(config, "zero").trace
    times = result.times
    expected = 0.25 + (closed_form(n, a, times) - 0.25) * np.exp(-2 * times / spec.T1)
    tol = 128 * EPS * a * (n / 2 + 0.5) * times.max()
    assert np.abs(result.values - expected).max() <= tol
