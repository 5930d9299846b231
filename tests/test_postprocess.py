import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qbeats.dynamics import NumericalError, TimeSeries, time_grid
from qbeats.postprocess import (
    SCAN_SPAN,
    FluorescenceParams,
    boxcar_kernel,
    exponential_scan,
    ideal_intensity,
    observed_intensity,
    observed_ratio,
)
from support import exponential_kernel

FIG9 = FluorescenceParams(theta=0.35, tau_f=1.2, t0=1.0, t_g=1.0)


def wiggle(times, freq=0.45, base=0.6, amp=0.35):
    return TimeSeries(times, base + amp * np.cos(freq * times))


class TestFluorescenceParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FluorescenceParams(theta=1.2, tau_f=1.0, t0=1.0, t_g=1.0)
        with pytest.raises(ValueError):
            FluorescenceParams(theta=0.5, tau_f=-1.0, t0=1.0, t_g=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tau_f", "t0", "t_g"])
    def test_non_finite_times_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name}: must be positive and finite"):
            FluorescenceParams(**{"theta": 0.5, "tau_f": 1.0, "t0": 1.0, "t_g": 1.0, name: bad})


class TestIdealIntensity:
    def test_theta_zero_ignores_signal(self):
        t = time_grid(0, 50, 0.1)
        rng = np.random.default_rng(0)
        s = TimeSeries(t, rng.uniform(size=len(t)))
        out = ideal_intensity(s, FluorescenceParams(0.0, 1.2, 1.0, 1.0))
        assert np.abs(out.values - 0.25 * (t + 1.0) ** -1.5).max() == 0.0

    def test_theta_one_unit_signal(self):
        t = time_grid(0, 50, 0.1)
        out = ideal_intensity(TimeSeries(t, np.ones_like(t)),
                              FluorescenceParams(1.0, 1.2, 1.0, 1.0))
        assert np.abs(out.values - (t + 1.0) ** -1.5).max() == 0.0

    def test_octalin_parameters(self):
        t = time_grid(0, 10, 0.1)
        s = wiggle(t)
        out = ideal_intensity(s, FIG9)
        expected = (t + 1.0) ** -1.5 * (0.35 * s.values + 0.25 * 0.65)
        assert np.abs(out.values - expected).max() <= 1e-15


class TestKernels:
    @pytest.mark.parametrize("t_g,step", [(1.0, 0.1), (0.7321, 0.13), (1.0, 0.25),
                                          (0.05, 0.01), (2.5, 0.1)])
    def test_boxcar_mass_exactly_one(self, t_g, step):
        assert boxcar_kernel(t_g, step).sum() == 1.0

    def test_kernels_wider_than_the_grid_are_cut_without_changing_a_point(self):
        t = time_grid(0, 2, 0.1)  # 21 points; the full boxcar has 103 taps
        params = FluorescenceParams(0.35, 2.5, 1.0, 10.0)
        ideal = ideal_intensity(wiggle(t), params).values
        g = boxcar_kernel(10.0, 0.1)
        want = np.convolve(np.convolve(ideal, exponential_kernel(2.5, 0.1, len(t)))[:len(t)],
                           g)[len(g) // 2: len(g) // 2 + len(t)]
        got = observed_intensity(wiggle(t), params).values
        assert len(boxcar_kernel(10.0, 0.1, len(t))) == 2 * len(t) + 1
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()  # no mass compensation
        # a kernel of about 1e53 taps, which could not be allocated, cut to the grid
        assert len(boxcar_kernel(1e300, 1e246, 11)) == 23

    def test_boxcar_symmetric(self):
        g = boxcar_kernel(1.0, 0.1)
        assert np.abs(g - g[::-1]).max() == 0.0


def convolved(x, tau_f, step):
    return np.convolve(x, exponential_kernel(tau_f, step, len(x)))[:len(x)]


class TestExponentialScan:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tau_f=st.floats(0.05, 5.0), steps_per_tau=st.floats(4.0, 40.0),
           blocks=st.floats(0.0, 4.0), decade=st.integers(-300, 300),
           seed=st.integers(0, 2**32 - 1))
    @example(tau_f=5.0, steps_per_tau=4.0, blocks=2.5, decade=300, seed=0)  # h x r^-j > 1e308
    def test_matches_the_uncut_convolution(self, tau_f, steps_per_tau, blocks, decade, seed):
        # from 2 points to four blocks, signed values of any size up to 1e300
        step = tau_f / steps_per_tau
        n = max(2, int(blocks * SCAN_SPAN * steps_per_tau))
        x = np.random.default_rng(seed).normal(size=n) * 10.0 ** decade
        got, want = exponential_scan(x, tau_f, step), convolved(x, tau_f, step)
        assert np.isfinite(want).all() and np.isfinite(got).all()
        assert (np.abs(got - want) <= 1e-13 * convolved(np.abs(x), tau_f, step)).all()

    def test_steeply_decaying_intensity(self):
        # t0 = 1e-6: I~ falls from about 5e8 to 5e-4; compared point by point
        t = time_grid(0, 100, 0.02)  # 5,001 points, four blocks and a part
        x = ideal_intensity(wiggle(t), FluorescenceParams(0.35, 1.2, 1e-6, 1.0)).values
        want = convolved(x, 1.2, 0.02)
        assert np.abs(exponential_scan(x, 1.2, 0.02) / want - 1).max() <= 1e-13

    def test_decay_slower_than_any_block(self):
        # tau_f/h = 1e308: SCAN_SPAN tau_f/h overflows to inf, the grid sets the block length
        x = wiggle(time_grid(0, 10, 0.1)).values
        got, want = exponential_scan(x, 1e307, 0.1), convolved(x, 1e307, 0.1)
        assert np.abs(got / want - 1).max() <= 1e-13

    def test_huge_finite_ideal_intensity_raises_numerical_error(self):
        # I~ peaks at the largest double; its fold with a slow decay exceeds it
        t = time_grid(0, 20, 0.1)
        s = TimeSeries(t, np.full(len(t), np.finfo(float).max))
        params = FluorescenceParams(1.0, 100.0, 1.0, 1.0)
        assert np.isfinite(ideal_intensity(s, params).values).all()
        with pytest.raises(NumericalError, match="overflows"):
            observed_intensity(s, params)


class TestObservedRatio:
    def test_identical_inputs_give_unity(self):
        t = time_grid(0, 100, 0.1)
        s = wiggle(t)
        r = observed_ratio(s, s, FIG9)
        assert np.abs(r["ratio"] - 1.0).max() <= 1e-12

    def test_delta_kernel_limit(self):
        t = time_grid(0, 20, 0.0005)
        s_b, s_0 = wiggle(t, freq=0.45), wiggle(t, freq=0.3)
        small = FluorescenceParams(0.35, 0.002, 1.0, 0.002)
        r = observed_ratio(s_b, s_0, small)
        ib = ideal_intensity(s_b, small)
        i0 = ideal_intensity(s_0, small)
        pointwise = np.interp(r["time_ns"], t, ib.values / i0.values)
        edge = r["time_ns"] > small.t_g + 3 * small.tau_f
        assert np.abs(r["ratio"][edge] - pointwise[edge]).max() <= 1e-3

    def test_ratio_scaling_invariance(self):
        t = time_grid(0, 60, 0.1)
        s_b, s_0 = wiggle(t, 0.45), wiggle(t, 0.31)
        r1 = observed_ratio(s_b, s_0, FIG9)["ratio"]
        # rescaling both intensities by the same positive factor is exact:
        # fold alpha through the affine signal map, then compare
        i_b = observed_intensity(s_b, FIG9).values
        i_0 = observed_intensity(s_0, FIG9).values
        assert np.abs((3.7 * i_b) / (3.7 * i_0) - r1).max() <= 1e-14

    def test_convolution_linearity(self):
        t = time_grid(0, 60, 0.1)
        s1, s2 = wiggle(t, 0.45), wiggle(t, 0.2, base=0.4, amp=0.2)
        mix = TimeSeries(t, 0.25 * s1.values + 0.75 * s2.values)
        out_mix = observed_intensity(mix, FIG9).values
        out_sum = (0.25 * observed_intensity(s1, FIG9).values
                   + 0.75 * observed_intensity(s2, FIG9).values)
        assert np.abs(out_mix - out_sum).max() <= 1e-12

    def test_grid_too_coarse_rejected(self):
        t = time_grid(0, 60, 1.0)
        s = wiggle(t)
        with pytest.raises(ValueError, match="too coarse"):
            observed_ratio(s, s, FIG9)

    @given(st.floats(0.1, 10.0))
    def test_homogeneity_under_f_rescale(self, alpha):
        # multiplying both ideal intensities by alpha leaves R untouched
        t = time_grid(0, 30, 0.1)
        s_b, s_0 = wiggle(t, 0.5), wiggle(t, 0.35)
        base = observed_ratio(s_b, s_0, FIG9)["ratio"]
        i_b = observed_intensity(s_b, FIG9).values * alpha
        i_0 = observed_intensity(s_0, FIG9).values * alpha
        assert np.abs(i_b / i_0 - base).max() <= 1e-12
