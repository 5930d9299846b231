"""``simulate`` against the dense full-register evolution, on drawn systems.

Every example is a configuration that ``parse_config`` accepts: one group of
n <= 8 nuclei or two groups (2, n2 <= 4), each with an hfc of 0.1-3 mT; g1
and g2 drawn independently in 1.99-2.02; a field of 0-1 T; and (T1, T2)
drawn with T2 <= 2 T1, either possibly infinite.  The initial state is a pure
|I, m> of one group at the drawn field, or the mixed nuclear state: at zero
field for one group (where the average over the |I, m=I> representatives is
exact) and at the drawn field for two groups (whose every nuclear state is
weighted).  ``simulate`` runs with ``none`` and with ``kraus``, and a mixed
one-group example also reads ``relaxed_singlet`` of ``one_group_spectrum`` at
(T1, T2); the oracle is one ``eigh`` of the whole 2^(N+2)-square matrix
(``support.dense_pair_trajectory``, or ``support.dense_density_trajectory`` of
the mixed state) followed by the closed-form both-site channel at the same
(T1, T2), ``relaxed_bell_probabilities`` of the trajectory's correlators.

A mixed one-group example draws n <= 6: the mixed-state oracle costs
D^2 T per pair element, which at n = 8 (D = 1024) alone would take seconds.

Tolerance, fixed before running: every Bohr frequency is a difference of two
eigenvalues of H, so max|omega| <= 2 ||H|| with
||H|| <= sum_groups a_g (n_g / 2 + 1) / 2 + |b1| + |b2|.  Both sides resolve
each frequency to the merge width of ``cation_spectrum``, 64 eps
(lambda_max + |b2|) < 64 eps max|omega|, or to a few eps ||H|| for the dense
``eigh``.  The singlet beats' amplitudes sum to 1 in magnitude, and the
channel only scales them, so a frequency off by d omega moves S(t) by at
most d omega t_max: the two sides agree to 128 eps max|omega| t_max.
"""

import dataclasses

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from qbeats.config import parse_config
from qbeats.dynamics import singlet_vector, time_grid
from qbeats.hamiltonians import (build_full_one_group, build_full_two_group,
                                 full_nuclear_sector_vector)
from qbeats.pipeline import one_group_spectrum, simulate
from qbeats.relaxation import relaxed_bell_probabilities, relaxed_singlet
from qbeats.spinalg import HalfInt
from support import (dense_density_trajectory, dense_pair_trajectory, mixed_singlet_density,
                     trajectory_correlators)

GRID = (0.0, 100.0, 2.0)
TIMES = time_grid(*GRID)
EPS = np.finfo(float).eps


@st.composite
def systems(draw):
    """(config, regime) of a drawn system and initial state."""
    kind = draw(st.sampled_from(["pure", "mixed", "two groups"]))
    two, pure = kind == "two groups", kind == "pure"
    counts = [2, draw(st.integers(1, 4))] if two else [draw(st.integers(1, 8 if pure else 6))]
    groups = [{"count": n, "hfc_mT": draw(st.floats(0.1, 3.0))} for n in counts]
    regime = "high" if two or pure else "zero"
    T1 = draw(st.one_of(st.just(np.inf), st.floats(1.0, 1e4)))
    T2 = draw(st.one_of(st.just(np.inf), st.floats(0.5, 1e4)) if T1 == np.inf
              else st.floats(0.5, 2 * T1))
    initial = "mixed"
    if pure:
        I = draw(st.sampled_from(range(counts[0] % 2, counts[0] + 1, 2)))
        initial = f"{I / 2}, {draw(st.sampled_from(range(-I, I + 1, 2))) / 2}"
    config = parse_config({
        "system": {"groups": groups, "g1": draw(st.floats(1.99, 2.02)),
                   "g2": draw(st.floats(1.99, 2.02)), "field_B": draw(st.floats(0.0, 1.0)),
                   "relaxation": {regime: {"T1": T1, "T2": T2}}},
        "initial_state": initial,
        "time_grid": dict(zip(("start", "end", "step"), GRID)),
    })
    return config, regime


def dense_singlet_trajectory(config, regime):
    """The pair trajectory of the configuration's initial state, from the dense oracle."""
    spec = config.spin_spec(regime)
    H = (build_full_one_group if len(spec.groups) == 1 else build_full_two_group)(spec)
    if config.initial_state == "mixed":  # |S><S| x 1/K, the nuclear factors flattened into one
        mixed = mixed_singlet_density(H.dim // 4).matrix
        return dense_density_trajectory(H, mixed, TIMES)
    I, m = (HalfInt.from_float(float(x)) for x in config.initial_state.split(","))
    nuclear = full_nuclear_sector_vector(spec.groups[0].count, I, m)
    return dense_pair_trajectory(H, singlet_vector(nuclear, H.dims), TIMES)


def frequency_tolerance(spec):
    norm = sum(a * (g.count / 2 + 1) / 2 for a, g in zip(spec.hyperfine_rad_ns, spec.groups))
    return 128 * EPS * 2 * (norm + abs(spec.b1) + abs(spec.b2)) * TIMES.max()


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_simulate_matches_the_dense_register_and_the_closed_form_channel(drawn):
    config, regime = drawn
    spec = config.spin_spec(regime)
    correlators = trajectory_correlators(dense_singlet_trajectory(config, regime))
    tol = frequency_tolerance(spec)
    for method, (T1, T2) in (("none", (np.inf, np.inf)), ("kraus", (spec.T1, spec.T2))):
        values = simulate(dataclasses.replace(config, noise_method=method), regime).trace.values
        oracle = relaxed_bell_probabilities(correlators, TIMES, T1, T2)[:, 0]
        assert np.abs(values - oracle).max() <= tol, (method, config.canonical())
    if config.initial_state == "mixed" and len(spec.groups) == 1:  # oracle: the kraus one
        values = relaxed_singlet(one_group_spectrum(spec, regime), TIMES, TIMES, spec.T1, spec.T2)
        assert np.abs(values - oracle).max() <= tol, config.canonical()
