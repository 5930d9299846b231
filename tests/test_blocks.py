"""Block-by-block propagation against the dense eigendecomposition it replaced.

The oracle below is the dense formula: one ``np.linalg.eigh`` of the whole
matrix and the statevector propagated over every basis state (or, for the
two-group mixed registers, a beat spectrum over every eigenvalue pair).  Trajectories
are compared as sector sums; a single high-field dmb register state already
sits at the dense oracle's own roundoff floor (about 1e-12).
"""

import dataclasses
import functools

import numpy as np
import pytest

from qbeats import pipeline
from qbeats.config import load_preset
from qbeats.dynamics import (
    PAIR_TRIU,
    PairSpectrum,
    cation_spectrum,
    evaluate_rows,
    evaluate_spectrum,
    pair_slice_indices,
    sector_statevector,
    singlet_values,
    singlet_vector,
)
from qbeats.hamiltonians import (
    BlockHamiltonian,
    NuclearGroup,
    build_full_one_group,
    build_full_two_group,
    build_partitioned,
    build_reduced_one_group,
    build_two_group_block,
    distinct_spins,
    full_nuclear_sector_vector,
    one_group_reduced_index,
)
from qbeats.pipeline import one_group_sector_spectra, simulate
from qbeats.relaxation import CORRELATOR_TRIU
from qbeats.spinalg import HalfInt, multiplicity, spin_addition_counts
from support import (cation_matrix, cation_register, cg_block_matrix, coupled_hfc_eigenvalues,
                     dense_eig, dense_pair_trajectory)

REGIMES = ("zero", "high")
GRID = (0.0, 100.0, 1.0)
TIMES = np.arange(101) * 1.0


def dense_pair_spectrum(H, states, weights):
    """Spectrum over every eigenvalue pair of a dense eigendecomposition of the whole matrix."""
    w, v = dense_eig(H)
    idx = pair_slice_indices(H.dims)
    c = np.atleast_2d(states) @ v.conj()
    coherence = (np.asarray(weights)[:, None] * c).T @ c.conj()
    amps = [coherence * (v[idx[a]].T @ v[idx[b]].conj()) for a, b in zip(*PAIR_TRIU)]
    return PairSpectrum(np.subtract.outer(w, w).ravel(),
                        np.stack([a.ravel() for a in amps], axis=1))


def dense_cation_spectrum(blocks, b2):
    """``dense_pair_spectrum`` of the ensemble on the register 1_e2 x h - b2 Z_e2 x 1 of the
    cation blocks' matrix h."""
    h, _, weights = blocks.dense()
    H = cation_register(h, b2)
    return dense_pair_spectrum(H, singlet_vector(np.eye(H.dims[1]), H.dims), weights)


def spec(name, regime):
    return load_preset(name).spin_spec(regime)


@pytest.mark.parametrize("regime", REGIMES)
def test_octalin_sector_trajectories_match_dense(regime):
    s = spec("octalin", regime)
    H = build_reduced_one_group(s)
    for I, spectrum in one_group_sector_spectra(s).items():
        psi = sector_statevector(one_group_reduced_index(8, I, I), H.dims[1])
        assert np.abs(evaluate_spectrum(spectrum, TIMES)
                      - dense_pair_trajectory(H, psi, TIMES)).max() <= 1e-12


@pytest.mark.parametrize("regime", REGIMES)
def test_dmb_sector_trajectories_match_dense(regime):
    s = spec("dmb", regime)
    for I2 in spin_addition_counts(12):
        sector = build_two_group_block(I2, s)
        dense = sum(dense_pair_trajectory(sector.hamiltonian,
                                          sector_statevector(r, sector.register_size), TIMES)
                    for r in range(sector.real_register)) / sector.register_size
        blocked = evaluate_spectrum(cation_spectrum(sector.blocks, sector.b2), TIMES)
        assert np.abs(blocked - dense).max() <= 1e-12


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", ["octalin", "dmb"])
def test_simulate_matches_dense(monkeypatch, name, regime):
    config = dataclasses.replace(load_preset(name), time_grid=GRID)
    blocked = simulate(config, regime).trace.values
    monkeypatch.setattr(pipeline, "cation_correlators", lambda blocks, b2, times: evaluate_rows(
        dense_cation_spectrum(blocks, b2), times, CORRELATOR_TRIU[:3]))
    dense = simulate(config, regime).trace.values
    assert np.abs(blocked - dense).max() <= 1e-12


def dmb_sector(I2, s):
    return build_two_group_block(I2, s).hamiltonian


def builders():
    """Name -> builder of every Hamiltonian whose blocks are inspected."""
    out = {}
    for regime in REGIMES:
        octalin, dmb = spec("octalin", regime), spec("dmb", regime)
        out[f"reduced-{regime}"] = functools.partial(build_reduced_one_group, octalin)
        out[f"partitioned-{regime}"] = functools.partial(build_partitioned, HalfInt(8), octalin)
        for I2 in spin_addition_counts(12):
            out[f"dmb-I2={I2}-{regime}"] = functools.partial(dmb_sector, I2, dmb)
    out["full-oracle-high"] = functools.partial(build_full_one_group, spec("octalin", "high"))
    return out


BUILDERS = builders()


@functools.cache
def hamiltonian(name):
    return BUILDERS[name]()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_block_invariants(name):
    H = hamiltonian(name)
    blocks = H.blocks()
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(H.dim))
    same_block = np.zeros((H.dim, H.dim), dtype=bool)
    for b in blocks:
        same_block[np.ix_(b, b)] = True
    assert np.all(H.matrix[~same_block] == 0)
    w, v = H.eig()
    scale = np.abs(H.matrix).max()
    assert np.abs((v * w) @ v.conj().T - H.matrix).max() <= 1e-12 * scale
    assert np.abs(v.conj().T @ v - np.eye(H.dim)).max() <= 1e-12


def test_block_sizes():
    largest = {kind: max(len(b) for name in BUILDERS if name.startswith(kind)
                         for b in hamiltonian(name).blocks())
               for kind in ("reduced", "dmb", "full-oracle")}
    assert largest["reduced"] <= 2
    assert largest["dmb"] <= 6
    assert largest["full-oracle"] <= 126
    # populated nuclear slots of each padded register: the 25 distinct |I, m> of octalin,
    # 4 (2 I2 + 1) of a dmb I2 sector; the slots after them are padding
    populated = {f"reduced-{r}": sum(multiplicity(I) for I in distinct_spins(8)) for r in REGIMES}
    populated |= {f"dmb-I2={I2}-{r}": 4 * multiplicity(I2)
                  for r in REGIMES for I2 in spin_addition_counts(12)}
    for name, real in populated.items():
        H = hamiltonian(name)
        padding = pair_slice_indices(H.dims)[:, real:].ravel()
        touched = np.unique(H.block_of[padding])  # each padding row is a block of its own
        assert [len(H.blocks()[k]) for k in touched] == [1] * len(padding), name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_rejected(bad):
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BlockHamiltonian(m, (2, 1, 2))



def elementwise_cation_two_group(I2, s):
    """The fixed-I2 cation block assembled entry by entry: U1 Lambda1 U1 and U2 Lambda2 U2
    with CG_{I2} placed on every (m2, e1) pair of each group-1 slot, plus the e1 Zeeman term."""
    n_m2 = multiplicity(I2)
    size = 8 * n_m2
    U1, lam1 = np.zeros((size, size)), np.zeros(size)
    U2, lam2 = np.zeros((size, size)), np.zeros(size)
    for k in range(n_m2):
        for I1, start, width in ((HalfInt(2), 0, 6), (HalfInt(0), 6, 2)):
            o = 8 * k + start
            U1[o:o + width, o:o + width] = cg_block_matrix(I1)
            lam1[o:o + width] = coupled_hfc_eigenvalues(I1)
    cg2, lam2_coupled = cg_block_matrix(I2), coupled_hfc_eigenvalues(I2)
    for x in range(len(cg2)):
        for k in range(4):
            row = (x // 2) * 8 + 2 * k + x % 2  # m2 block, group-1 slot k, e1
            lam2[row] = lam2_coupled[x]
            for y in range(len(cg2)):
                U2[row, (y // 2) * 8 + 2 * k + y % 2] = cg2[x, y]
    w1, w2 = s.hyperfine_rad_ns
    h = w1 * U1 @ np.diag(lam1) @ U1 + w2 * U2 @ np.diag(lam2) @ U2
    return h - s.b1 * np.diag(np.tile([1.0, -1.0], size // 2))


@pytest.mark.parametrize("regime", REGIMES)
def test_cation_two_group_matches_the_elementwise_assembly(regime):
    s = spec("dmb", regime)
    for I2 in spin_addition_counts(12):
        h, twice_m = cation_matrix(build_two_group_block(I2, s).blocks)
        oracle = elementwise_cation_two_group(I2, s)
        assert np.abs(h - oracle).max() <= 1e-14 * np.abs(oracle).max(), I2
        assert len(twice_m) == len(h) == 8 * multiplicity(I2)


# ---------------------------------------------------------------------------
# g1 != g2: the e1 and e2 Zeeman terms no longer cancel in the singlet-T0 mixing
# ---------------------------------------------------------------------------
#
# Tolerance, fixed before running: every Bohr frequency is a difference of two
# eigenvalues of H, so max|omega| <= 2 ||H|| with
# ||H|| <= sum_groups a_g (n_g / 2 + 1) / 2 + |b1| + |b2| (a I.S1 has eigenvalues
# I / 2 and -(I + 1) / 2).  The dense ``eigh`` resolves each frequency to a few
# eps ||H||; ``cation_spectrum`` to its merge width 64 eps (lambda_max + |b2|),
# which is below 64 eps max|omega|.  The singlet beats' amplitudes sum to 1 in
# magnitude, so a frequency off by d omega moves S(t) by at most d omega t_max,
# and the two sides agree to 128 eps max|omega| t_max.  (A 1e-12 bound is too
# tight: a high-field run differs from the dense oracle by about 1.3e-12.)

G2_SHIFTED = 2.01  # against g1 = 2.0028


def shifted_g2(name, groups, field_B=0.3, **changes):
    return dataclasses.replace(load_preset(name), groups=groups, g2=G2_SHIFTED,
                               field_B=field_B, noise_method="none", time_grid=GRID, **changes)


def frequency_tolerance(spec):
    norm = sum(a * (g.count / 2 + 1) / 2 for a, g in zip(spec.hyperfine_rad_ns, spec.groups))
    return 128 * np.finfo(float).eps * 2 * (norm + abs(spec.b1) + abs(spec.b2)) * TIMES.max()


def test_one_group_pure_state_with_unequal_g_matches_the_full_product_space():
    config = shifted_g2("octalin", (NuclearGroup(4, 2.49),), initial_state="1, 0")
    s = config.spin_spec("high")
    assert s.b1 != s.b2
    H = build_full_one_group(s)
    psi = singlet_vector(full_nuclear_sector_vector(4, HalfInt(2), HalfInt(0)), H.dims)
    dense = singlet_values(dense_pair_trajectory(H, psi, TIMES))
    assert np.abs(simulate(config, "high").trace.values - dense).max() <= frequency_tolerance(s)


def test_two_group_toy_with_unequal_g_matches_the_full_product_space():
    config = shifted_g2("dmb", (NuclearGroup(2, 0.65), NuclearGroup(2, 1.66)))
    s = config.spin_spec("high")
    assert s.b1 != s.b2
    H = build_full_two_group(s)
    spectrum = dense_pair_spectrum(H, singlet_vector(np.eye(16), H.dims), np.full(16, 1 / 16))
    dense = evaluate_spectrum(spectrum, TIMES, singlet=True)
    assert np.abs(simulate(config, "high").trace.values - dense).max() <= frequency_tolerance(s)
