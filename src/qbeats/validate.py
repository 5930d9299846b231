"""Built-in validation suites: table reproduction, oracle equivalence,
channel/circuit equivalence, KAK round-trips, and statistics-correction
round-trips, each reporting its tolerance and worst observed deviation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .backends import partial_trace, run_density
from .circuits import Circuit
from .dynamics import (
    TimeSeries,
    cation_spectrum,
    evaluate_spectrum,
    pair_probabilities,
    pair_spectrum,
    sector_statevector,
    singlet_trace,
    singlet_vector,
    time_grid,
)
from .hamiltonians import (
    NuclearGroup,
    SpinSystemSpec,
    build_full_one_group,
    build_full_two_group,
    build_partitioned,
    build_reduced_one_group,
    build_two_group_block,
    distinct_spins,
    full_nuclear_sector_vector,
    one_group_reduced_index,
    partitioned_params,
)
from .kak import kak_decompose
from .library import add_singlet_prep, echo_pulse_circuit
from .noisecal import MeasurementStats, correct_stats, damp_stats
from .pipeline import one_group_spectrum
from .relaxation import (RelaxationParams, apply_channel, infinite_temperature_thermal_channel,
                         relaxed_singlet)
from .spinalg import HalfInt, multiplicity, spin_addition_counts

OCTALIN = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.3)
OCTALIN_ZERO = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


def _check(name: str, dev: float, tol: float) -> CheckResult:
    return CheckResult(name, dev <= tol, f"max_dev={dev:.3e} (tol={tol:g})")


def _check_exact(name: str, ok: bool) -> CheckResult:
    return CheckResult(name, ok, "exact")


# ---------------------------------------------------------------------------

def suite_tables() -> list[CheckResult]:
    results = []
    row8 = {I.twice_value: c for I, c in spin_addition_counts(8).items()}
    results.append(_check_exact(
        "spin counts, 8 spin-1/2", row8 == {0: 14, 2: 28, 4: 20, 6: 7, 8: 1}))
    row9 = {I.twice_value: c for I, c in spin_addition_counts(9).items()}
    results.append(_check_exact(
        "spin counts, 9 spin-1/2", row9 == {1: 42, 3: 48, 5: 27, 7: 8, 9: 1}))
    row12 = {I.twice_value: c for I, c in spin_addition_counts(12).items()}
    results.append(_check_exact(
        "spin counts, 12 spin-1/2",
        row12 == {0: 132, 2: 297, 4: 275, 6: 154, 8: 54, 10: 11, 12: 1}))
    results.append(_check_exact(
        "spin count identity rows 1..14",
        all(sum(c * multiplicity(I) for I, c in spin_addition_counts(n).items()) == 2**n
            for n in range(1, 15))))

    wz = dynamics.one_group_weights(8, "zero")
    wh = dynamics.one_group_weights(8, "high")
    results.append(_check_exact(
        "zero-field state counts",
        {k.twice_value: v for k, v in wz.items()} == {0: 14, 2: 84, 4: 100, 6: 49, 8: 9}
        and sum(wz.values()) == 256))
    results.append(_check_exact(
        "high-field state counts",
        {k.twice_value: v for k, v in wh.items()} == {0: 70, 2: 112, 4: 56, 6: 16, 8: 2}
        and sum(wh.values()) == 256))

    a = OCTALIN_ZERO.hyperfine_rad_ns[0]
    H512 = build_full_one_group(OCTALIN_ZERO)
    evals = np.linalg.eigvalsh(H512.matrix) / a
    uniq, counts = np.unique(np.round(evals, 9), return_counts=True)
    spectrum = dict(zip(uniq.tolist(), (counts // 2).tolist()))  # e2 doubles every level
    expected = {0.0: 28, -1.0: 56, 0.5: 112, -1.5: 80, 1.0: 120,
                -2.0: 42, 1.5: 56, -2.5: 8, 2.0: 10}
    results.append(_check_exact(
        "hyperfine eigenenergies and counts",
        {k: spectrum.get(k, 0) for k in expected} == expected and len(spectrum) == 9))

    expected_params = {
        8: (math.sqrt(1 / 9), math.sqrt(8 / 9), 2.0, -2.5),
        6: (math.sqrt(1 / 7), math.sqrt(6 / 7), 1.5, -2.0),
        4: (math.sqrt(1 / 5), math.sqrt(4 / 5), 1.0, -1.5),
        2: (math.sqrt(1 / 3), math.sqrt(2 / 3), 0.5, -1.0),
        0: (0.0, 0.0, 0.0, 0.0),
    }
    dev = max(
        abs(np.array(partitioned_params(8, HalfInt(tI))) - np.array(vals)).max()
        for tI, vals in expected_params.items()
    )
    results.append(_check("partitioned parameters I=0..4", dev, 1e-15))
    return results


def suite_oracle() -> list[CheckResult]:
    results = []
    times = time_grid(0.0, 100.0, 0.1)
    for B in (0.0, 0.3):
        spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=B)
        Hfull = build_full_one_group(spec)
        Hred = build_reduced_one_group(spec)
        worst_red = 0.0
        worst_part = 0.0
        for I in distinct_spins(8):
            for tm in range(-I.twice_value, I.twice_value + 2, 2):
                m = HalfInt(tm)
                nuc = full_nuclear_sector_vector(8, I, m)
                ref = singlet_trace(Hfull, singlet_vector(nuc, Hfull.dims), times)
                red = singlet_trace(
                    Hred, sector_statevector(one_group_reduced_index(8, I, m), Hred.dims[1]),
                    times)
                worst_red = max(worst_red, np.abs(ref.values - red.values).max())
                if m == I:
                    part = singlet_trace(
                        build_partitioned(I, spec), sector_statevector(0, 2), times)
                    worst_part = max(worst_part, np.abs(ref.values - part.values).max())
        results.append(_check(f"reduced vs full oracle, 25 states, B={B}", worst_red, 1e-9))
        results.append(_check(f"partitioned vs full oracle, |I,I> states, B={B}",
                              worst_part, 1e-9))
    # two-group toy system against its product-space oracle
    toy = SpinSystemSpec(groups=(NuclearGroup(2, 0.65), NuclearGroup(2, 1.66)), field_B=0.1)
    Hfull = build_full_two_group(toy)
    mixed = pair_spectrum(Hfull, singlet_vector(np.eye(16), Hfull.dims), np.full(16, 1 / 16))
    oracle = evaluate_spectrum(mixed, times, singlet=True)
    traces, padding, degs = {}, {}, {}
    for I2 in distinct_spins(2):
        sec = build_two_group_block(I2, toy)
        padded = evaluate_spectrum(cation_spectrum(sec.blocks, sec.b2), times, singlet=True)
        traces[I2] = TimeSeries(times, np.clip(padded + sec.pad_register / sec.register_size,
                                               0.0, 1.0))
        padding[I2] = (sec.pad_register, sec.register_size)
        degs[I2] = sec.degeneracy
    rebuilt = dynamics.reassemble_two_group(traces, padding, degs, 4)
    results.append(_check("(2,2) toy sectors vs product-space oracle",
                          np.abs(rebuilt.values - oracle).max(), 1e-9))
    return results


def suite_channel_circuit() -> list[CheckResult]:
    from .library import kraus_circuit
    from .noisemethods import per_gate_singlet_values

    results = []
    rng = np.random.default_rng(2024)
    params = RelaxationParams(t=4.0, T1=9.0, T2=11.0)
    chan = infinite_temperature_thermal_channel(params, "q0")
    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho_in = np.outer(v, v.conj())
        circ = kraus_circuit(params, 0, 1, 2)
        full = run_density(circ, np.kron(rho_in, np.diag([1.0, 0.0])).astype(complex))
        from_circuit = partial_trace(full.matrix, (0,), 2)
        from_channel = apply_channel(
            dynamics.DensityMatrix(rho_in, (2,), ("q0",)), chan).matrix
        worst = max(worst, np.abs(from_circuit - from_channel).max())
    results.append(_check("ancilla Kraus circuit vs closed-form channel, 50 states",
                          worst, 1e-12))

    spec = SpinSystemSpec(groups=(NuclearGroup(8, 2.49),), field_B=0.0, T1=9.0, T2=9.0)
    times = time_grid(0.0, 50.0, 1.0)
    mixed = one_group_spectrum(spec, "zero")
    kraus = relaxed_singlet(mixed, times, times, 9.0, 9.0)
    pergate = per_gate_singlet_values(evaluate_spectrum(mixed, times), times, 9.0, 9.0)
    results.append(_check("per-gate noisy identity vs Kraus channel, mixed-state run",
                          np.abs(kraus - pergate).max(), 1e-9))
    return results


def suite_kak() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(7)

    def haar(n):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    worst = 0.0
    for _ in range(100):
        U = haar(4)
        worst = max(worst, np.abs(kak_decompose(U).reconstruct() - U).max())
    results.append(_check("KAK round-trip, 100 Haar-random unitaries", worst, 1e-9))

    worst = 0.0
    spec = OCTALIN
    for I in distinct_spins(8):
        Hp = build_partitioned(I, spec)
        pair_block = Hp.matrix[:4, :4]  # H_hfc + cation Zeeman on (nuc, e1)
        for t in (1.0, 5.0, 17.3):
            w, v = np.linalg.eigh(pair_block)
            U = (v * np.exp(-1j * w * t)) @ v.conj().T
            worst = max(worst, np.abs(kak_decompose(U).reconstruct() - U).max())
    results.append(_check("KAK round-trip, partitioned evolution blocks", worst, 1e-9))

    # three-site circuit: KAK block on (nuc, e1) plus anion Z-rotation on e2
    worst = 0.0
    for I in distinct_spins(8):
        Hp = build_partitioned(I, spec)
        w_all, v_all = Hp.eig()
        for t in (2.0, 7.7):
            U_exact = (v_all * np.exp(-1j * w_all * t)) @ v_all.conj().T
            pair_block = Hp.matrix[:4, :4]
            w, v = np.linalg.eigh(pair_block)
            U_pair = (v * np.exp(-1j * w * t)) @ v.conj().T
            dec = kak_decompose(U_pair)
            circ = dec.to_circuit(sites=(1, 2), site_count=3)
            circ.add("RZ", 0, (-2 * spec.b2 * t,))
            from .backends import run_statevector

            built = np.empty((8, 8), dtype=complex)
            for col in range(8):
                e = np.zeros(8, dtype=complex)
                e[col] = 1.0
                built[:, col] = run_statevector(circ, e)
            built *= dec.global_phase
            phase = np.vdot(built.reshape(-1), U_exact.reshape(-1))
            phase /= abs(phase)
            worst = max(worst, np.abs(built * phase - U_exact).max())
    results.append(_check("three-site KAK + Rz circuit vs direct evolution", worst, 1e-9))
    return results


def suite_correction() -> list[CheckResult]:
    results = []
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        und = MeasurementStats.from_array(rng.dirichlet(np.ones(4)))
        tpm = rng.uniform(0.0, 0.2)
        remaining = 1.0 - 2.0 * tpm
        s_ref = remaining * rng.uniform(0.55, 0.95)
        ref = MeasurementStats(s_ref, remaining - s_ref, tpm, tpm)
        if min(abs(1 - 4 * ref.tp), abs(ref.s**2 - ref.t0**2)) < 1e-3:
            continue
        rec = correct_stats(damp_stats(und, ref), ref)
        worst = max(worst, np.abs(rec.as_array() - und.as_array()).max())
    results.append(_check("inject-then-correct statistics round-trip", worst, 1e-10))

    # deterministic drift cancels under echo pulses
    from .backends import SyntheticQubitNoise

    tid = 35.5
    N = 1600
    drift = SyntheticQubitNoise(T1=1e5, T2=1e5, drift_phase_rate=(0.01, 0.0))
    plain = SyntheticQubitNoise(T1=1e5, T2=1e5)

    def echo_run(noise):
        c = Circuit(2)
        add_singlet_prep(c, 0, 1)
        c.extend(echo_pulse_circuit(N, tid, (0, 1), 2))
        rho = run_density(c, noise=noise).matrix
        return pair_probabilities(partial_trace(rho, (0, 1), 2))[0]

    dev = abs(echo_run(drift) - echo_run(plain))
    results.append(_check("echo pulses cancel deterministic drift", float(dev), 1e-9))
    return results


SUITES = {
    "tables": suite_tables,
    "oracle": suite_oracle,
    "channel-circuit": suite_channel_circuit,
    "kak": suite_kak,
    "correction": suite_correction,
}


def run_suite(name: str) -> list[CheckResult]:
    """The checks of the suite ``name`` of ``SUITES``, or of every suite for 'all'."""
    chosen = SUITES.values() if name == "all" else [SUITES[name]]
    return [r for fn in chosen for r in fn()]
