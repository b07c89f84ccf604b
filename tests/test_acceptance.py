"""Acceptance suite: one test per criterion, one printed line per result.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines.
Criteria 1-6 are exact or tolerance-bounded; 7-10 are ordering/trend
checks; 11 sweeps randomized small models through every invariant.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import find_peaks, peak_prominences
from scipy.stats import spearmanr

import polarbin as pb
from polarbin.config import load_config
from polarbin.observables import populations
from polarbin.oracle import compare_multibin_to_effective, compare_to_cute
from polarbin.runs import run_dynamics

from conftest import binned_fock, fig3_spec, hermiticity_defect, negated, random_small_spec

FS = pb.FS_TO_AU


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def grid(t_final_fs, n_steps):
    t_final = t_final_fs * FS
    return t_final / n_steps, t_final


def top_two_peak_positions(spectrum):
    a, w = spectrum.values, spectrum.omega
    interior = np.arange(1, len(a) - 1)
    maxima = interior[(a[interior] > a[interior - 1])
                      & (a[interior] > a[interior + 1])]
    top = maxima[np.argsort(-a[maxima])[:2]]
    return sorted(w[top])


def central_half(n_bins):
    return slice(n_bins // 4, n_bins - n_bins // 4)


def increasing_trend(values, rho_min=0.75):
    """Monotone-trend statistic: strong rank correlation plus end-to-end rise."""
    rho = spearmanr(np.arange(len(values)), values).statistic
    return rho >= rho_min and values[-1] > values[0], rho


def test_criterion_01_jaynes_cummings_exactness():
    start = time.time()
    dt, t_final = grid(30, 1240)
    # population clause at kappa = 0, exactly as stated
    spec = fig3_spec(s1=0.0, s2=0.0, v12=0.0, kappa=0.0, omega_c=0.10,
                     sigma=0.0)
    bins = pb.discretize_disorder(spec, 1)
    ham = pb.build_effective_hamiltonian(spec, bins, 2)
    traj = pb.propagate(ham, pb.photonic_state(ham.layout), dt, t_final,
                        1e-9)
    pop_err = np.abs(
        traj.photon - np.cos(0.03 * traj.times) ** 2
    ).max()
    # spectrum clause needs kappa > 0 (A == 0 identically at kappa = 0);
    # at the production kappa the peak shift is ~4e-5 < one grid step
    lossy = replace(spec, kappa=0.006)
    ham_l = pb.build_effective_hamiltonian(lossy, bins, 2)
    traj_l = pb.propagate(ham_l, pb.photonic_state(ham_l.layout), dt, t_final,
                          1e-9)
    spectrum = pb.absorption(traj_l, lossy.kappa, pb.default_omega_grid(lossy))
    lo, hi = top_two_peak_positions(spectrum)
    peak_err = max(abs(lo - 0.07), abs(hi - 0.13))
    elapsed = time.time() - start
    report(
        1, "Jaynes-Cummings exactness",
        pop_err < 1e-6 and peak_err <= 1.0001e-4 and elapsed < 1.0,
        f"pop err {pop_err:.2e}, peak err {peak_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_empty_cavity_null():
    start = time.time()
    dt, t_final = grid(200, 8268)
    spec = fig3_spec(coupling=0.0, omega_c=0.105, sigma=0.0)
    bins = pb.discretize_disorder(spec, 1)
    ham = pb.build_effective_hamiltonian(spec, bins, 2)
    traj = pb.propagate(ham, pb.photonic_state(ham.layout), dt, t_final,
                        1e-9)
    spectrum = pb.absorption(traj, spec.kappa, pb.default_omega_grid(spec))
    worst = np.abs(spectrum.values).max()
    elapsed = time.time() - start
    report(2, "empty-cavity absorption null",
           worst < 1e-4 and elapsed < 1.0,
           f"max|A| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_dual_path_equivalence():
    start = time.time()
    dt, t_final = grid(30, 1240)
    spec = fig3_spec(sigma=0.02)
    bins = pb.discretize_disorder(spec, 4)
    ham = pb.build_effective_hamiltonian(spec, bins, 20)
    psi0 = pb.photonic_state(ham.layout)
    a = pb.propagate(ham, psi0, dt, t_final, 1e-9)
    b = pb.propagate_eom(spec, bins, 20, psi0, dt, t_final, 1e-9)
    ra, rb = populations(a), populations(b)
    dev = max(np.abs(ra.p_e1 - rb.p_e1).max(), np.abs(ra.p_e2 - rb.p_e2).max())
    elapsed = time.time() - start
    report(3, "matrix vs equations-of-motion engines",
           dev < 1e-8 and elapsed < 30.0,
           f"per-bin deviation {dev:.2e}, {elapsed:.1f}s")


def test_criterion_04_multibin_equivalence():
    start = time.time()
    dt, t_final = grid(15, 620)
    spec = fig3_spec(sigma=0.02)
    bins = pb.discretize_disorder(spec, 2)
    rep = compare_multibin_to_effective(spec, bins, 8, dt, t_final, 1e-9)
    dev = max(rep.p_e1_max, rep.p_e2_max)
    elapsed = time.time() - start
    report(4, "multi-coordinate vs shared-coordinate forms",
           dev < 1e-8 and elapsed < 60.0,
           f"per-bin deviation {dev:.2e}, {elapsed:.1f}s")


def test_criterion_05_finite_ensemble_convergence():
    start = time.time()
    dt, t_final = grid(10, 413)
    spec = fig3_spec(sigma=0.02, coupling=0.01)
    bins = pb.discretize_disorder(spec, 2)
    deviations = [
        compare_to_cute(spec, bins, 5, n, dt, t_final, 1e-9).p_e1_total_max
        for n in (1, 2, 4)
    ]
    elapsed = time.time() - start
    decreasing = deviations[0] > deviations[1] > deviations[2]
    report(5, "explicit-ensemble convergence with N",
           decreasing and elapsed < 300.0,
           "deviations " + ", ".join(f"{d:.3e}" for d in deviations)
           + f", {elapsed:.1f}s")


def test_criterion_06_bin_count_rule():
    start = time.time()
    dt, t_final = grid(40, 1654)
    spec = fig3_spec(omega0=0.11, omega_c=0.12, sigma=0.02)
    rule = pb.bin_count_rule(spec.sigma, t_final)
    assert rule == 32
    ratios = {}
    for n_bins in (rule // 2, rule, 2 * rule):
        bins = pb.discretize_disorder(spec, n_bins)
        ham = pb.build_effective_hamiltonian(spec, bins, 60)
        traj = pb.propagate(ham, pb.photonic_state(ham.layout), dt, t_final,
                            1e-9)
        e1, e2, _ = pb.state_populations(traj.final_state, ham.layout)
        ratios[n_bins] = e2.sum() / e1.sum()
    rel_double = abs(ratios[2 * rule] - ratios[rule]) / ratios[rule]
    halving = abs(ratios[rule // 2] - ratios[rule])
    doubling = abs(ratios[2 * rule] - ratios[rule])
    elapsed = time.time() - start
    report(6, "bin-count rule marks convergence",
           rel_double < 0.01 and halving > doubling and elapsed < 300.0,
           f"doubling {100 * rel_double:.2f}%, halving dev {halving:.2e} "
           f"vs {doubling:.2e}, {elapsed:.1f}s")


def _production_spectrum(sigma):
    dt, t_final = grid(30, 1240)
    spec = fig3_spec(sigma=sigma)
    bins = pb.discretize_disorder(spec, pb.bin_count_rule(sigma, t_final))
    ham = pb.build_effective_hamiltonian(spec, bins, 60)
    traj = pb.propagate(ham, pb.photonic_state(ham.layout), dt, t_final,
                        1e-9)
    return pb.absorption(traj, spec.kappa, pb.default_omega_grid(spec))


def _third_prominence(spectrum):
    peaks, _ = find_peaks(spectrum.values)
    prominences = peak_prominences(spectrum.values, peaks)[0]
    if len(prominences) < 3:
        return 0.0
    return float(np.sort(prominences)[-3])


def test_criterion_07_disorder_phenomenology():
    start = time.time()
    ordered = _production_spectrum(0.0)
    disordered = _production_spectrum(0.02)
    split_0 = pb.rabi_splitting(ordered)
    split_d = pb.rabi_splitting(disordered)
    side_0 = _third_prominence(ordered)
    side_d = _third_prominence(disordered)
    elapsed = time.time() - start
    report(7, "disorder widens splitting, suppresses vibronic side peaks",
           split_d > split_0 and side_d < side_0 and elapsed < 300.0,
           f"splitting {split_0:.4f}->{split_d:.4f}, side peak "
           f"{side_0:.3f}->{side_d:.3f}, {elapsed:.1f}s")


def _bright_yield(sigma, coupling):
    dt, t_final = grid(30, 1240)
    spec = fig3_spec(sigma=sigma, coupling=coupling)
    bins = pb.discretize_disorder(
        spec, pb.bin_count_rule(sigma, t_final)
    )
    ham = pb.build_effective_hamiltonian(spec, bins, 60)
    traj = pb.propagate(ham, pb.bright_state(ham.layout, bins), dt, t_final,
                        1e-9)
    _, e2, _ = pb.state_populations(traj.final_state, ham.layout)
    return e2.sum()


def test_criterion_08_polaron_decoupling_and_its_loss():
    start = time.time()
    reference = _bright_yield(0.0, 0.0)     # off-cavity, disorder-independent
    ordered = _bright_yield(0.0, 0.03)      # strong coupling, no disorder
    disordered = _bright_yield(0.04, 0.03)  # strong coupling, 2 sigma = 0.08
    elapsed = time.time() - start
    suppressed = ordered < reference
    recovered = abs(disordered - reference) < abs(ordered - reference)
    report(8, "strong coupling suppresses the reaction; disorder restores it",
           suppressed and recovered and elapsed < 600.0,
           f"yields: off-cavity {reference:.4f}, ordered {ordered:.4f}, "
           f"disordered {disordered:.4f}, {elapsed:.1f}s")


def test_criterion_09_narrowband_asymmetry():
    start = time.time()
    dt, t_final = grid(30, 1240)
    spec = fig3_spec(sigma=0.02)
    bins = pb.discretize_disorder(spec, pb.bin_count_rule(0.02, t_final))
    ham = pb.build_effective_hamiltonian(spec, bins, 60)
    yields = {}
    for name in ("upper_polariton", "lower_polariton"):
        psi0 = pb.make_initial_state(name, ham.layout, bins)
        traj = pb.propagate(ham, psi0, dt, t_final, 1e-9)
        e1, e2, _ = pb.state_populations(traj.final_state, ham.layout)
        yields[name] = (e1, e2)
    e1_up, e2_up = yields["upper_polariton"]
    _, e2_lp = yields["lower_polariton"]
    asymmetric = e2_up.sum() > e2_lp.sum()
    reactivity = e2_up / (e1_up + e2_up)
    window = reactivity[central_half(bins.n_bins)]
    trending, rho = increasing_trend(window)
    elapsed = time.time() - start
    report(9, "upper-branch pumping reacts more, high bins most reactive",
           asymmetric and trending and elapsed < 600.0,
           f"yield UP {e2_up.sum():.4f} vs LP {e2_lp.sum():.4f}, "
           f"trend rho {rho:.2f}, {elapsed:.1f}s")


def test_criterion_10_vibrational_energy_gradient():
    start = time.time()
    spec = fig3_spec(sigma=0.02)
    # binning of the 30 fs production run this snapshot belongs to
    n_bins = pb.bin_count_rule(0.02, 30 * FS)
    bins = pb.discretize_disorder(spec, n_bins)
    ham = pb.build_effective_hamiltonian(spec, bins, 60)
    dt, t_final = grid(5, 207)
    traj = pb.propagate(ham, pb.photonic_state(ham.layout), dt, t_final,
                        1e-9)
    energies = pb.vibrational_energy(traj.final_state, ham.layout, spec)
    window = energies[central_half(n_bins)]
    trending, rho = increasing_trend(window)
    elapsed = time.time() - start
    report(10, "reactant vibrational energy rises with bin frequency at 5 fs",
           trending and elapsed < 300.0,
           f"trend rho {rho:.2f}, window {window[0]:.4f}->{window[-1]:.4f}, "
           f"{elapsed:.1f}s")


def _case_invariants(rng):
    """One randomized small model through the physics invariants."""
    spec = random_small_spec(rng)
    n_bins = int(rng.integers(2, 5)) if spec.sigma > 0 else 1
    n_vib = int(rng.integers(4, 11))
    bins = pb.discretize_disorder(spec, n_bins)
    ham = pb.build_effective_hamiltonian(spec, bins, n_vib)
    tol = 1e-9

    fock = binned_fock(spec, bins, n_vib)
    scale = np.abs(fock.matrix.data).max()
    assert hermiticity_defect(fock) <= 1e-12 * scale

    # completeness and the norm decay law on a fine recording grid
    psi0 = pb.make_initial_state(
        ("photonic", "bright", "upper_polariton", "lower_polariton")[
            rng.integers(4)
        ],
        ham.layout, bins,
    )
    traj = pb.propagate(ham, psi0, 0.25, 25.0, tol)
    record = populations(traj)
    assert record.completeness_defect() < 1e-8
    dndt = np.gradient(traj.norms2, traj.times)
    law = -spec.kappa * traj.photon
    assert np.abs(dndt - law)[1:-1].max() < 1e-6

    # linearity
    dim = ham.layout.dimension
    psi1 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi2 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi1 /= np.linalg.norm(psi1)
    psi2 /= np.linalg.norm(psi2)
    alpha, beta = math.cos(0.7), math.sin(0.7)
    combo = pb.propagate(ham, alpha * psi1 + beta * psi2, 1.0, 20.0, tol)
    parts = [pb.propagate(ham, p, 1.0, 20.0, tol) for p in (psi1, psi2)]
    drift = np.linalg.norm(
        combo.final_state
        - alpha * parts[0].final_state - beta * parts[1].final_state
    )
    assert drift < 10 * tol

    # reversibility without loss
    lossless = pb.build_effective_hamiltonian(
        replace(spec, kappa=0.0), bins, n_vib
    )
    forward = pb.propagate(lossless, psi0, 1.0, 100.0, tol)
    backward = pb.propagate(negated(lossless), forward.final_state, 1.0, 100.0, tol)
    assert np.linalg.norm(backward.final_state - psi0) < 100 * tol


CSV_CASE_CONFIG = """
[model]
omega0 = {omega0!r}
omega_c = {omega_c!r}
omega_nu = {omega_nu!r}
kappa = {kappa!r}
v12 = {v12!r}
s1 = {s1!r}
s2 = {s2!r}
coupling = {coupling!r}
sigma = {sigma!r}

[run]
t_final = 25 au
dt_record = 0.5
n_vib = 5
n_bins = {n_bins}
"""


def _case_csv_determinism(rng, tmp_path, case):
    spec = random_small_spec(rng)
    n_bins = int(rng.integers(2, 5)) if spec.sigma > 0 else 1
    text = CSV_CASE_CONFIG.format(
        omega0=spec.omega0, omega_c=spec.omega_c, omega_nu=spec.omega_nu,
        kappa=spec.kappa, v12=spec.v12, s1=spec.s1, s2=spec.s2,
        coupling=spec.coupling, sigma=spec.sigma, n_bins=n_bins,
    )
    cfg = load_config(text)
    out_a = tmp_path / f"case{case}_a"
    out_b = tmp_path / f"case{case}_b"
    run_dynamics(cfg, str(out_a))
    run_dynamics(cfg, str(out_b))
    body_a = (out_a / "populations.csv").read_bytes()
    body_b = (out_b / "populations.csv").read_bytes()
    assert body_a == body_b and len(body_a) > 0


def test_criterion_11_invariant_suite(tmp_path):
    start = time.time()
    rng = np.random.default_rng(2024)
    n_cases = 200
    for _ in range(n_cases):
        _case_invariants(rng)
    for case in range(10):
        _case_csv_determinism(rng, tmp_path, case)
    elapsed = time.time() - start
    report(11, f"invariant suite over {n_cases} randomized models",
           elapsed < 120.0, f"{elapsed:.1f}s")
