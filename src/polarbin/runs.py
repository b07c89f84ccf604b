"""Experiment drivers: build, propagate, and persist results as CSV.

Every command writes a manifest.cfg holding the resolved configuration;
re-running from the manifest reproduces the run byte for byte. CSV bodies
carry a single header row and 17-significant-digit scientific notation,
and contain nothing run-dependent besides the numbers, so identical
configurations give identical files.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .config import RunConfig, ResolvedPoint, SWEEP_KEYS
from .errors import ConfigError, PolarbinError, ZeroPopulationError
from .hamiltonian import build_effective_hamiltonian
from .model import bin_count_rule, discretize_disorder
from .observables import (
    absorption,
    default_omega_grid,
    populations,
    state_populations,
    vibrational_energy,
)
from .oracle import compare_to_cute
from .propagator import make_initial_state, propagate


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def write_csv(path, header, rows) -> None:
    """One header row, '\\n' line endings, pre-formatted cells.

    Cells holding a comma, quote or line break (a sweep row's error
    message) are quoted; numeric cells never are.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_manifest(cfg: RunConfig, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.cfg")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(cfg.manifest_text(__version__))
    return path


def _propagate_point(point: ResolvedPoint):
    bins = discretize_disorder(point.spec, point.n_bins)
    ham = build_effective_hamiltonian(point.spec, bins, point.n_vib)
    psi0 = make_initial_state(point.initial_state, ham.layout, bins)
    traj = propagate(
        ham, psi0, point.dt_record, point.t_final, point.tolerance,
        state_times=point.vib_energy_times, initial_state_label=point.initial_state,
    )
    return bins, ham, traj


def _point_dirs(cfg: RunConfig, out_dir):
    """(point, directory) pairs; sweeps get indexed subdirectories."""
    points = cfg.sweep_points()
    if len(points) == 1:
        return [(points[0], out_dir)]
    pairs = [
        (point, os.path.join(out_dir, f"point_{i:03d}"))
        for i, point in enumerate(points)
    ]
    rows = []
    for point, directory in pairs:
        cells = [_fmt(point.get(k, getattr(cfg.spec, k))) for k in SWEEP_KEYS]
        rows.append(cells + [os.path.basename(directory)])
    write_csv(
        os.path.join(out_dir, "index.csv"),
        list(SWEEP_KEYS) + ["directory"],
        rows,
    )
    return pairs


def run_spectrum(cfg: RunConfig, out_dir) -> list[str]:
    """Absorption spectrum (plus autocorrelation and norm) per grid point."""
    if cfg.initial_state != "photonic":
        raise ConfigError("spectrum runs require initial_state = photonic")
    write_manifest(cfg, out_dir)
    written = []
    for point, directory in _point_dirs(cfg, out_dir):
        resolved = cfg.resolve_point(point)
        grid = default_omega_grid(resolved.spec)
        _, _, traj = _propagate_point(resolved)
        spectrum = absorption(traj, resolved.spec.kappa, grid)
        write_csv(
            os.path.join(directory, "spectrum.csv"),
            ["omega_au", "absorption"],
            ([_fmt(w), _fmt(a)] for w, a in zip(spectrum.omega, spectrum.values)),
        )
        write_csv(
            os.path.join(directory, "autocorr.csv"),
            ["t_au", "re_c", "im_c"],
            (
                [_fmt(t), _fmt(c.real), _fmt(c.imag)]
                for t, c in zip(traj.times, traj.autocorr)
            ),
        )
        write_csv(
            os.path.join(directory, "norms.csv"),
            ["t_au", "norm2"],
            ([_fmt(t), _fmt(n)] for t, n in zip(traj.times, traj.norms2)),
        )
        written.append(directory)
    return written


def run_dynamics(cfg: RunConfig, out_dir) -> list[str]:
    """Population dynamics per grid point, plus optional vibrational energies."""
    write_manifest(cfg, out_dir)
    written = []
    for point, directory in _point_dirs(cfg, out_dir):
        resolved = cfg.resolve_point(point)
        bins, ham, traj = _propagate_point(resolved)
        record = populations(traj)
        nb = bins.n_bins
        header = (
            ["t_au", "photon", "norm2", "gamma", "p_e1_total", "p_e2_total",
             "p_e1_total_normalized", "p_e2_total_normalized"]
            + [f"p_e1_bin{i:02d}" for i in range(nb)]
            + [f"p_e2_bin{i:02d}" for i in range(nb)]
        )
        rows = []
        e1_tot, e2_tot = record.p_e1_total, record.p_e2_total
        for k, t in enumerate(record.times):
            row = [
                _fmt(t), _fmt(record.photon[k]), _fmt(record.norms2[k]),
                _fmt(record.gamma[k]), _fmt(e1_tot[k]), _fmt(e2_tot[k]),
                _fmt(e1_tot[k] / record.norms2[k]),
                _fmt(e2_tot[k] / record.norms2[k]),
            ]
            row += [_fmt(v) for v in record.p_e1[k]]
            row += [_fmt(v) for v in record.p_e2[k]]
            rows.append(row)
        write_csv(os.path.join(directory, "populations.csv"), header, rows)
        if resolved.vib_energy_times:
            _write_vib_energy(resolved, bins, ham, traj, directory)
        written.append(directory)
    return written


def _write_vib_energy(resolved, bins, ham, traj, directory) -> None:
    rows = []
    for t_have, psi in zip(traj.state_times, traj.states):
        for i in range(bins.n_bins):
            p_e1_i = float(
                np.linalg.norm(psi[ham.layout.e1_slice(i)]) ** 2
            )
            try:
                energy = vibrational_energy(psi, ham.layout, resolved.spec, i)
                rows.append(
                    [_fmt(t_have), str(i), _fmt(bins.centers[i]),
                     _fmt(p_e1_i), _fmt(energy), "ok"]
                )
            except ZeroPopulationError:
                rows.append(
                    [_fmt(t_have), str(i), _fmt(bins.centers[i]),
                     _fmt(p_e1_i), "", "no_population"]
                )
    write_csv(
        os.path.join(directory, "vib_energy.csv"),
        ["t_au", "bin", "omega0_bin", "p_e1_bin", "e_vib_au", "status"],
        rows,
    )


def _sweep_worker(cfg: RunConfig, point: dict):
    """One sweep row; failures are captured and reported, not raised."""
    try:
        resolved = cfg.resolve_point(point)
        _, ham, traj = _propagate_point(resolved)
        _, p_e2, _ = state_populations(traj.final_state, ham.layout)
        norm2 = float(np.vdot(traj.final_state, traj.final_state).real)
        if norm2 == 0.0:
            raise ZeroPopulationError("the state leaked completely; no yield to normalize")
        total = float(p_e2.sum())
        return {
            "n_bins": resolved.n_bins,
            "p_e2_final": total,
            "p_e2_final_normalized": total / norm2,
            "gamma_final": 1.0 - norm2,
            "status": "ok",
        }
    except PolarbinError as exc:  # recorded per row; the sweep continues
        return {"status": f"error: {type(exc).__name__}: {exc}"}


def _parallel_map(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # the pool starts all its workers at once: never more than there is work for
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def run_sweep(cfg: RunConfig, out_dir, threads: int = 1) -> str:
    """Final-time yields over the sweep grid, one CSV row per point."""
    write_manifest(cfg, out_dir)
    points = cfg.sweep_points()
    results = _parallel_map(partial(_sweep_worker, cfg), points, threads)
    rows = []
    for point, result in zip(points, results):
        cells = [_fmt(point.get(k, getattr(cfg.spec, k))) for k in SWEEP_KEYS]
        if result["status"] == "ok":
            cells += [
                str(result["n_bins"]),
                _fmt(result["p_e2_final"]),
                _fmt(result["p_e2_final_normalized"]),
                _fmt(result["gamma_final"]),
                "ok",
            ]
        else:
            cells += ["", "", "", "", result["status"]]
        rows.append(cells)
    path = os.path.join(out_dir, "sweep.csv")
    write_csv(
        path,
        list(SWEEP_KEYS)
        + ["n_bins", "p_e2_final", "p_e2_final_normalized", "gamma_final",
           "status"],
        rows,
    )
    return path


@dataclass(frozen=True)
class ConvergenceStep:
    """Deviation between one bin-count refinement and the next."""

    n_bins_coarse: int
    n_bins_fine: int
    spectrum_dev: float
    leakage_dev: float
    ratio_dev: float


def _converge_worker(cfg: RunConfig, n_bins: int):
    point = replace(cfg.resolve_point(), n_bins=n_bins, initial_state="photonic",
                    vib_energy_times=())
    _, ham, traj = _propagate_point(point)
    spectrum = absorption(traj, point.spec.kappa, default_omega_grid(point.spec))
    p_e1, p_e2, _ = state_populations(traj.final_state, ham.layout)
    return {
        "n_bins": n_bins,
        "spectrum": spectrum.values,
        "gamma": 1.0 - traj.norms2,
        "p_e1_final": float(p_e1.sum()),
        "p_e2_final": float(p_e2.sum()),
    }


def converge_bin_counts(sigma: float, t_final: float) -> list[int]:
    """Refinement ladder around the bin-count rule: rule/4 ... 2*rule."""
    rule = bin_count_rule(sigma, t_final)
    counts = sorted({max(1, round(rule / 4)), max(1, round(rule / 2)),
                     rule, 2 * rule})
    return counts


def run_converge(cfg: RunConfig, out_dir, threads: int = 1) -> list[ConvergenceStep]:
    """Refine the bin count and report deviations between refinements."""
    if cfg.spec.sigma <= 0:
        raise ConfigError("convergence study needs sigma > 0")
    if cfg.sweep:
        raise ConfigError("convergence study takes a single-point config")
    write_manifest(cfg, out_dir)
    counts = converge_bin_counts(cfg.spec.sigma, cfg.t_final)
    results = _parallel_map(partial(_converge_worker, cfg), counts, threads)
    if any(r["p_e1_final"] == 0.0 for r in results):
        raise ZeroPopulationError(
            "no reactant population at t_final; the product/reactant ratio is undefined"
        )

    write_csv(
        os.path.join(out_dir, "converge_runs.csv"),
        ["n_bins", "p_e1_final", "p_e2_final", "ratio", "gamma_final"],
        (
            [
                str(r["n_bins"]), _fmt(r["p_e1_final"]), _fmt(r["p_e2_final"]),
                _fmt(r["p_e2_final"] / r["p_e1_final"]), _fmt(r["gamma"][-1]),
            ]
            for r in results
        ),
    )
    steps = []
    for coarse, fine in zip(results[:-1], results[1:]):
        ratio_c = coarse["p_e2_final"] / coarse["p_e1_final"]
        ratio_f = fine["p_e2_final"] / fine["p_e1_final"]
        steps.append(
            ConvergenceStep(
                n_bins_coarse=coarse["n_bins"],
                n_bins_fine=fine["n_bins"],
                spectrum_dev=float(
                    np.abs(coarse["spectrum"] - fine["spectrum"]).max()
                ),
                leakage_dev=float(np.abs(coarse["gamma"] - fine["gamma"]).max()),
                ratio_dev=abs(ratio_c - ratio_f),
            )
        )
    write_csv(
        os.path.join(out_dir, "convergence.csv"),
        ["n_bins_coarse", "n_bins_fine", "spectrum_dev", "leakage_dev",
         "ratio_dev"],
        (
            [
                str(s.n_bins_coarse), str(s.n_bins_fine), _fmt(s.spectrum_dev),
                _fmt(s.leakage_dev), _fmt(s.ratio_dev),
            ]
            for s in steps
        ),
    )
    return steps


ORACLE_ENSEMBLE_SIZES = (1, 2, 4)


def run_oracle(cfg: RunConfig, out_dir) -> str:
    """Deviation table of the explicit finite ensemble against the binned model."""
    if cfg.sweep:
        raise ConfigError("oracle run takes a single-point config")
    if cfg.initial_state != "photonic":
        raise ConfigError("oracle runs require initial_state = photonic")
    resolved = cfg.resolve_point()
    bins = discretize_disorder(resolved.spec, resolved.n_bins)
    write_manifest(cfg, out_dir)
    rows = []
    for n in ORACLE_ENSEMBLE_SIZES:
        report = compare_to_cute(
            resolved.spec, bins, resolved.n_vib, n,
            resolved.dt_record, resolved.t_final, resolved.tolerance,
        )
        rows.append(
            [
                str(n),
                _fmt(report.photon_max), _fmt(report.photon_final),
                _fmt(report.p_e1_max), _fmt(report.p_e1_final),
                _fmt(report.p_e2_max), _fmt(report.p_e2_final),
                _fmt(report.p_e1_total_max),
                _fmt(report.autocorr_max), _fmt(report.autocorr_final),
            ]
        )
    path = os.path.join(out_dir, "oracle.csv")
    write_csv(
        path,
        ["n_molecules", "photon_max", "photon_final", "p_e1_max", "p_e1_final",
         "p_e2_max", "p_e2_final", "p_e1_total_max", "autocorr_max",
         "autocorr_final"],
        rows,
    )
    return path
