"""Experiment drivers: build, propagate, and persist results as CSV.

Every command writes a manifest.cfg holding the resolved configuration;
re-running from the manifest reproduces the run byte for byte. CSV bodies
carry a single header row and 17-significant-digit scientific notation,
and contain nothing run-dependent besides the numbers, so identical
configurations give identical files.

Every point steps the arrowhead that :func:`~polarbin.hamiltonian.deflate`
keeps: the eigenvectors of the vibronic block that the photon reaches.
`spectrum` writes functions of the photon amplitude only, so each of its
points steps the :class:`~polarbin.hamiltonian.PhotonChain` of
:func:`~polarbin.hamiltonian.photon_chain` built on it, whose length its
bound sets, and the arrowhead only where that chain would not be shorter.
The other commands need the whole state and step the arrowhead.
`spectrum` and `dynamics` resolve every grid point before they write
anything, as `converge` does its ladder; `sweep` records a refused point
in its row.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .config import RunConfig, SWEEP_KEYS
from .errors import ConfigError, PolarbinError, ZeroPopulationError
from .hamiltonian import build_effective_hamiltonian, deflate, photon_chain
from .model import bin_count_rule, discretize_disorder
from .observables import (
    absorption,
    default_omega_grid,
    populations,
    state_populations,
    vibrational_energy,
)
from .oracle import DeviationReport, compare_to_cute
from .propagator import make_initial_state, propagate


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def write_csv(path, columns: dict) -> None:
    """The column names as header row, then one row per index, '\\n' line endings.

    columns maps each name, in order, to an array, list or tuple; all have
    the same length. Floats are written by _fmt, every other value by str.
    Cells holding a comma, quote or line break (a sweep row's error
    message) are quoted; numeric cells never are. A table of floats only
    is formatted a row at a time by one '%' operation, as _fmt would.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    rows = zip(*columns.values(), strict=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        # one row formatted at a time: a long column costs no list of strings
        if all(map(_all_floats, columns.values())):
            row_format = ",".join(["%.16e"] * len(columns)) + "\n"
            handle.writelines(row_format % row for row in rows)
        else:
            writer.writerows([_fmt(v) if isinstance(v, float) else str(v) for v in row]
                             for row in rows)


def _all_floats(column) -> bool:
    if isinstance(column, np.ndarray):
        return column.dtype == float
    return all(isinstance(v, float) for v in column)


def write_manifest(cfg: RunConfig, out_dir) -> str:
    # formatting resolves the configuration: a refused one leaves no directory
    text = cfg.manifest_text(__version__)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.cfg")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return path


def _propagate_point(point: RunConfig, state_times=(), chain: bool = False):
    """(bins, the engine stepped, trajectory) of a resolved point: its
    deflated arrowhead, or with chain, a photonic point's photon chain
    where that is shorter."""
    bins = discretize_disorder(point.spec, point.n_bins)
    ham = deflate(build_effective_hamiltonian(point.spec, bins, point.n_vib), point.spec,
                  point.t_final, point.tolerance)
    if chain:
        ham = photon_chain(ham, point.t_final, point.tolerance) or ham
    psi0 = make_initial_state(point.initial_state, ham.layout, bins)
    traj = propagate(ham, psi0, point.dt_record, point.t_final, point.tolerance,
                     state_times=state_times)
    return bins, ham, traj


def _write_points(cfg: RunConfig, out_dir):
    """(resolved point, directory) pairs, after manifest.cfg and, for a
    sweep, index.csv are written; sweeps get indexed subdirectories.
    Every point is refused or resolved before anything is written."""
    points = cfg.sweep_points()
    resolved = [cfg.resolve_point(point) for point in points]
    write_manifest(cfg, out_dir)
    if len(points) == 1:
        return [(resolved[0], out_dir)]
    dirs = [f"point_{i:03d}" for i in range(len(points))]
    write_csv(os.path.join(out_dir, "index.csv"),
              {**_sweep_columns(cfg, points), "directory": dirs})
    return [(point, os.path.join(out_dir, d)) for point, d in zip(resolved, dirs)]


def _sweep_columns(cfg: RunConfig, points: list[dict]) -> dict:
    """Each grid point's swept values, unswept keys at their configured value."""
    return {k: [float(point.get(k, getattr(cfg.spec, k))) for point in points]
            for k in SWEEP_KEYS}


def run_spectrum(cfg: RunConfig, out_dir, threads: int = 1) -> list[str]:
    """Absorption spectrum (plus autocorrelation and norm) per grid point,
    each from its photon chain, or its arrowhead where the chain is no shorter."""
    if cfg.initial_state != "photonic":
        raise ConfigError("spectrum runs require initial_state = photonic")
    return _parallel_map(_spectrum_point, _write_points(cfg, out_dir), threads)


def _spectrum_point(pair) -> str:
    resolved, directory = pair
    grid = default_omega_grid(resolved.spec)
    _, _, traj = _propagate_point(resolved, chain=True)
    spectrum = absorption(traj, resolved.spec.kappa, grid)
    write_csv(os.path.join(directory, "spectrum.csv"),
              {"omega_au": spectrum.omega, "absorption": spectrum.values})
    write_csv(os.path.join(directory, "autocorr.csv"),
              {"t_au": traj.times, "re_c": traj.autocorr.real, "im_c": traj.autocorr.imag})
    write_csv(os.path.join(directory, "norms.csv"), {"t_au": traj.times, "norm2": traj.norms2})
    return directory


def run_dynamics(cfg: RunConfig, out_dir, threads: int = 1) -> list[str]:
    """Population dynamics per grid point, plus optional vibrational energies."""
    return _parallel_map(_dynamics_point, _write_points(cfg, out_dir), threads)


def _dynamics_point(pair) -> str:
    resolved, directory = pair
    # the one command that writes vibrational energies keeps their states
    bins, ham, traj = _propagate_point(resolved, resolved.vib_energy_times)
    record = populations(traj)
    nb = bins.n_bins
    write_csv(os.path.join(directory, "populations.csv"), {
        "t_au": record.times,
        "photon": record.photon,
        "norm2": record.norms2,
        "gamma": record.gamma,
        "p_e1_total": record.p_e1_total,
        "p_e2_total": record.p_e2_total,
        "p_e1_total_normalized": record.normalized(record.p_e1_total),
        "p_e2_total_normalized": record.normalized(record.p_e2_total),
        **{f"p_e1_bin{i:02d}": record.p_e1[:, i] for i in range(nb)},
        **{f"p_e2_bin{i:02d}": record.p_e2[:, i] for i in range(nb)},
    })
    if resolved.vib_energy_times:
        _write_vib_energy(resolved, bins, ham, traj, directory)
    return directory


def _write_vib_energy(resolved, bins, ham, traj, directory) -> None:
    """Per-bin populations and energies of every kept state, one row per bin;
    a bin too empty to condition an energy has an empty cell, status no_population."""
    n_states, n_bins = len(traj.states), bins.n_bins
    energies = np.concatenate(
        [vibrational_energy(psi, ham.layout, resolved.spec) for psi in traj.states])
    write_csv(os.path.join(directory, "vib_energy.csv"), {
        "t_au": np.repeat(traj.state_times, n_bins),
        "bin": list(range(n_bins)) * n_states,
        "omega0_bin": np.tile(bins.centers, n_states),
        "p_e1_bin": np.concatenate(
            [state_populations(psi, ham.layout)[0] for psi in traj.states]),
        "e_vib_au": ["" if np.isnan(energy) else energy for energy in energies],
        "status": np.where(np.isnan(energies), "no_population", "ok"),
    })


SWEEP_RESULTS = ("n_bins", "p_e2_final", "p_e2_final_normalized", "gamma_final", "status")


def _sweep_worker(cfg: RunConfig, point: dict) -> dict:
    """One sweep row; failures are captured and reported, not raised."""
    try:
        resolved = cfg.resolve_point(point)
        _, _, traj = _propagate_point(resolved)
        record = populations(traj)
        return {"n_bins": resolved.n_bins, "p_e2_final": float(record.p_e2[-1].sum()),
                "p_e2_final_normalized": float(record.normalized(record.p_e2_total)[-1]),
                "gamma_final": float(record.gamma[-1]), "status": "ok"}
    except PolarbinError as exc:  # recorded per row; the sweep continues
        return {**dict.fromkeys(SWEEP_RESULTS, ""),
                "status": f"error: {type(exc).__name__}: {exc}"}


def _parallel_map(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    # the pool starts all its workers at once: never more than there is work for
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def run_sweep(cfg: RunConfig, out_dir, threads: int = 1) -> str:
    """Final-time yields over the sweep grid, one CSV row per point."""
    write_manifest(cfg, out_dir)
    points = cfg.sweep_points()
    rows = _parallel_map(partial(_sweep_worker, cfg), points, threads)
    path = os.path.join(out_dir, "sweep.csv")
    write_csv(path, {**_sweep_columns(cfg, points),
                     **{key: [row[key] for row in rows] for key in SWEEP_RESULTS}})
    return path


@dataclass(frozen=True)
class ConvergenceStep:
    """Deviation between one bin-count refinement and the next."""

    n_bins_coarse: int
    n_bins_fine: int
    spectrum_dev: float
    leakage_dev: float
    ratio_dev: float


def _converge_worker(point: RunConfig):
    _, _, traj = _propagate_point(point)
    spectrum = absorption(traj, point.spec.kappa, default_omega_grid(point.spec))
    record = populations(traj)
    return {
        "n_bins": point.n_bins,
        "spectrum": spectrum.values,
        "gamma": record.gamma,
        "p_e1_final": float(record.p_e1_total[-1]),
        "p_e2_final": float(record.p_e2_total[-1]),
    }


def converge_bin_counts(sigma: float, t_final: float) -> list[int]:
    """Refinement ladder around the bin-count rule: rule/4 ... 2*rule."""
    rule = bin_count_rule(sigma, t_final)
    return sorted({max(1, round(rule / 4)), max(1, round(rule / 2)), rule, 2 * rule})


def run_converge(cfg: RunConfig, out_dir, threads: int = 1) -> list[ConvergenceStep]:
    """Refine the bin count and report deviations between refinements."""
    if cfg.spec.sigma <= 0:
        raise ConfigError("convergence study needs sigma > 0")
    if cfg.sweep:
        raise ConfigError("convergence study takes a single-point config")
    if cfg.initial_state != "photonic":
        raise ConfigError("convergence studies require initial_state = photonic")
    counts = converge_bin_counts(cfg.spec.sigma, cfg.t_final)
    # every rung is refused or resolved before anything is written
    points = [replace(cfg, n_bins=n).resolve_point() for n in counts]
    write_manifest(cfg, out_dir)
    results = _parallel_map(_converge_worker, points, threads)
    if any(r["p_e1_final"] == 0.0 for r in results):
        raise ZeroPopulationError(
            "no reactant population at t_final; the product/reactant ratio is undefined"
        )
    ratios = [r["p_e2_final"] / r["p_e1_final"] for r in results]
    write_csv(os.path.join(out_dir, "converge_runs.csv"), {
        "n_bins": counts,
        "p_e1_final": [r["p_e1_final"] for r in results],
        "p_e2_final": [r["p_e2_final"] for r in results],
        "ratio": ratios,
        "gamma_final": [r["gamma"][-1] for r in results],
    })
    steps = [
        ConvergenceStep(
            n_bins_coarse=coarse["n_bins"],
            n_bins_fine=fine["n_bins"],
            spectrum_dev=float(np.abs(coarse["spectrum"] - fine["spectrum"]).max()),
            leakage_dev=float(np.abs(coarse["gamma"] - fine["gamma"]).max()),
            ratio_dev=abs(ratio_c - ratio_f),
        )
        for coarse, fine, ratio_c, ratio_f
        in zip(results[:-1], results[1:], ratios[:-1], ratios[1:])
    ]
    write_csv(os.path.join(out_dir, "convergence.csv"),
              {f.name: [getattr(s, f.name) for s in steps] for f in fields(ConvergenceStep)})
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
    reports = [
        compare_to_cute(
            resolved.spec, bins, resolved.n_vib, n,
            resolved.dt_record, resolved.t_final, resolved.tolerance,
        )
        for n in ORACLE_ENSEMBLE_SIZES
    ]
    path = os.path.join(out_dir, "oracle.csv")
    write_csv(path, {"n_molecules": ORACLE_ENSEMBLE_SIZES,
                     **{f.name: [getattr(r, f.name) for r in reports]
                        for f in fields(DeviationReport)}})
    return path
