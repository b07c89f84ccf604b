"""Output checks: summary values against a seed-0 reference, plus invariants.

Every workload's CSV output is reduced to a few summary values per
operation (a grid point, or an ensemble size for oracle). At seed 0 they
must match `reference.json`, which was produced by the same reduction at
the commit that introduced the benchmark. At every seed the physical
invariants must hold. Tolerances follow from the run's 2-norm tolerance:
a state error of at most `tol` moves a population by at most 2*tol.
"""

from __future__ import annotations

import csv
import json
import os

COMPLETENESS_TOL = 1e-8
FS_TO_AU = 41.341373335
OMEGA_GRID_STEP = 1e-4  # grid step of the CLI's default absorption window
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _columns(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if not rows:
        raise ValueError(f"{path} has no rows")
    return {key: [row[key] for row in rows] for key in rows[0]}


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _non_increasing(values, slack: float) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def rabi_splitting(omega, values):
    """Separation of the two largest strict local maxima, or None."""
    peaks = [i for i in range(1, len(values) - 1)
             if values[i - 1] < values[i] > values[i + 1]]
    if len(peaks) < 2:
        return None
    top = sorted(peaks, key=lambda i: -values[i])[:2]
    return abs(omega[top[0]] - omega[top[1]])


def _point_dirs(out_dir: str, n_points: int) -> list[str]:
    if n_points == 1:
        return [out_dir]
    return [os.path.join(out_dir, f"point_{i:03d}") for i in range(n_points)]


def _dynamics(out_dir, sections, tol):
    cols = _columns(os.path.join(out_dir, "populations.csv"))
    photon, norm2, gamma = (_floats(cols[k]) for k in ("photon", "norm2", "gamma"))
    e1, e2 = _floats(cols["p_e1_total"]), _floats(cols["p_e2_total"])
    defect = max(abs(p + a + b + g - 1.0)
                 for p, a, b, g in zip(photon, e1, e2, gamma))
    problems = []
    if defect > COMPLETENESS_TOL:
        problems.append(f"completeness defect {defect:.3g}")
    if not _non_increasing(norm2, 2 * tol):
        problems.append("norm2 increases")
    vib = _columns(os.path.join(out_dir, "vib_energy.csv"))
    if len(set(vib["t_au"])) != len(sections["run"]["vib_energy_times"].split(",")):
        problems.append("vib_energy.csv misses a requested time")
    summary = {"p_e2_final": e2[-1], "gamma_final": gamma[-1],
               "photon_max": max(photon), "p_e1_total_max": max(e1)}
    return [(summary, problems)]


def _spectrum(out_dir, sections, tol, n_points):
    results = []
    for directory in _point_dirs(out_dir, n_points):
        spec = _columns(os.path.join(directory, "spectrum.csv"))
        norm2 = _floats(_columns(os.path.join(directory, "norms.csv"))["norm2"])
        omega, values = _floats(spec["omega_au"]), _floats(spec["absorption"])
        problems = [] if _non_increasing(norm2, 2 * tol) else ["norm2 increases"]
        summary = {"rabi": rabi_splitting(omega, values),
                   "absorption_max": max(values), "norm2_final": norm2[-1]}
        results.append((summary, problems))
    return results


def _sweep(out_dir, sections, tol):
    cols = _columns(os.path.join(out_dir, "sweep.csv"))
    results = []
    for i, status in enumerate(cols["status"]):
        if status != "ok":
            results.append(({}, [f"row {i} status {status!r}"]))
            continue
        summary = {"p_e2_final": float(cols["p_e2_final"][i]),
                   "gamma_final": float(cols["gamma_final"][i])}
        results.append((summary, []))
    return results


ORACLE_KEYS = ("photon_max", "p_e1_max", "p_e2_max", "autocorr_max")


def _oracle(out_dir, sections, tol):
    cols = _columns(os.path.join(out_dir, "oracle.csv"))
    results = []
    for i in range(len(cols["n_molecules"])):
        summary = {key: float(cols[key][i]) for key in ORACLE_KEYS}
        problems = []
        if results:
            previous = results[-1][0]
            problems = [f"{key} does not decrease with N" for key in ORACLE_KEYS
                        if not summary[key] < previous[key]]
        results.append((summary, problems))
    return results


def _time_au(token: str) -> float:
    value, *unit = token.split()
    return float(value) * (FS_TO_AU if unit == ["fs"] else 1.0)


def _abs_tol(key: str, sections: dict, tol: float) -> float:
    if key == "rabi":
        return OMEGA_GRID_STEP
    if key == "absorption_max":
        # |dA| <= kappa*|dC~| and |dC~| <= t_final * tol
        t_final = _time_au(sections["run"]["t_final"])
        return 4.0 * float(sections["model"]["kappa"]) * t_final * tol
    return 10.0 * tol  # populations and their differences: 2*tol per engine


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(workload, out_dir: str, sections: dict) -> list:
    """[(summary dict, [invariant problems]), ...], one per operation."""
    tol = float(sections["run"].get("tolerance", "1e-9"))
    if workload.command == "dynamics":
        return _dynamics(out_dir, sections, tol)
    if workload.command == "spectrum":
        return _spectrum(out_dir, sections, tol, workload.operations)
    if workload.command == "sweep":
        return _sweep(out_dir, sections, tol)
    return _oracle(out_dir, sections, tol)


def check(workload, out_dir: str, sections: dict, reference) -> list[list[str]]:
    """Problems per operation; an empty list means the operation passed.

    `reference` is the list of seed-0 summaries, or None for other seeds.
    """
    try:
        results = summarize(workload, out_dir, sections)
    except (OSError, KeyError, ValueError) as exc:
        return [[f"unreadable output: {exc}"]] * workload.operations
    if len(results) != workload.operations:
        return [[f"{len(results)} results, expected {workload.operations}"]] * workload.operations
    tol = float(sections["run"].get("tolerance", "1e-9"))
    problems = []
    for i, (summary, invariant_problems) in enumerate(results):
        found = list(invariant_problems)
        if reference is not None:
            for key, want in reference[i].items():
                have = summary.get(key)
                if want is None or have is None:
                    if want != have:
                        found.append(f"{key}: {have!r} against reference {want!r}")
                elif abs(have - want) > _abs_tol(key, sections, tol):
                    found.append(f"{key}: {have!r} against reference {want!r}")
        problems.append(found)
    return problems
