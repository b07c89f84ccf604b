"""Benchmark workloads and the seeded run configurations they feed the CLI.

Each workload starts from a shipped preset and shrinks it to fit one
benchmark run while keeping the property it was chosen for (see `why`).
Seed 0 runs the shrunk preset as is; any other seed multiplies the
continuous model parameters by a few percent, which leaves the bin count,
the Hilbert-space dimension and the step count unchanged, so timings stay
comparable across seeds.
"""

from __future__ import annotations

import configparser
import os
import random
from dataclasses import dataclass

JITTER_KEYS = ("coupling", "kappa", "v12", "omega_c")
JITTER_SPREAD = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # polarbin subcommand
    preset: str             # preset the configuration starts from
    changes: dict           # section -> {key: value}; a None section is dropped
    why: str
    operations: int         # grid points, or ensemble sizes for oracle
    pool: bool = False      # run with as many workers as cores, at most 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dynamics-fig6",
            command="dynamics",
            preset="fig6",
            changes={"run": {"t_final": "6 fs", "n_bins": "24",
                             "vib_energy_times": "2 fs, 5 fs"}},
            why="one point, 24 bins, D=2881, a snapshot every step: per-step "
                "propagator cost, snapshot memory, population reduction and "
                "CSV writing",
            operations=1,
        ),
        Workload(
            name="spectrum-fig3a",
            command="spectrum",
            preset="fig3a",
            changes={"run": {"dt_record": "8"}, "sweep": {"sigma": "0, 0.03"}},
            why="D=121 and D=4321, no snapshots: Python step overhead against "
                "mat-vec and BLAS cost, and the absorption transform; memory "
                "changes should not show",
            operations=2,
        ),
        Workload(
            name="sweep-fig3c",
            command="sweep",
            preset="fig3c",
            changes={"run": {"t_final": "3 fs"},
                     "sweep": {"coupling": "0.03", "sigma": "0, 0.02, 0.04"}},
            why="the only process-pool run: unequal points over 2 workers, "
                "each with default BLAS threads, oversubscribe the cores",
            operations=3,
            pool=True,
        ),
        Workload(
            name="oracle-n4",
            command="oracle",
            preset="fig3a",
            changes={
                "model": {"coupling": "0.01", "sigma": "0.02"},
                "run": {"t_final": "4 fs", "n_bins": "2", "n_vib": "6",
                        "dt_record": "10"},
                "sweep": None,
            },
            why="the only explicit-ensemble run: Kronecker-product assembly "
                "and propagation up to D=11664 for N=1, 2 and 4",
            operations=3,
        ),
    )
}

# Runnable by name but not listed in BENCHMARK.json: with default BLAS threads,
# two pool workers on two cores fall, in about a quarter of invocations, into a
# state where every point runs 5-15x slower (1.3-2 s invocations become 8-9 s).
# Run medians then spread by 0.17 (IQR/median over 10 seeds), too much for a
# regression bound. It is still the workload to study the pool with.
UNGATED = ("sweep-fig3c",)
GATED = tuple(name for name in WORKLOADS if name not in UNGATED)


def _read_preset(root: str, preset: str) -> dict:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), inline_comment_prefixes=("#",)
    )
    path = os.path.join(root, "src", "polarbin", "presets", f"{preset}.cfg")
    with open(path, encoding="utf-8") as handle:
        parser.read_string(handle.read())
    return {section: dict(parser[section]) for section in parser.sections()}


def _scale_list(raw: str, factor: float) -> str:
    return ", ".join(repr(float(tok) * factor) for tok in raw.split(",") if tok.strip())


def config_sections(root: str, workload: Workload, seed: int) -> dict:
    """Configuration sections for one workload and seed."""
    sections = _read_preset(root, workload.preset)
    for section, values in workload.changes.items():
        if values is None:
            sections.pop(section, None)
        else:
            sections.setdefault(section, {}).update(values)
    if seed != 0:
        rng = random.Random(seed)
        model = sections["model"]
        for key in JITTER_KEYS:
            factor = 1.0 + rng.uniform(-JITTER_SPREAD, JITTER_SPREAD)
            model[key] = repr(float(model[key]) * factor)
            if key in sections.get("sweep", {}):
                sections["sweep"][key] = _scale_list(sections["sweep"][key], factor)
    return sections


def config_text(sections: dict) -> str:
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
        lines.append("")
    return "\n".join(lines)
