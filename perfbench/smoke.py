"""Smoke test of the benchmark harness on shrunk configurations.

    python3 perfbench/smoke.py

Run from the root of a checkout; takes about a minute. It checks that
BENCHMARK.json lists exactly the metrics and workloads the harness
produces, runs every workload shrunk to a fraction of a second through the
traced path (and one through the end-to-end path), and checks that a
wrong reference value, a span that never fires and a directory without
the program each make the benchmark fail.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import GATED, WORKLOADS

ROOT = os.getcwd()
SHRUNK = {
    "dynamics-fig6": {"run": {"t_final": "1 fs", "n_bins": "3", "n_vib": "6",
                              "vib_energy_times": "0.5 fs"}},
    "spectrum-fig3a": {"run": {"t_final": "2 fs", "n_vib": "6", "dt_record": "4"},
                       "sweep": {"sigma": "0, 0.03"}},
    "sweep-fig3c": {"run": {"t_final": "1 fs", "n_vib": "6"},
                    "sweep": {"coupling": "0.03", "sigma": "0, 0.02, 0.04"}},
    "oracle-n4": {"model": {"coupling": "0.01", "sigma": "0.02"},
                  "run": {"t_final": "4 fs", "n_bins": "2", "n_vib": "3",
                          "dt_record": "10"},
                  "sweep": None},
}


def shrunk(name: str):
    return dataclasses.replace(WORKLOADS[name], changes=SHRUNK[name])


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: WORKLOADS[name].why for name in GATED}


def check_runs() -> None:
    run.SETUP_REPEATS = 1
    for name in WORKLOADS:
        result = run.run_benchmark(ROOT, shrunk(name), 1, 0.1, 1, None)
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert set(result["metrics"]) == {m[0] for m in run.PER_LAYER}, name
        assert result["metrics"]["propagator.matvecs"]["value"] > 0, name
    result = run.run_benchmark(ROOT, shrunk("dynamics-fig6"), 2, 0.1, 0, None)
    assert result["correct"], result
    assert set(result["metrics"]) == {m[0] for m in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values()), result


def check_failures() -> None:
    wrong = [{"p_e2_final": 1.0}]
    result = run.run_benchmark(ROOT, shrunk("dynamics-fig6"), 0, 0.1, 0, wrong)
    assert not result["correct"] and result["failed"] == result["attempted"]

    saved = run.COMMAND_SPANS["dynamics"]
    run.COMMAND_SPANS["dynamics"] = saved + ("observables.renamed",)
    try:
        run.run_benchmark(ROOT, shrunk("dynamics-fig6"), 1, 0.1, 1, None)
    except run.BenchmarkError as exc:
        assert "observables.renamed" in str(exc)
    else:
        raise AssertionError("a span that never fired went unnoticed")
    finally:
        run.COMMAND_SPANS["dynamics"] = saved

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "oracle-n4",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare)


def main() -> None:
    check_benchmark_json()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        check_runs()
        check_failures()
    print("perfbench smoke: ok")


if __name__ == "__main__":
    main()
