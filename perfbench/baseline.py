"""Repeat the benchmark over seeds and summarize, or regenerate the reference.

    python3 perfbench/baseline.py [--seeds 10] [--seconds 30] [--workload NAME ...]
        Run perfbench/run.py once per workload and seed (seeds 1..N, trace
        0; by default the workloads of BENCHMARK.json), print every end-to-end metric by name and unit for each
        workload, and wall time, with the median, quartiles and spread
        (IQR / median) of the per-run values, and write them to
        perfbench/baseline.json.
    python3 perfbench/baseline.py --reference
        Run each workload once at seed 0 and write the summary values that
        check.py compares against to perfbench/reference.json. Only for the
        commit that defines the reference.

Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import check
import run
from workloads import GATED, WORKLOADS, config_sections, config_text

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def reference() -> None:
    root = os.getcwd()
    result = {}
    for name, workload in WORKLOADS.items():
        sections = config_sections(root, workload, 0)
        with tempfile.TemporaryDirectory(dir=root) as work:
            cfg = os.path.join(work, "bench.cfg")
            with open(cfg, "w", encoding="utf-8") as handle:
                handle.write(config_text(sections))
            out = os.path.join(work, "out")
            env = run.child_env(root)
            subprocess.run([sys.executable, "-m", "polarbin.cli", workload.command,
                            "--config", cfg, "--out", out], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            results = check.summarize(workload, out, sections)
        for summary, problems in results:
            if problems:
                raise SystemExit(f"{name}: invariant check failed: {problems}")
        result[name] = [summary for summary, _ in results]
        print(name, json.dumps(result[name]))
    with open(check.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")


def baseline(names, seeds, seconds) -> None:
    path = os.path.join(HERE, "baseline.json")
    saved = {"workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            saved = json.load(handle)
    table = {}
    for name in names:
        per_metric = {}
        for seed in range(1, seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                raise SystemExit(f"{name} seed {seed} failed:\n{proc.stderr}")
            detail = json.loads(next(line for line in proc.stdout.splitlines()
                                     if line.startswith('{"workload"')))
            saved["machine"] = detail["machine"]
            for metric, entry in detail["samples"].items():
                per_metric.setdefault(metric, []).append(entry["median"])
            print(name, seed, {k: round(v["median"], 4)
                               for k, v in detail["samples"].items()}, flush=True)
        workload = WORKLOADS[name]
        table[name] = {
            "command": f"polarbin {workload.command} --config bench.cfg "
                       f"--threads {2 if workload.pool else 1}",
            "config_seed0": config_text(config_sections(os.getcwd(), workload, 0)),
            "metrics": {},
        }
        for metric, unit, _ in run.WALL_TIMES[:1] + run.END_TO_END:
            values = per_metric[metric]
            q1, median, q3 = statistics.quantiles(values, n=4)
            table[name]["metrics"][metric] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "n": len(values), "spread": spread(values)}
    for name, entry in table.items():
        for metric, s in entry["metrics"].items():
            print(f"{name:16s} {metric:12s} {s['median']:10.4f} {s['unit']:3s} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} n={s['n']} "
                  f"spread {s['spread']:.3f}")
    saved.update(seconds=seconds, seeds=seeds)
    saved["workloads"].update(table)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(saved, handle, indent=1)
        handle.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    if args.reference:
        reference()
    else:
        baseline(args.workload or list(GATED), args.seeds, args.seconds)


if __name__ == "__main__":
    main()
