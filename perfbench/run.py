"""polarbin benchmark: end-to-end CLI runs and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; polarbin is imported from its `src`.
Every measured program runs in a fresh child process, one at a time, with
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS removed from its
environment, so it gets the BLAS threading a user gets by default.

--trace 0 prints the end-to-end metrics: CPU time and peak memory as the
median over repeated CLI invocations whose wall times add up to S seconds
(at least three), and the median set-up time over set-up-only children run
between them. The median wall time is printed too, outside the result object. --trace 1 prints the per-layer metrics of one
traced invocation, with the untraced wall time measured alongside it, and
propagator.step_ms_1blas from a second traced child limited to one BLAS
thread. A layer that does not run on a workload reports 0 (for example
oracle.* outside oracle-n4); a layer that should run but records no span
fails the run. Outputs are checked after every invocation (see check.py);
the last line of standard output is one JSON object, and the exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import check
from workloads import WORKLOADS, config_sections, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_S = 170.0          # every run ends well inside 180 s
MIN_INVOCATIONS = 3
SETUP_REPEATS = 7         # at least this many set-up samples per run
UNTRACED_SHARE = 0.4      # share of --seconds spent on untraced runs in a traced run

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Printed with the metrics above but not in the result object. Under default
# BLAS threading on a small shared machine, wall time moves with the host's
# load by more than a regression bound can absorb; CPU time moves far less.
WALL_TIMES = (("wall_s", "s", "lower"), ("untraced_wall_s", "s", "lower"))

PER_LAYER = (
    ("config.load_s", "s", "lower"),
    ("model.discretize_s", "s", "lower"),
    ("model.n_bins", "count", "lower"),
    ("hamiltonian.assemble_s", "s", "lower"),
    ("hamiltonian.dim", "count", "lower"),
    ("hamiltonian.nnz", "count", "lower"),
    ("propagator.propagate_s", "s", "lower"),
    ("propagator.step_ms", "ms", "lower"),
    ("propagator.step_ms_1blas", "ms", "lower"),
    ("propagator.steps", "count", "lower"),
    ("propagator.matvecs", "count", "lower"),
    ("propagator.matvecs_per_step", "count", "lower"),
    ("propagator.snapshot_mb", "MB", "lower"),
    ("observables.populations_s", "s", "lower"),
    ("observables.absorption_s", "s", "lower"),
    ("observables.vib_energy_s", "s", "lower"),
    ("runs.write_s", "s", "lower"),
    ("runs.csv_mb", "MB", "lower"),
    ("runs.point_s_max", "s", "lower"),
    ("runs.pool_efficiency", "ratio", "higher"),
    ("oracle.assemble_s", "s", "lower"),
    ("oracle.dim", "count", "lower"),
    ("oracle.nnz", "count", "lower"),
    ("oracle.propagate_s", "s", "lower"),
    ("oracle.compare_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unaccounted_s", "s", "lower"),
)

COMMON_SPANS = ("cli.import", "cli.main", "config.load", "model.discretize",
                "hamiltonian.assemble", "propagator.propagate", "runs.write")
COMMAND_SPANS = {
    "dynamics": ("runs.dynamics", "observables.populations",
                 "observables.vib_energy"),
    "spectrum": ("runs.spectrum", "observables.absorption"),
    "sweep": ("runs.sweep", "observables.populations"),
    "oracle": ("runs.oracle", "oracle.compare", "oracle.assemble",
               "oracle.propagate"),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def child_env(root: str, one_blas: bool = False) -> dict:
    """The caller's environment without BLAS thread settings (or with one
    BLAS thread), importing polarbin from the checkout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(root, "src")
    if one_blas:
        env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


class Runner:
    """Starts children one at a time inside a checkout and measures them."""

    def __init__(self, root: str, work: str, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.removed = sorted(k for k in THREAD_VARS if k in os.environ)

    def run(self, argv: list[str], one_blas: bool = False, log_name="child.log"):
        """(wall s, cpu s of the process tree, peak RSS MB, exit code, log path)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("time budget exhausted")
        log_path = os.path.join(self.work, log_name)
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable] + argv, cwd=self.root,
                env=child_env(self.root, one_blas),
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # pool workers left behind by a crash
        if proc.returncode < 0:
            raise BenchmarkError(f"{argv[:3]} killed by signal {-proc.returncode}")
        cpu = usage.ru_utime + usage.ru_stime
        peak_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB
        return wall, cpu, peak_mb, proc.returncode, log_path

    def child(self, *args, **kwargs):
        return self.run([os.path.join(HERE, "child.py"), *args], **kwargs)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _tail(path: str) -> str:
    with open(path, "rb") as handle:
        return handle.read()[-600:].decode(errors="replace")


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, runner: Runner, workload, seed: int, reference=None):
        self.runner = runner
        self.workload = workload
        self.sections = config_sections(runner.root, workload, seed)
        self.config = os.path.join(runner.work, "bench.cfg")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(config_text(self.sections))
        self.reference = reference
        self.workers = min(2, os.cpu_count() or 1) if workload.pool else 1
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def probe(self) -> dict:
        _, _, _, code, log = self.runner.child("probe", log_name="probe.log")
        if code != 0:
            raise BenchmarkError(f"machine probe failed:\n{_tail(log)}")
        with open(log, encoding="utf-8") as handle:
            machine = json.loads(handle.read().strip().splitlines()[-1])
        machine["removed_thread_vars"] = self.runner.removed
        return machine

    def cli_args(self, out: str, workers: int) -> list[str]:
        return [self.workload.command, "--config", self.config, "--out", out,
                "--threads", str(workers)]

    def _record(self, code: int, out: str, log: str) -> None:
        """Check one invocation's outputs and count its operations."""
        n_ops = self.workload.operations
        if code != 0:
            per_op = [[f"exit code {code}: {_tail(log)}"]] * n_ops
        else:
            per_op = check.check(self.workload, out, self.sections, self.reference)
        self.attempted += n_ops
        for problems in per_op:
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        shutil.rmtree(out, ignore_errors=True)

    def invoke(self) -> tuple[float, float, float]:
        """One untraced CLI run: (wall s, cpu s, peak RSS MB)."""
        out = os.path.join(self.runner.work, "out")
        wall, cpu, peak, code, log = self.runner.run(
            ["-m", "polarbin.cli"] + self.cli_args(out, self.workers)
        )
        self._record(code, out, log)
        return wall, cpu, peak

    def setup_time(self) -> float:
        wall, _, _, code, log = self.runner.child(
            "setup", self.workload.command, self.config)
        if code != 0:
            raise BenchmarkError(f"set-up child failed:\n{_tail(log)}")
        return wall

    def invocations(self, seconds: float, minimum: int, between=None) -> list:
        """CLI runs until their wall times add up to `seconds`, and at least
        `minimum` of them; `between` runs after each and is not counted."""
        samples = []
        while True:
            samples.append(self.invoke())
            if between is not None:
                between()
            walls = [s[0] for s in samples]
            if len(samples) >= minimum and sum(walls) + statistics.median(walls) > seconds:
                return samples

    def end_to_end(self, seconds: float) -> dict:
        self.setup_time()  # warm-up: compiles bytecode, fills file caches
        # set-up samples interleave with the CLI runs, so both see the same
        # machine load over the whole run
        setup = []
        samples = self.invocations(seconds, MIN_INVOCATIONS,
                                   lambda: setup.append(self.setup_time()))
        while len(setup) < SETUP_REPEATS:
            setup.append(self.setup_time())
        walls, cpus, peaks = (list(col) for col in zip(*samples))
        return {"wall_s": walls, "setup_s": setup, "cpu_s": cpus,
                "peak_rss_mb": peaks}

    def traced(self, one_blas: bool) -> tuple[float, list[dict]]:
        out = os.path.join(self.runner.work, "out")
        spans_path = os.path.join(self.runner.work, "spans.json")
        # one worker keeps every span in one process
        wall, _, _, code, log = self.runner.child(
            "trace", spans_path, *self.cli_args(out, 1), one_blas=one_blas)
        self._record(code, out, log)
        if code != 0:
            raise BenchmarkError(f"traced run failed:\n{_tail(log)}")
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)
        os.remove(spans_path)
        expected = COMMON_SPANS + COMMAND_SPANS[self.workload.command]
        missing = sorted(set(expected) - {s["name"] for s in spans})
        if missing:
            raise BenchmarkError(f"expected spans never fired: {missing}")
        return wall, spans

    def per_layer(self, seconds: float) -> dict:
        untraced = [s[0] for s in self.invocations(UNTRACED_SHARE * seconds, 2)]
        traced_wall, spans = self.traced(one_blas=False)
        _, spans_1blas = self.traced(one_blas=True)
        metrics = layer_metrics(spans, traced_wall,
                                statistics.median(untraced), self.workers)
        steps = _sum_attr(spans_1blas, "propagator.propagate", "steps")
        metrics["propagator.step_ms_1blas"] = (
            1e3 * _total(spans_1blas, "propagator.propagate") / steps)
        return {"untraced_wall_s": untraced, **{k: [v] for k, v in metrics.items()}}


def _total(spans, name) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _attrs(spans, name, key) -> list:
    return [s["attrs"][key] for s in spans if s["name"] == name and key in s["attrs"]]


def _sum_attr(spans, name, key) -> float:
    return sum(_attrs(spans, name, key))


def _self_time(spans, name) -> float:
    """Duration of the named spans minus the time their direct children cover."""
    total = 0.0
    for index, span in enumerate(spans):
        if span["name"] == name:
            children = sum(c["end"] - c["start"] for c in spans
                           if c["parent"] == index)
            total += span["end"] - span["start"] - children
    return total


def layer_metrics(spans, traced_wall, untraced_wall, workers) -> dict:
    """Per-layer metrics from one traced invocation."""
    steps = _sum_attr(spans, "propagator.propagate", "steps")
    matvecs = _sum_attr(spans, "propagator.propagate", "matvecs")
    if steps == 0 or matvecs == 0:
        raise BenchmarkError("the step or mat-vec counter never fired")
    propagate_s = _total(spans, "propagator.propagate")
    run_end = max(s["end"] for s in spans if s["name"].startswith("runs.")
                  and s["name"] != "runs.write")
    starts = sorted(s["start"] for s in spans if s["name"] == "model.discretize")
    point_s = [b - a for a, b in zip(starts, starts[1:] + [run_end])]
    explicit = list(zip(_attrs(spans, "oracle.assemble", "dim"),
                        _attrs(spans, "oracle.assemble", "nnz")))
    assembled = list(zip(_attrs(spans, "hamiltonian.assemble", "dim"),
                         _attrs(spans, "hamiltonian.assemble", "nnz")))
    return {
        "config.load_s": _total(spans, "config.load"),
        "model.discretize_s": _total(spans, "model.discretize"),
        "model.n_bins": max(_attrs(spans, "model.discretize", "n_bins")),
        "hamiltonian.assemble_s": _total(spans, "hamiltonian.assemble"),
        "hamiltonian.dim": max(assembled)[0],
        "hamiltonian.nnz": max(assembled)[1],
        "propagator.propagate_s": propagate_s,
        "propagator.step_ms": 1e3 * propagate_s / steps,
        "propagator.steps": steps,
        "propagator.matvecs": matvecs,
        "propagator.matvecs_per_step": matvecs / steps,
        "propagator.snapshot_mb": 1e-6 * (
            _sum_attr(spans, "propagator.propagate", "snapshot_bytes")
            + _sum_attr(spans, "oracle.propagate", "snapshot_bytes")),
        "observables.populations_s": _total(spans, "observables.populations"),
        "observables.absorption_s": _total(spans, "observables.absorption"),
        "observables.vib_energy_s": _total(spans, "observables.vib_energy"),
        "runs.write_s": _total(spans, "runs.write"),
        "runs.csv_mb": 1e-6 * _sum_attr(spans, "runs.write", "bytes"),
        "runs.point_s_max": max(point_s),
        "runs.pool_efficiency": sum(point_s) / (workers * untraced_wall),
        "oracle.assemble_s": _total(spans, "oracle.assemble"),
        "oracle.dim": max(explicit)[0] if explicit else 0,
        "oracle.nnz": max(explicit)[1] if explicit else 0,
        "oracle.propagate_s": _total(spans, "oracle.propagate"),
        "oracle.compare_s": _self_time(spans, "oracle.compare"),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - _total(spans, "cli.import")
        - _total(spans, "cli.main"),
    }


def report(bench: Bench, series: dict, metrics_spec, machine: dict, seed: int,
           trace: int) -> dict:
    """Print the detail lines and return the final result object."""
    summary = {name: quartiles(values) for name, values in series.items()}
    print(json.dumps({"workload": bench.workload.name, "seed": seed,
                      "trace": trace, "machine": machine,
                      "failed_share": bench.failed / max(1, bench.attempted),
                      "samples": summary}))
    for name, unit, _ in WALL_TIMES + metrics_spec:
        if name not in summary:
            continue
        s = summary[name]
        print(f"# {bench.workload.name} {name} = {s['median']:.6g} {unit}"
              f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": summary[name]["median"], "unit": unit}
                    for name, unit, _ in metrics_spec},
    }


def run_benchmark(root, workload, seed, seconds, trace, reference) -> dict:
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-",
                            dir=os.path.join(root, ".bench_work"))
    try:
        runner = Runner(root, work, time.monotonic() + BUDGET_S)
        bench = Bench(runner, workload, seed, reference)
        machine = bench.probe()
        if trace:
            return report(bench, bench.per_layer(seconds), PER_LAYER,
                          machine, seed, trace)
        return report(bench, bench.end_to_end(seconds), END_TO_END,
                      machine, seed, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "polarbin", "cli.py")):
        print("run from the root of a polarbin checkout (src/polarbin missing)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = check.load_reference()[workload.name] if args.seed == 0 else None
    try:
        result = run_benchmark(root, workload, args.seed, args.seconds,
                               args.trace, reference)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
