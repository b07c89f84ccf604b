"""Programs the benchmark runs in fresh child processes.

    python3 perfbench/child.py probe
        Print the machine record as JSON: versions, BLAS library and the
        BLAS threads in effect, read through OpenBLAS's exported getter.
    python3 perfbench/child.py setup COMMAND CONFIG
        Everything a CLI run does before its first propagation: import
        polarbin.cli, load the configuration, bin the disorder and assemble
        the Hamiltonian of every grid point (and, for oracle, the explicit
        ensembles). The caller times the whole process.
    python3 perfbench/child.py trace SPANS_JSON CLI_ARG...
        Run polarbin.cli.main(CLI_ARG...) with the public functions that
        polarbin.cli, polarbin.runs and polarbin.oracle call replaced by
        timing wrappers, and write the recorded spans to SPANS_JSON.

polarbin must be importable (PYTHONPATH pointing at the checkout's src).
"""

from __future__ import annotations

import ctypes
import dataclasses
import glob
import json
import os
import platform
import sys
import time

perf_counter = time.perf_counter

# (library file pattern inside <package>.libs, thread-count getter)
OPENBLAS_GETTERS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_get_num_threads"),
)


def probe() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own OpenBLAS

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for package, pattern, getter in OPENBLAS_GETTERS:
        libs_dir = os.path.join(
            os.path.dirname(os.path.dirname(sys.modules[package].__file__)),
            f"{package}.libs",
        )
        for path in sorted(glob.glob(os.path.join(libs_dir, pattern))):
            function = getattr(ctypes.CDLL(path), getter, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                threads[os.path.basename(path)] = function()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def setup(command: str, config_path: str) -> None:
    from polarbin import cli, oracle, runs

    cfg = cli.load_config_file(config_path)
    for point in cfg.sweep_points():
        resolved = cfg.resolve_point(point)
        bins = runs.discretize_disorder(resolved.spec, resolved.n_bins)
        runs.build_effective_hamiltonian(resolved.spec, bins, resolved.n_vib)
        if command == "oracle":
            for n in runs.ORACLE_ENSEMBLE_SIZES:
                ensemble = oracle.ExplicitEnsemble.from_bins(
                    bins, n, resolved.n_vib, resolved.spec.coupling
                )
                oracle.build_explicit_hamiltonian(resolved.spec, ensemble)


class CountingMatrix:
    """Sparse-matrix stand-in that counts matrix-vector products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.matvecs = 0

    def dot(self, other):
        self.matvecs += 1
        return self.matrix.dot(other)

    def __matmul__(self, other):
        self.matvecs += 1
        return self.matrix @ other

    def __getattr__(self, name):
        return getattr(self.matrix, name)


class Tracer:
    """In-memory spans: name, start, end, parent span, point index, attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.point = -1
        self._explicit = None  # latest explicit-ensemble Hamiltonian

    def span(self, name, fn, *args, **kwargs):
        record = {"name": name, "start": perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "point": self.point, "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return record, fn(*args, **kwargs)
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, attrs=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            record, result = self.span(name, fn, *args, **kwargs)
            if attrs is not None:
                record["attrs"].update(attrs(args, result))
            return result

        setattr(module, attr, traced)

    def wrap_discretize(self, module):
        fn = module.discretize_disorder

        def traced(*args, **kwargs):
            self.point += 1
            record, bins = self.span("model.discretize", fn, *args, **kwargs)
            record["attrs"]["n_bins"] = bins.n_bins
            return bins

        module.discretize_disorder = traced

    def wrap_propagate(self, module):
        fn = module.propagate

        def traced(ham, *args, **kwargs):
            counter = CountingMatrix(ham.matrix)
            name = ("oracle.propagate" if ham is self._explicit
                    else "propagator.propagate")
            counted = dataclasses.replace(ham, matrix=counter)
            record, traj = self.span(name, fn, counted, *args, **kwargs)
            snapshots = getattr(traj, "snapshots", None)
            record["attrs"].update(
                steps=len(traj.times) - 1,
                matvecs=counter.matvecs,
                snapshot_bytes=0 if snapshots is None else snapshots.nbytes,
            )
            return traj

        module.propagate = traced

    def remember_explicit(self, _args, ham):
        self._explicit = ham
        return _matrix_attrs(_args, ham)


def _matrix_attrs(_args, ham):
    return {"dim": ham.matrix.shape[0], "nnz": ham.matrix.nnz}


def _file_bytes(args, _result):
    return {"bytes": os.path.getsize(args[0])}


def trace(spans_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    _, cli = tracer.span("cli.import", __import__, "polarbin.cli",
                         fromlist=["main"])
    from polarbin import oracle, runs

    tracer.wrap(cli, "load_config_file", "config.load")
    for command in ("spectrum", "dynamics", "sweep", "oracle"):
        tracer.wrap(cli, f"run_{command}", f"runs.{command}")
    tracer.wrap_discretize(runs)
    tracer.wrap(runs, "build_effective_hamiltonian", "hamiltonian.assemble",
                _matrix_attrs)
    tracer.wrap_propagate(runs)
    tracer.wrap(runs, "populations", "observables.populations")
    tracer.wrap(runs, "state_populations", "observables.populations")
    tracer.wrap(runs, "absorption", "observables.absorption")
    tracer.wrap(runs, "vibrational_energy", "observables.vib_energy")
    tracer.wrap(runs, "write_csv", "runs.write", _file_bytes)
    tracer.wrap(runs, "write_manifest", "runs.write")
    tracer.wrap(runs, "compare_to_cute", "oracle.compare")
    tracer.wrap(oracle, "build_explicit_hamiltonian", "oracle.assemble",
                tracer.remember_explicit)
    tracer.wrap(oracle, "build_effective_hamiltonian", "hamiltonian.assemble",
                _matrix_attrs)
    tracer.wrap_propagate(oracle)

    _, status = tracer.span("cli.main", cli.main, cli_args)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return status


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "probe" and len(argv) == 1:
        print(json.dumps(probe()))
        return 0
    if mode == "setup" and len(argv) == 3:
        setup(argv[1], argv[2])
        return 0
    if mode == "trace" and len(argv) >= 3:
        return trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
