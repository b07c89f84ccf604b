"""Thread counts of the OpenBLAS copies bundled with numpy and scipy.

The package imports numpy inside :func:`loading_at_one_thread`, and the
Krylov stepper and the equations-of-motion engine import scipy.linalg
(which loads scipy's copy) through :func:`import_at_one_thread`, so that
each copy starts at one thread under the package's start-up rule (see
its docstring). A Chebyshev run never loads scipy's copy.
:func:`one_thread` limits the copies already loaded while a propagation
runs, whoever imported numpy first. This module imports no numpy: the
rule is taken before numpy loads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib
import importlib.util
import os
import sys
import threading

# OpenBLAS reads its thread count from one of these once, when it loads
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# taken when the package is first imported, before it imports numpy
_STARTS_AT_ONE_THREAD = "numpy" not in sys.modules and not any(
    name in os.environ for name in THREAD_VARIABLES)
# (package, library file pattern inside <package>.libs, getter, setter) of
# the OpenBLAS copies that numpy and scipy bundle
_OPENBLAS_THREAD_CONTROLS = (
    ("numpy", "libscipy_openblas64_*.so",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)
# held while the environment is changed, so that two threads loading at
# once cannot both set, and then both delete, the variable
_LOADING = threading.RLock()
# path: (getter, setter) of each bundled copy found loaded; a loaded
# library stays loaded, so it is not looked up again
_LOADED = {}


@contextlib.contextmanager
def loading_at_one_thread():
    """Run the body, which may load a bundled OpenBLAS copy, so that the
    copy starts at one thread if the start-up rule holds and the caller has
    set no thread variable since. The environment is left as it was found,
    so subprocesses the caller starts later see it unchanged; one started
    by another thread while the body runs sees the variable.
    """
    with _LOADING:
        if not _STARTS_AT_ONE_THREAD or any(name in os.environ for name in THREAD_VARIABLES):
            yield
            return
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            yield
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]


def import_at_one_thread(name: str):
    """The module name, imported inside :func:`loading_at_one_thread`
    unless it is imported already, when the environment is left alone."""
    if name in sys.modules:
        return importlib.import_module(name)
    with loading_at_one_thread():
        return importlib.import_module(name)


@functools.cache
def bundled_openblas() -> tuple:
    """(package, path, getter name, setter name) of each bundled OpenBLAS
    copy, loaded or not; empty when numpy and scipy link another BLAS."""
    copies = []
    for package, pattern, get_name, set_name in _OPENBLAS_THREAD_CONTROLS:
        # find_spec locates a package without importing it: scipy stays unloaded
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs_dir = os.path.join(os.path.dirname(os.path.dirname(spec.origin)),
                                f"{package}.libs")
        copies += [(package, path, get_name, set_name)
                   for path in sorted(glob.glob(os.path.join(libs_dir, pattern)))]
    return tuple(copies)


def thread_controls() -> tuple:
    """(getter, setter) pairs of the bundled OpenBLAS copies this process
    has loaded and that export them; looking them up loads none."""
    for package, path, get_name, set_name in bundled_openblas():
        # only the package's own extension modules load its copy
        if path in _LOADED or package not in sys.modules:
            continue
        try:
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not loaded, so it runs no BLAS call here
            continue
        getter = getattr(library, get_name, None)
        setter = getattr(library, set_name, None)
        if getter is not None and setter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
        _LOADED[path] = (getter, setter)
    return tuple(pair for pair in _LOADED.values() if None not in pair)


@contextlib.contextmanager
def one_thread():
    """Run the body with every loaded bundled OpenBLAS on one thread, then
    restore their counts.

    A Krylov step makes dozens of BLAS calls on vectors of a few thousand
    entries and matrices of a few dozen; handing each to a thread pool
    costs more than the arithmetic. The thread count is process-wide. A
    process that imported polarbin before numpy already runs at one
    thread; this scope serves callers that loaded numpy first. A copy
    that loads inside the body is not limited by it.
    """
    controls = thread_controls()
    saved = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield
    finally:
        for (_, setter), threads in zip(controls, saved):
            setter(threads)
