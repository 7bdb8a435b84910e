"""NumPy's bundled OpenBLAS, reached through ctypes: its thread count and
the LAPACK tile kernels the kernel table calls
(:mod:`repro.kernels.lapack`).

One BLAS thread per kernel worker, as PLASMA runs it; unpinned, each
worker's GEMM starts OpenBLAS's own pool and the workers oversubscribe the
cores.  The count is process-global, so a scope sets and restores it, and
overlapping scopes share one save.  Without NumPy's OpenBLAS: a no-op.
"""

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

_lock, _depth, _saved = threading.Lock(), 0, None

#: Thread-count symbol templates, each with the name template of the
#: same build's LAPACK routines when they take 64-bit integers.
_NAMES = (
    ("scipy_openblas_{}_num_threads64_", "scipy_{}_64_"),
    ("openblas_{}_num_threads64_", "{}_64_"),
    ("scipy_openblas_{}_num_threads", None),
    ("openblas_{}_num_threads", None),
)

#: The LAPACK routines bound when the library exports them, with their
#: argument counts (Fortran passes every argument by reference).  The
#: ``?mqrt`` counts include the lengths of their two one-character
#: arguments, which gfortran passes by value after the others.
LAPACK_ROUTINES = {
    "dgeqrt": 9, "sgeqrt": 9, "dtpqrt": 12, "stpqrt": 12,
    "dgemqrt": 16, "sgemqrt": 16, "dtpmqrt": 19, "stpmqrt": 19,
}


class OpenBLAS(NamedTuple):
    """The symbols found in NumPy's OpenBLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]
    #: ``{"dgeqrt": fn, ...}``: the routines of :data:`LAPACK_ROUTINES`
    #: found, all arguments by reference, integers 64-bit.
    lapack: dict


@functools.cache
def _symbols() -> OpenBLAS | None:
    """The OpenBLAS a NumPy wheel bundles and loaded, or ``None``.

    The one loader: the thread pin and the LAPACK kernels both read it,
    so patching it out makes both fall back.
    """
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
    for path in paths + glob.glob(os.path.join(root, ".dylibs", "*openblas*")):
        lib = ctypes.CDLL(path)  # the already-loaded library's handle
        for threads, routine in _NAMES:
            get, put = (getattr(lib, threads.format(op), None) for op in ("get", "set"))
            if get is None or put is None:
                continue
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            lapack = {}
            for name, nargs in LAPACK_ROUTINES.items() if routine else ():
                if (fn := getattr(lib, routine.format(name), None)) is not None:
                    fn.argtypes, fn.restype = [ctypes.c_void_p] * nargs, None
                    lapack[name] = fn
            return OpenBLAS(get, put, lapack)
    return None


def get_num_threads() -> int | None:
    """The process's BLAS thread count; ``None`` when it is not controllable."""
    return None if (syms := _symbols()) is None else syms[0]()


def set_num_threads(n: int) -> None:
    """Set the process's BLAS thread count (a no-op when not controllable)."""
    # Skipped when already n: in a forked child the setter restarts the pool.
    if (syms := _symbols()) is not None and syms[0]() != n:
        syms[1](n)


@contextmanager
def blas_threads(n: int):
    """Run the body with ``n`` BLAS threads, restoring the count on exit."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = get_num_threads()
        _depth += 1
        set_num_threads(n)
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_num_threads(_saved)
