"""One BLAS thread per kernel worker, as PLASMA runs it; unpinned, each
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

import numpy as np

_lock, _depth, _saved = threading.Lock(), 0, None


@functools.cache
def _symbols():
    """``(get, set)`` of the OpenBLAS a NumPy wheel bundles and loaded, or ``None``."""
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, "..", "numpy.libs", "*openblas*"))
    for path in paths + glob.glob(os.path.join(root, ".dylibs", "*openblas*")):
        lib = ctypes.CDLL(path)  # the already-loaded library's handle
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
                return get, put
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
