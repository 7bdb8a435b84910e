"""Runtimes that execute the tiled-QR factorization numerically.

* :class:`SerialRuntime` — deterministic, single-threaded; the reference
  implementation used by tests and examples.
* :class:`ThreadedRuntime` — the same task-graph loop with a worker-pool
  dispatch policy; exercises the concurrency structure a real
  PLASMA/StarPU-style runtime uses (NumPy's BLAS releases the GIL).
* :class:`MultiprocessRuntime` — the same task-graph loop dispatching
  task ids to one OS process per device, all mapping one shared-memory
  tile arena (the paper's Fig. 7 manager/computing-thread structure).

All three take their settings as one frozen :class:`RunOptions`
(elimination tree, tracer, bus, batching, and the resilience
controls — retry policy, chaos, health checks, periodic checkpoints,
failure bundles; see :mod:`repro.resilience` and ``docs/RELIABILITY.md``);
:func:`resume_factorization` finishes an interrupted checkpointed run.
Every runtime calls the tile kernels through the one kernel table,
:mod:`repro.kernels.backends`, read at call time.
"""

from .factorization import TiledQRFactorization
from .serial import RunOptions, SerialRuntime, tiled_qr
from .threaded import ThreadedRuntime
from .multiprocess import MultiprocessRuntime
from .trisolve import tiled_back_substitution, solve_factorized_tiled
from .checkpoint import (
    CheckpointError,
    PartialState,
    save_factorization,
    load_factorization,
    save_partial_factorization,
    load_partial_factorization,
    resume_factorization,
)

__all__ = [
    "TiledQRFactorization",
    "RunOptions",
    "SerialRuntime",
    "ThreadedRuntime",
    "MultiprocessRuntime",
    "tiled_qr",
    "tiled_back_substitution",
    "solve_factorized_tiled",
    "save_factorization",
    "load_factorization",
    "CheckpointError",
    "PartialState",
    "save_partial_factorization",
    "load_partial_factorization",
    "resume_factorization",
]
