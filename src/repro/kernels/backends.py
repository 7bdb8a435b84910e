"""The kernel table: the one set of tile kernels every runtime calls.

The paper times one kernel per (device, kernel, tile size) (Fig. 4) and
tunes it through the tile size, not by swapping kernel sets.
:data:`TABLE` holds the nine :mod:`repro.kernels` entry points: LAPACK's
``?geqrt``/``?tpqrt`` for the factorizations and ``?gemqrt``/``?tpmqrt``
for the updates (Python loops and NumPy GEMMs where LAPACK is missing).
:func:`repro.runtime.core_exec.apply_task` reads it on every call.

``register_backend(table, replace=True)`` swaps the table; it is the one
patch point for a tracing or counting copy built with
:class:`FunctionBackend`.  The swap reaches the next task of every
runtime, runtimes built before it included, and the multiprocess
workers forked after it (spawned workers import the shipped table).
Whoever swaps the table puts the previous one back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..errors import KernelError
from .batched import tsmqr_batch, ttmqr_batch, unmqr_batch
from .geqrt import geqrt
from .tsmqr import tsmqr
from .tsqrt import tsqrt
from .ttmqr import ttmqr
from .ttqrt import ttqrt
from .unmqr import unmqr

#: The table's kernel entry points: factorizations, updates, then the
#: row-panel batch variants.
KERNEL_NAMES = (
    "geqrt",
    "tsqrt",
    "ttqrt",
    "unmqr",
    "tsmqr",
    "ttmqr",
    "unmqr_batch",
    "tsmqr_batch",
    "ttmqr_batch",
)

_NAME = "reference"


@dataclass(frozen=True)
class FunctionBackend:
    """A kernel table: one callable per :data:`KERNEL_NAMES` entry, with
    the signature and result type of its :mod:`repro.kernels` function."""

    name: str
    description: str
    geqrt: Callable[..., Any]
    tsqrt: Callable[..., Any]
    ttqrt: Callable[..., Any]
    unmqr: Callable[..., Any]
    tsmqr: Callable[..., Any]
    ttmqr: Callable[..., Any]
    unmqr_batch: Callable[..., Any]
    tsmqr_batch: Callable[..., Any]
    ttmqr_batch: Callable[..., Any]
    compiled: bool = False
    bit_exact: bool = True


TABLE = FunctionBackend(
    name=_NAME,
    description="the repro.kernels tile kernels: LAPACK's PLASMA kernels",
    geqrt=geqrt,
    tsqrt=tsqrt,
    ttqrt=ttqrt,
    unmqr=unmqr,
    tsmqr=tsmqr,
    ttmqr=ttmqr,
    unmqr_batch=unmqr_batch,
    tsmqr_batch=tsmqr_batch,
    ttmqr_batch=ttmqr_batch,
)


def _check_name(name) -> None:
    if name != _NAME:
        raise KernelError(f"unknown kernel table {name!r}; the only one is {_NAME!r}")


def get_backend(name: str) -> FunctionBackend:
    """The installed kernel table; ``name`` must be ``"reference"``."""
    _check_name(name)
    return TABLE


def register_backend(backend: FunctionBackend, replace: bool = False) -> FunctionBackend:
    """Install ``backend`` as the kernel table and return it.

    It must be named ``"reference"`` and provide every kernel in
    :data:`KERNEL_NAMES`; ``replace=True`` is required, since a table is
    always installed.
    """
    global TABLE
    _check_name(getattr(backend, "name", None))
    missing = [k for k in KERNEL_NAMES if not callable(getattr(backend, k, None))]
    if missing:
        raise KernelError(f"kernel table is missing {', '.join(missing)}")
    if not replace:
        raise KernelError(f"a {_NAME!r} table is installed (pass replace=True to swap it)")
    TABLE = backend
    return backend


__all__ = ["KERNEL_NAMES", "FunctionBackend", "TABLE", "get_backend", "register_backend"]
