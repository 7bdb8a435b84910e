"""Per-worker scratch arenas for the hot-path kernel GEMMs.

Every update kernel application needs a few temporaries (``W = V^T C``,
``Tf W``, ``V W``).  Allocating them fresh per call makes the Python
allocator — not BLAS — the bottleneck at small tile sizes, so the
kernels write every product into preallocated scratch via
``np.matmul(..., out=)`` instead.

A :class:`Workspace` is *not* thread-safe by design: it is an arena one
worker owns.  The runtimes hand each worker thread/process its own
instance; code without an explicit workspace gets a thread-local one
from :func:`thread_workspace`, which preserves the same ownership rule.
The LAPACK kernels (:mod:`repro.kernels.lapack`) take their ``WORK``
buffers (:meth:`Workspace.pointer`) and integer argument blocks
(:attr:`Workspace.args`) from the same arena: LAPACK writes ``INFO``
into the block, so sharing one between threads would race.
"""

from __future__ import annotations

import threading

import numpy as np


class Workspace:
    """Named, grow-only scratch buffers keyed by ``(name, dtype)``.

    :meth:`temp` returns a C-contiguous view of the requested shape into
    a flat buffer that is reused across calls and only reallocated when
    a request outgrows it — so steady-state kernel execution performs no
    heap allocation.  Contents are undefined on entry; callers must
    fully overwrite what they read.

    ``fallbacks`` counts the kernel calls that could *not* use the arena
    (mixed operand dtypes force freshly allocated GEMM temporaries —
    see :func:`~repro.kernels.blockreflector.apply_block_reflector` /
    :func:`~repro.kernels.tsmqr.tsmqr`).  A nonzero count on the hot
    path means per-call heap allocation is back; the runtimes surface it
    as the ``kernel.workspace.fallbacks`` metric via
    :func:`drain_fallbacks`.
    """

    __slots__ = ("_buffers", "_pointers", "args", "fallbacks")

    #: Argument blocks kept before :attr:`args` is emptied (one per call
    #: shape; a run uses a few dozen).
    MAX_ARGS = 512

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}
        self._pointers: dict[tuple, tuple[np.ndarray, int]] = {}
        #: LAPACK integer argument blocks keyed by call shape, owned by
        #: :mod:`repro.kernels.lapack`.
        self.args: dict[tuple, tuple] = {}
        self.fallbacks: int = 0

    def temp(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized ``shape`` scratch array unique to ``name``.

        Two live ``temp`` views with different names never alias; asking
        for the same name again invalidates the previous view's
        contents.
        """
        dtype = np.dtype(dtype)
        n = 1
        for s in shape:
            n *= int(s)
        key = (name, dtype)
        buf = self._buffers.get(key)
        if buf is None or buf.size < n:
            buf = np.empty(max(n, 1), dtype=dtype)
            self._buffers[key] = buf
        return buf[:n].reshape(shape)

    def pointer(self, name: str, size: int, dtype: np.dtype) -> tuple[np.ndarray, int]:
        """``(buffer, address)`` of a grow-only buffer of at least ``size``
        elements (LAPACK's ``WORK``); names are separate from :meth:`temp`'s.
        A larger request replaces the buffer, so whoever keeps the
        address past the call keeps the buffer with it."""
        key = (name, dtype)
        entry = self._pointers.get(key)
        if entry is None or entry[0].size < size:
            buf = np.empty(max(size, 1), dtype=dtype)
            entry = self._pointers[key] = (buf, buf.ctypes.data)
        return entry

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        held = [*self._buffers.values(), *(buf for buf, _ in self._pointers.values())]
        return sum(b.nbytes for b in held)

    def note_fallback(self) -> None:
        """Record one allocating (non-arena) kernel call."""
        self.fallbacks += 1

    def clear(self) -> None:
        """Release every buffer (views handed out earlier stay valid)."""
        self._buffers.clear()
        self._pointers.clear()
        self.args.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Workspace(buffers={len(self._buffers)}, nbytes={self.nbytes})"


_local = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's private default :class:`Workspace`.

    Gives kernel callers that do not manage an arena (tests, one-off
    applications) allocation reuse for free while keeping the
    one-owner-per-arena rule: no two threads ever share an instance.
    """
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = Workspace()
        _local.workspace = ws
    return ws


def drain_fallbacks(metrics, *workspaces: Workspace) -> int:
    """Fold accumulated fallback counts into ``metrics`` and reset them.

    Increments the ``kernel.workspace.fallbacks`` counter by the summed
    :attr:`Workspace.fallbacks` of the given arenas (when ``metrics`` is
    not ``None`` and the sum is nonzero) and zeroes the per-arena
    counters, so repeated runs report deltas rather than lifetimes.
    Returns the drained total either way.
    """
    total = 0
    for ws in workspaces:
        total += ws.fallbacks
        ws.fallbacks = 0
    if metrics is not None and total:
        metrics.counter("kernel.workspace.fallbacks").inc(total)
    return total
