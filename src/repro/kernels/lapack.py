"""PLASMA's tile kernels as LAPACK (>= 3.4) ships them.

``?geqrt`` is GEQRT, ``?tpqrt`` is TSQRT with ``l = 0`` and TTQRT with
``l = n``; ``?gemqrt`` is UNMQR and ``?tpmqrt`` is TSMQR/TTMQR (Buttari
et al., arXiv:0707.3548).  They use this package's representation
``Q = I - V T V^T`` with ``V = [I; V2]``.  They are called through
ctypes in the OpenBLAS NumPy already loaded (the loader is
:func:`repro.runtime.blas._symbols`); ctypes releases the GIL for the
call, so threaded workers run kernels concurrently.

**Inner blocking.**  A factorization runs with inner block
``nb = min(k, IB)`` and stores LAPACK's ``(nb, k)`` block-T as the
factor's ``tf``: columns ``[j, j + nb)`` hold the upper-triangular
``T`` of reflectors ``j .. j + nb - 1`` in their first rows.  The full
``k x k`` T is the case ``nb = k``.  The update routines read ``nb``
from ``tf.shape[0]``, so factors of either layout apply.

**One BLAS thread.**  The routines always run on one BLAS thread, as
PLASMA runs its kernels: inside a runtime's ``blas_threads(1)`` scope
that holds already, and a direct call pins for its own duration.
Unpinned, OpenBLAS threads the small level-3 calls inside ``?tpmqrt``:
on a busy 2-vCPU VM a pass over 8 row panels at b=16 took 80 ms
instead of 0.2 ms.  ``?tpqrt``'s T also depends on the thread count.

**Calling convention.**  Tiles are C-order, so an update applies
``SIDE='R'`` to each tile viewed as its Fortran transpose: ``C := Q^T C``
is ``C^T := C^T Q``, with the row stride as leading dimension (``q*b``
for a tile of a row-major panel) and no copy.  The integer arguments
live in per-worker blocks keyed by call shape (LAPACK writes ``INFO``),
and ``WORK`` is the worker's :class:`~repro.kernels.workspace.Workspace`
scratch, so a warm call allocates nothing.  An update on C-contiguous
tiles then keeps its argument tuple in the factor; a later call with
the same workspace, direction, tile shapes and dtype repeats it
(:func:`prepared`) without the checks and lookups, and still checks
``INFO``.

The factorizations return ``None``, and the updates ``False``, when a
routine is missing, the dtypes are not one of float32/float64, or (for
the updates) a tile's rows are not unit-stride; the caller then runs
its NumPy code.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..errors import KernelError
from .workspace import Workspace, thread_workspace

#: PLASMA's inner block: the width of each ``T`` block a factorization
#: stores (``nb = min(k, IB)``).  At b=128, ``?tpqrt`` with ``nb = b``
#: runs its unblocked level-2 path, about twice as slow; 16 beat 32 on
#: the threaded b=128 factorization (docs/KERNELS.md, "Why 16").
IB = 16

_D, _S = np.dtype(np.float64), np.dtype(np.float32)
_GEQRT = {_D: "dgeqrt", _S: "sgeqrt"}
_TPQRT = {_D: "dtpqrt", _S: "stpqrt"}
_GEMQRT = {_D: "dgemqrt", _S: "sgemqrt"}
_TPMQRT = {_D: "dtpmqrt", _S: "stpmqrt"}

# Character arguments, by reference; their lengths (1) follow by value.
_CHARS = {c: ctypes.create_string_buffer(c.encode()) for c in "RNT"}
_SIDE_R = ctypes.addressof(_CHARS["R"])
#: ``transpose`` (apply ``Q^T`` from the left) -> TRANS of the transposed view.
_TRANS = {True: ctypes.addressof(_CHARS["N"]), False: ctypes.addressof(_CHARS["T"])}

_from_buffer, _addressof = ctypes.c_char.from_buffer, ctypes.addressof
_blas = None  # repro.runtime.blas, bound on first use (it imports the kernels)


def _routine(dtype: np.dtype, names: dict):
    """The bound routine of ``names`` for ``dtype``, or ``None``."""
    global _blas
    if _blas is None:
        from ..runtime import blas as _blas
    syms = _blas._symbols()
    return None if syms is None else syms.lapack.get(names.get(dtype))


def _unpinned() -> bool:
    """Whether BLAS may use several threads: outside every
    ``blas_threads`` scope and not pinned some other way (a spawned
    multiprocess worker sets one thread itself)."""
    return not _blas._depth and _blas.get_num_threads() not in (1, None)


def _faddress(x: np.ndarray) -> int:
    """The address of a new Fortran-order array, from the buffer of its
    C-order transpose: a third of the cost of ``.ctypes.data``."""
    return _addressof(_from_buffer(x.T))


def _args(ws: Workspace, key: tuple) -> tuple:
    """``(block, *addresses)``: the worker's integer arguments ``key[1:]``
    (``key[0]`` names the routine) followed by ``INFO``, and the address
    of each."""
    block = ws.args.get(key)
    if block is None:
        if len(ws.args) >= ws.MAX_ARGS:
            ws.args.clear()
        ints = np.array([*key[1:], 0], dtype=np.int64)
        p = ints.ctypes.data
        block = ws.args[key] = (ints, *(p + 8 * i for i in range(len(ints))))
    return block


def _check(name: str, ints: np.ndarray) -> None:
    if ints[-1] != 0:  # only an illegal argument sets it: a bug here
        raise KernelError(f"LAPACK ?{name} rejected argument {-int(ints[-1])}")


def taus_of(tf: np.ndarray) -> np.ndarray:
    """The reflector scalars: ``taus[j] = tf[j % nb, j]``."""
    nb, k = tf.shape
    if nb == k:
        return tf.diagonal().copy()
    j = np.arange(k)
    return tf[j % nb, j]


def to_block_t(tf: np.ndarray) -> np.ndarray:
    """The ``(nb, k)`` block layout of a full ``k x k`` T, ``nb = min(k, IB)``:
    its diagonal ``nb x nb`` blocks, which are the T of each block of
    reflectors (the Python loops' factors use it too)."""
    k = tf.shape[1]
    nb = min(k, IB)
    if nb == k:
        return tf
    out = np.zeros((nb, k), dtype=tf.dtype, order="F")
    for j0 in range(0, k, nb):
        j1 = min(j0 + nb, k)
        out[: j1 - j0, j0:j1] = tf[j0:j1, j0:j1]
    return out


# -- factorizations ----------------------------------------------------------


def geqrt(a: np.ndarray, dtype: np.dtype):
    """``?geqrt`` of an ``m x n`` tile (``m >= n >= 1``).

    Returns ``(rv, t)`` or ``None``: ``rv`` is a Fortran-order copy of
    ``a`` holding R on and above its diagonal and V's strictly lower part
    below it; ``t`` is the ``(nb, n)`` block-T, ``nb = min(n, IB)``.
    """
    fn = _routine(dtype, _GEQRT)
    if fn is None:
        return None
    if _unpinned():
        with _blas.blas_threads(1):
            return geqrt(a, dtype)
    m, n = a.shape
    nb = min(n, IB)
    ws = thread_workspace()
    rv = np.array(a, dtype=dtype, order="F")
    t = np.zeros((nb, n), dtype=dtype, order="F")
    # M, N, NB, LDA, LDT, INFO
    ints, pm, pn, pnb, plda, pldt, pinfo = _args(ws, ("geqrt", m, n, nb, m, nb))
    fn(pm, pn, pnb, _faddress(rv), plda, _faddress(t), pldt,
       ws.pointer("lapack.work", nb * n, dtype)[1], pinfo)
    _check("geqrt", ints)
    return rv, t


def tpqrt(r1: np.ndarray, a2: np.ndarray, l: int, dtype: np.dtype):
    """``?tpqrt`` of the ``n x n`` triangle ``r1`` over the ``m x n``
    tile ``a2`` whose last ``l`` rows are upper trapezoidal (``m >= 1``).

    Returns ``(r, v2, t)`` or ``None``: Fortran-order copies of ``r1``
    (R on and above the diagonal, the rest untouched) and of ``a2``
    (overwritten with V2), and the ``(nb, n)`` block-T.
    """
    fn = _routine(dtype, _TPQRT)
    if fn is None:
        return None
    if _unpinned():
        with _blas.blas_threads(1):
            return tpqrt(r1, a2, l, dtype)
    m, n = a2.shape
    nb = min(n, IB)
    ws = thread_workspace()
    r = np.array(r1, dtype=dtype, order="F")
    v2 = np.array(a2, dtype=dtype, order="F")
    t = np.zeros((nb, n), dtype=dtype, order="F")
    # M, N, L, NB, LDA, LDB, LDT, INFO
    ints, pm, pn, pl, pnb, plda, pldb, pldt, pinfo = _args(ws, ("tpqrt", m, n, l, nb, n, m, nb))
    fn(pm, pn, pl, pnb, _faddress(r), plda, _faddress(v2), pldb, _faddress(t), pldt,
       ws.pointer("lapack.work", nb * n, dtype)[1], pinfo)
    _check("tpqrt", ints)
    return r, v2, t


# -- updates -----------------------------------------------------------------


def _operands(f, v: np.ndarray) -> tuple:
    """``(v address, tf address, v, tf, prepared call)`` of a factor in
    Fortran order, taken once per factor (not pickled: addresses are per
    process); the prepared call (see :func:`prepared`) starts as ``None``.

    Two workers may race to set it, each with its own Fortran copies
    when ``v`` or ``tf`` is C-order: a caller holds the tuple it got
    through its LAPACK call, so the copies it points at stay alive."""
    ops = f._lapack
    if ops is None:
        vf, tf = np.asfortranarray(v), np.asfortranarray(f.tf)
        ops = (vf.ctypes.data, tf.ctypes.data, vf, tf, None)
        object.__setattr__(f, "_lapack", ops)
    return ops


def _prepare(f, ops, ws, transpose, shapes, fn, head, mid, tail, ints, work) -> None:
    """Keep a validated call on C-contiguous tiles for :func:`prepared`.
    It holds every buffer whose address it passes (``WORK``, the ``INFO``
    block, and in ``ops`` the Fortran V and T), so a workspace that grows
    or evicts them cannot leave it dangling."""
    call = (ws, transpose, *shapes, _blas._symbols(), fn, head, mid, tail, ints, work)
    object.__setattr__(f, "_lapack", (*ops[:4], call))


def prepared(f, transpose: bool, ws: Workspace, c1: np.ndarray, c2=None) -> bool:
    """Repeat ``f``'s prepared ``?gemqrt`` (``c2`` None) or ``?tpmqrt``
    call on new tiles, skipping the checks it passed once; ``False``,
    touching nothing, unless the workspace, direction, tile shapes, dtype
    and OpenBLAS loader match, every tile is C-contiguous and writeable
    and BLAS is pinned.  The caller's full path then prepares anew."""
    ops = f._lapack
    p = None if ops is None else ops[4]
    if p is None or p[0] is not ws or p[1] is not transpose:
        return False
    _, _, s1, s2, syms, fn, head, mid, tail, ints, _ = p
    if syms is not _blas._symbols() or _unpinned():
        return False
    dtype = ops[3].dtype
    if c1.shape != s1 or c1.dtype != dtype or not c1.flags.carray:
        return False
    if c2 is None:
        fn(*head, _addressof(_from_buffer(c1)), *tail)
    elif c2.shape != s2 or c2.dtype != dtype or not c2.flags.carray:
        return False
    else:
        fn(*head, _addressof(_from_buffer(c1)), mid, _addressof(_from_buffer(c2)), *tail)
    if ints[-1]:
        _check("gemqrt" if c2 is None else "tpmqrt", ints)
    return True


def _tile(c: np.ndarray) -> tuple[int, int] | None:
    """``(address, leading dimension)`` of a non-empty C-order ``c`` seen
    as the Fortran matrix ``c^T``, or ``None`` when ``c`` is read-only or
    its rows are not unit-stride."""
    flags = c.flags
    if not flags.writeable:
        return None
    m, n = c.shape
    if flags.c_contiguous:
        return _addressof(_from_buffer(c)), n
    s0, s1 = c.strides
    isz = c.itemsize
    if s1 != isz and n > 1:
        return None
    if m == 1:
        return c.ctypes.data, n
    if s0 % isz or s0 < n * isz:
        return None
    return c.ctypes.data, s0 // isz


def gemqrt(f, c: np.ndarray, transpose: bool, ws: Workspace) -> bool:
    """``c := op(Q) c`` for a GEQRT factor ``f`` through ``?gemqrt``.

    Returns ``False`` without touching ``c`` when LAPACK cannot run it.
    """
    v, tf, dtype = f.v, f.tf, c.dtype
    if v.dtype != dtype or tf.dtype != dtype or not c.size:
        return False
    fn = _routine(dtype, _GEMQRT)
    if fn is None or (tile := _tile(c)) is None:
        return False
    if _unpinned():
        with _blas.blas_threads(1):
            return gemqrt(f, c, transpose, ws)
    cp, ldc = tile
    m, n = c.shape
    nb, k = tf.shape
    ops = _operands(f, v)
    # M, N, K, NB, LDV, LDT, LDC, INFO of the transposed view c^T (n x m)
    ints, pm, pn, pk, pnb, pldv, pldt, pldc, pinfo = _args(
        ws, ("gemqrt", n, m, k, nb, m, nb, ldc)
    )
    head = (_SIDE_R, _TRANS[transpose], pm, pn, pk, pnb, ops[0], pldv, ops[1], pldt)
    work = ws.pointer("lapack.work", n * nb, dtype)
    tail = (pldc, work[1], pinfo, 1, 1)
    fn(*head, cp, *tail)
    _check("gemqrt", ints)
    if ldc == n:
        _prepare(f, ops, ws, transpose, (c.shape, None), fn, head, None, tail, ints, work)
    return True


def tpmqrt(f, c1: np.ndarray, c2: np.ndarray, transpose: bool, ws: Workspace) -> bool:
    """``[c1; c2] := op(Q) [c1; c2]`` for a TSQRT/TTQRT factor ``f``
    through ``?tpmqrt`` (``l = k`` for the TT kind's triangular V2).

    Returns ``False`` without touching ``c1``/``c2`` when LAPACK cannot
    run it.
    """
    v2, tf, dtype = f.v2, f.tf, c1.dtype
    if c2.dtype != dtype or v2.dtype != dtype or tf.dtype != dtype or not c1.size:
        return False
    fn = _routine(dtype, _TPMQRT)
    if fn is None or (top := _tile(c1)) is None or (bottom := _tile(c2)) is None:
        return False
    if _unpinned():
        with _blas.blas_threads(1):
            return tpmqrt(f, c1, c2, transpose, ws)
    (ap, lda), (bp, ldb) = top, bottom
    m2, n = c2.shape
    nb, k = tf.shape
    l = k if f.kind == "TT" else 0
    ops = _operands(f, v2)
    # M, N, K, L, NB, LDV, LDT, LDA, LDB, INFO of the transposed views
    ints, pm, pn, pk, pl, pnb, pldv, pldt, plda, pldb, pinfo = _args(
        ws, ("tpmqrt", n, m2, k, l, nb, m2, nb, lda, ldb)
    )
    head = (_SIDE_R, _TRANS[transpose], pm, pn, pk, pl, pnb, ops[0], pldv, ops[1], pldt)
    work = ws.pointer("lapack.work", n * nb, dtype)
    tail = (pldb, work[1], pinfo, 1, 1)
    fn(*head, ap, plda, bp, *tail)
    _check("tpmqrt", ints)
    if lda == ldb == n:
        _prepare(f, ops, ws, transpose, (c1.shape, c2.shape), fn, head, plda, tail, ints, work)
    return True
