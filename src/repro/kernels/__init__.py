"""From-scratch Householder tile kernels for tiled QR decomposition.

These are NumPy implementations of the four PLASMA-style tile kernels the
paper builds on (Sec. II-B):

======================  =======================  ==========================
Paper step              Kernel (LAPACK name)     Function here
======================  =======================  ==========================
Triangulation (T)       GEQRT                    :func:`geqrt`
Update for T (UT)       UNMQR                    :func:`unmqr`
Elimination (E)         TSQRT / TTQRT            :func:`tsqrt` / :func:`ttqrt`
Update for E (UE)       TSMQR / TTMQR            :func:`tsmqr` / :func:`ttmqr`
======================  =======================  ==========================

All kernels use compact-WY block reflectors: a factorization produces a
matrix of Householder vectors ``V``, scalars ``tau`` and an upper-triangular
factor ``Tf`` such that ``Q = I - V @ Tf @ V.T`` and
``Q.T = I - V @ Tf.T @ V.T``.
"""

from .householder import HouseholderReflector, make_reflector, apply_reflector
from .blockreflector import build_t_factor, apply_block_reflector
from .workspace import Workspace, thread_workspace, drain_fallbacks
from .geqrt import GEQRTResult, geqrt
from .unmqr import unmqr
from .tsqrt import TSQRTResult, tsqrt
from .tsmqr import tsmqr
from .ttqrt import ttqrt
from .ttmqr import ttmqr
from .batched import tsmqr_batch, ttmqr_batch, unmqr_batch
from .tsqr import TSQRResult, tsqr
from .backends import FunctionBackend, register_backend, get_backend
from .flops import (
    flops_geqrt,
    flops_unmqr,
    flops_unmqr_batch,
    flops_tsqrt,
    flops_tsmqr,
    flops_tsmqr_batch,
    flops_ttqrt,
    flops_ttmqr,
    flops_ttmqr_batch,
    flops_tiled_qr,
    flops_dense_qr,
    flops_orgqr,
)
from .validation import (
    check_reconstruction,
    check_orthogonality,
    check_upper_triangular,
)

__all__ = [
    "HouseholderReflector",
    "make_reflector",
    "apply_reflector",
    "build_t_factor",
    "apply_block_reflector",
    "Workspace",
    "thread_workspace",
    "drain_fallbacks",
    "GEQRTResult",
    "geqrt",
    "unmqr",
    "unmqr_batch",
    "TSQRTResult",
    "tsqrt",
    "tsmqr",
    "tsmqr_batch",
    "ttqrt",
    "ttmqr",
    "ttmqr_batch",
    "TSQRResult",
    "tsqr",
    "FunctionBackend",
    "register_backend",
    "get_backend",
    "flops_geqrt",
    "flops_unmqr",
    "flops_unmqr_batch",
    "flops_tsqrt",
    "flops_tsmqr",
    "flops_tsmqr_batch",
    "flops_ttqrt",
    "flops_ttmqr",
    "flops_ttmqr_batch",
    "flops_tiled_qr",
    "flops_dense_qr",
    "flops_orgqr",
    "check_reconstruction",
    "check_orthogonality",
    "check_upper_triangular",
]
