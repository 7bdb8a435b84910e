"""The ``reference`` backend: the :mod:`repro.kernels` kernels, unchanged.

GEQRT/TSQRT/TTQRT call LAPACK's ``?geqrt``/``?tpqrt`` and the updates
``?gemqrt``/``?tpmqrt`` in NumPy's OpenBLAS (Python loops and NumPy
GEMMs without it).  This
is a thin packaging of the existing :mod:`repro.kernels` functions
as a :class:`~repro.kernels.backends.FunctionBackend` — the functions
are the *same objects* the library has always exported, so code calling
``repro.kernels.geqrt`` directly and code routing through the registry
execute identical arithmetic.  Every other backend is conformance-tested
against this one.
"""

from __future__ import annotations

from ..batched import tsmqr_batch, ttmqr_batch, unmqr_batch
from ..geqrt import geqrt
from ..tsmqr import tsmqr
from ..tsqrt import tsqrt
from ..ttmqr import ttmqr
from ..ttqrt import ttqrt
from ..unmqr import unmqr

# Imported lazily by backends/__init__ to avoid a circular import with
# the repro.kernels package __init__.


def _make():
    from . import FunctionBackend

    return FunctionBackend(
        name="reference",
        description="oracle kernels (repro.kernels): LAPACK's PLASMA tile kernels",
        geqrt=geqrt,
        tsqrt=tsqrt,
        ttqrt=ttqrt,
        unmqr=unmqr,
        tsmqr=tsmqr,
        ttmqr=ttmqr,
        unmqr_batch=unmqr_batch,
        tsmqr_batch=tsmqr_batch,
        ttmqr_batch=ttmqr_batch,
        compiled=False,
        bit_exact=True,
    )


REFERENCE_BACKEND = _make()
