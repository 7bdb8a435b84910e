"""Pluggable kernel backends behind a process-wide registry.

The paper's speedups come from tuned per-device kernels (Fig. 4's
GEQRT/TSQRT/UNMQR/TSMQR timings drive Algs. 2-4).  This package is the
seam those tuned implementations plug into: a :class:`KernelBackend` is
one complete set of the six tile kernels plus their batched row-panel
variants, registered under a name and interchangeable everywhere the
runtimes call a kernel.

Shipped backends
----------------
``reference``
    The kernels of :mod:`repro.kernels` — LAPACK's ``?geqrt``/``?tpqrt``
    for the factorizations and ``?gemqrt``/``?tpmqrt`` for the updates;
    the conformance oracle every other backend is checked against.

Every registered backend must pass the differential conformance harness
(:mod:`repro.kernels.backends.conformance`, ``tiledqr backends --check``,
``tests/test_backend_conformance.py``) against ``reference`` before it
is trusted: per-kernel elementwise agreement at ``<= 1e-12`` (float64),
input/aliasing safety, and — for backends declaring ``bit_exact`` —
bit-identical end-to-end R.  Backend selection from measured timings is
:func:`repro.core.backend_select.select_kernel_backends`; see
``docs/KERNELS.md`` for the full contract.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

from ...errors import KernelError

#: Attribute names every backend must expose as callables, in the order
#: the paper introduces them (factorizations, then updates, then the
#: coarsened batch variants).
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

#: The backend used when none is requested (also the conformance oracle).
DEFAULT_BACKEND = "reference"


@runtime_checkable
class KernelBackend(Protocol):
    """Protocol every kernel backend satisfies.

    The kernel attributes are callables with the exact signatures of
    their :mod:`repro.kernels` counterparts (``geqrt(a, inner_block=None)``,
    ``tsmqr(factors, c1, c2, transpose=True, workspace=None)``, ...) and
    must return the same result types (:class:`~repro.kernels.GEQRTResult`
    / :class:`~repro.kernels.TSQRTResult` / the updated arrays), so
    runtimes, the factor log, and checkpoints are backend-agnostic.
    """

    name: str
    description: str
    #: True when the backend involves ahead-of-time/JIT compilation;
    #: reported by ``tiledqr backends`` and ``backend_info``.
    compiled: bool
    #: True when the backend guarantees *bit-identical* results to the
    #: reference backend (same arithmetic, possibly regrouped only along
    #: GEMM columns).  The conformance harness enforces bitwise equality
    #: of the end-to-end R factor for such backends, and tolerance-level
    #: agreement (``<= 1e-12`` in float64) for the rest.
    bit_exact: bool

    geqrt: Callable[..., Any]
    tsqrt: Callable[..., Any]
    ttqrt: Callable[..., Any]
    unmqr: Callable[..., Any]
    tsmqr: Callable[..., Any]
    ttmqr: Callable[..., Any]
    unmqr_batch: Callable[..., Any]
    tsmqr_batch: Callable[..., Any]
    ttmqr_batch: Callable[..., Any]


@dataclass(frozen=True)
class FunctionBackend:
    """A :class:`KernelBackend` assembled from plain functions.

    The concrete carrier the shipped backends use; anything satisfying
    the protocol (a module, a class instance) registers just as well.
    """

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


_LOCK = threading.Lock()
_REGISTRY: dict[str, KernelBackend] = {}


def _validate(backend: Any) -> None:
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise KernelError("a kernel backend needs a non-empty string `name`")
    for attr in KERNEL_NAMES:
        fn = getattr(backend, attr, None)
        if not callable(fn):
            raise KernelError(
                f"backend {name!r} is missing kernel {attr!r} "
                f"(must provide callables for {', '.join(KERNEL_NAMES)})"
            )
    for attr in ("compiled", "bit_exact"):
        if not isinstance(getattr(backend, attr, None), bool):
            raise KernelError(f"backend {name!r} must declare boolean {attr!r}")


def register_backend(backend: KernelBackend, replace: bool = False) -> KernelBackend:
    """Register a backend under ``backend.name``.

    Refuses to shadow an existing name unless ``replace=True`` (so a
    typo cannot silently reroute every kernel call); returns the backend
    for chaining.
    """
    _validate(backend)
    with _LOCK:
        if backend.name in _REGISTRY and not replace:
            raise KernelError(
                f"backend {backend.name!r} is already registered "
                f"(pass replace=True to override)"
            )
        _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (test helper; unknown names are a no-op)."""
    with _LOCK:
        _REGISTRY.pop(name, None)


def get_backend(name: str) -> KernelBackend:
    """Look a backend up by name; unknown names list what exists."""
    with _LOCK:
        backend = _REGISTRY.get(name)
    if backend is None:
        raise KernelError(
            f"unknown kernel backend {name!r}; registered: "
            f"{', '.join(available_backends()) or '(none)'}"
        )
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, ``reference`` first, rest sorted."""
    with _LOCK:
        names = set(_REGISTRY)
    head = [DEFAULT_BACKEND] if DEFAULT_BACKEND in names else []
    return tuple(head + sorted(names - {DEFAULT_BACKEND}))


def resolve_backend(backend: "KernelBackend | str | None") -> KernelBackend:
    """Normalize a backend argument: ``None`` -> default, str -> lookup,
    backend objects pass through (validated)."""
    if backend is None:
        return get_backend(DEFAULT_BACKEND)
    if isinstance(backend, str):
        return get_backend(backend)
    _validate(backend)
    return backend


def backend_info() -> list[dict]:
    """One describing dict per registered backend (CLI listing order)."""
    out = []
    for name in available_backends():
        b = get_backend(name)
        out.append(
            {
                "name": b.name,
                "description": b.description,
                "compiled": b.compiled,
                "bit_exact": b.bit_exact,
                "default": b.name == DEFAULT_BACKEND,
            }
        )
    return out


# -- shipped backends -------------------------------------------------------

from .reference import REFERENCE_BACKEND  # noqa: E402

register_backend(REFERENCE_BACKEND)

__all__ = [
    "KERNEL_NAMES",
    "DEFAULT_BACKEND",
    "KernelBackend",
    "FunctionBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "resolve_backend",
    "backend_info",
    "REFERENCE_BACKEND",
]
