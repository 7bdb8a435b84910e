"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.topology import pcie_star
from repro.core.optimizer import Optimizer
from repro.devices.registry import paper_testbed
from repro.kernels.backends import (
    DEFAULT_BACKEND,
    KERNEL_NAMES,
    FunctionBackend,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.runtime import blas

#: A second registered backend for backend-parametrized tests, so a
#: non-default backend routed by name is exercised although only
#: ``reference`` ships.
#: It is a ``reference`` clone under the name of the deleted ``blocked``
#: backend, which ran the reference kernels at every width tested here.
STAND_IN_BACKEND = "blocked"


def clone_reference(name: str, **overrides) -> FunctionBackend:
    """A valid throwaway backend delegating to the reference kernels."""
    reference = get_backend(DEFAULT_BACKEND)
    kwargs = {k: getattr(reference, k) for k in KERNEL_NAMES}
    kwargs.update(overrides)
    return FunctionBackend(name=name, description=f"test clone {name}", **kwargs)


@pytest.fixture(scope="module")
def stand_in_backend():
    """Register :data:`STAND_IN_BACKEND` for one test module.

    Multiprocess workers inherit it through ``fork``.
    """
    register_backend(clone_reference(STAND_IN_BACKEND))
    yield STAND_IN_BACKEND
    unregister_backend(STAND_IN_BACKEND)


@pytest.fixture
def python_loops(monkeypatch):
    """Patch out the shared OpenBLAS loader, so GEQRT/TSQRT/TTQRT run
    their Python loops instead of LAPACK (and nothing pins BLAS threads)."""
    monkeypatch.setattr(blas, "_symbols", lambda: None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def system():
    return paper_testbed()


@pytest.fixture(scope="session")
def topology(system):
    return pcie_star(system.devices)


@pytest.fixture(scope="session")
def optimizer(system, topology):
    return Optimizer(system, topology)
