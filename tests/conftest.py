"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

import numpy as np
import pytest

from repro.comm.topology import pcie_star
from repro.core.optimizer import Optimizer
from repro.devices.registry import paper_testbed
from repro.kernels.backends import get_backend, register_backend
from repro.runtime import blas


@contextmanager
def kernel_table(**kernels):
    """Run the block with the kernel table's entries ``kernels`` replaced,
    through ``register_backend(..., replace=True)``; yields the previous
    table, which is put back afterwards.  Multiprocess workers forked
    inside the block inherit the copy."""
    base = get_backend("reference")
    register_backend(dataclasses.replace(base, **kernels), replace=True)
    try:
        yield base
    finally:
        register_backend(base, replace=True)


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
