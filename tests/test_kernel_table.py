"""The kernel table: one set of tile kernels, read by every runtime at
call time, with ``register_backend(..., replace=True)`` as its one patch
point."""

from __future__ import annotations

import dataclasses
import multiprocessing as mp

import numpy as np
import pytest

from repro.dag import build_dag
from repro.errors import KernelError
from repro.kernels import geqrt
from repro.kernels.backends import KERNEL_NAMES, get_backend, register_backend
from repro.runtime import MultiprocessRuntime, SerialRuntime, ThreadedRuntime
from tests.conftest import kernel_table

N, B = 64, 16


def test_a_swap_reaches_runtimes_built_before_it(optimizer):
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("a swapped table reaches workers only through fork")
    plan = optimizer.plan(matrix_size=N, tile_size=B, num_devices=2)
    runtimes = [SerialRuntime(), ThreadedRuntime(2), MultiprocessRuntime(plan)]
    a = np.random.default_rng(3).standard_normal((N, N))
    clean = SerialRuntime().factorize(a.copy(), B).r_dense()
    tasks = len(build_dag(N // B, N // B, "TS").tasks)
    # Shared memory, so forked workers count into the same cell.
    calls = mp.get_context("fork").Value("i", 0)
    base = get_backend("reference")

    def counted(name):
        fn = getattr(base, name)

        def kernel(*args, **kwargs):
            with calls.get_lock():
                calls.value += 1
            return fn(*args, **kwargs)

        return kernel

    with kernel_table(**{k: counted(k) for k in KERNEL_NAMES}):
        for rt in runtimes:
            calls.value = 0
            r = rt.factorize(a.copy(), B).r_dense()
            assert calls.value == tasks, rt.name
            assert np.array_equal(r, clean)
    assert get_backend("reference") is base


def test_only_the_reference_table_exists():
    with pytest.raises(KernelError, match="unknown kernel table"):
        get_backend("numba")
    with pytest.raises(KernelError, match="unknown kernel table"):
        register_backend(dataclasses.replace(get_backend("reference"), name="numba"), replace=True)


def test_a_swap_needs_replace_and_every_kernel():
    table = get_backend("reference")
    with pytest.raises(KernelError, match="replace=True"):
        register_backend(table)
    with pytest.raises(KernelError, match="tsmqr"):
        register_backend(dataclasses.replace(table, tsmqr=None), replace=True)
    assert get_backend("reference") is table
    assert table.geqrt is geqrt
