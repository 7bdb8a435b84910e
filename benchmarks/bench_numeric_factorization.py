"""Benchmarks of the real NumPy tiled-QR factorization (not simulated).

These are honest host-machine numbers for the from-scratch kernels:
end-to-end factorization, implicit Q application, and the triangular
solve.
"""

import numpy as np
import pytest

from repro.runtime import SerialRuntime, ThreadedRuntime, tiled_qr


@pytest.fixture(scope="module")
def matrix256():
    return np.random.default_rng(0).standard_normal((256, 256))


@pytest.fixture(scope="module")
def fact256(matrix256):
    return tiled_qr(matrix256, tile_size=16)


def test_factorize_256_serial(benchmark, matrix256):
    """Full tiled QR, 256x256, b=16 (16x16 grid, 1496 tasks)."""
    f = benchmark(lambda: SerialRuntime().factorize(matrix256.copy(), 16))
    assert f.shape == (256, 256)


def test_factorize_256_tt(benchmark, matrix256):
    """Same matrix with the binary-tree elimination order."""
    f = benchmark(lambda: SerialRuntime("TT").factorize(matrix256.copy(), 16))
    assert f.shape == (256, 256)


def test_factorize_256_threaded(benchmark, matrix256):
    """Thread-pool runtime (dependency-counting dispatch overheads)."""
    f = benchmark(lambda: ThreadedRuntime(num_workers=2).factorize(matrix256.copy(), 16))
    assert f.shape == (256, 256)


def test_factorize_256_big_tiles(benchmark, matrix256):
    """b=64: fewer, fatter tasks — BLAS-3 friendlier on a host CPU."""
    f = benchmark(lambda: SerialRuntime().factorize(matrix256.copy(), 64))
    assert f.shape == (256, 256)


def test_apply_qt(benchmark, fact256, matrix256):
    """Implicit Q^T application to a block of 8 vectors."""
    x = np.random.default_rng(1).standard_normal((256, 8))
    out = benchmark(fact256.apply_qt, x)
    assert out.shape == (256, 8)


def test_solve(benchmark, fact256, matrix256):
    """Triangular solve path (Q^T b then back-substitution)."""
    b = np.random.default_rng(2).standard_normal(256)
    x = benchmark(fact256.solve, b)
    assert np.linalg.norm(matrix256 @ x - b) / np.linalg.norm(b) < 1e-8


def test_geqrt_blocked_vs_unblocked(benchmark, monkeypatch):
    """GEQRT at b=128 through LAPACK's recursive ``?geqrt``, checked
    against the unblocked Python loop (the OpenBLAS loader patched out)."""
    from repro.kernels import geqrt
    from repro.runtime import blas

    a = np.random.default_rng(3).standard_normal((128, 128))
    blocked = benchmark(lambda: geqrt(a))
    monkeypatch.setattr(blas, "_symbols", lambda: None)
    unblocked = geqrt(a, inner_block=1)
    assert np.allclose(blocked.r, unblocked.r, atol=1e-12)


def test_kernel_scaling_gflops(benchmark):
    """GEQRT sustained rate at b=256 (tracks blocked-panel efficiency)."""
    from repro.kernels import geqrt
    from repro.kernels.flops import flops_geqrt

    a = np.random.default_rng(5).standard_normal((256, 256))
    benchmark(lambda: geqrt(a))
    secs = benchmark.stats["mean"]
    benchmark.extra_info["gflops"] = flops_geqrt(256) / secs / 1e9


def test_multiprocess_runtime_96(benchmark):
    """Distributed-memory (3 worker processes) factorization, 96x96.

    Dominated by IPC on a single host — the point is exercising the
    manager/worker protocol, not speed.
    """
    from repro.core.optimizer import Optimizer
    from repro.devices.registry import paper_testbed
    from repro.runtime.multiprocess import MultiprocessRuntime

    plan = Optimizer(paper_testbed()).plan(matrix_size=96, num_devices=3)
    a = np.random.default_rng(6).standard_normal((96, 96))
    f = benchmark.pedantic(
        lambda: MultiprocessRuntime(plan).factorize(a), rounds=2, iterations=1
    )
    assert f.shape == (96, 96)
