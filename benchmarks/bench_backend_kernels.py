"""Per-kernel backend throughput vs the reference implementation.

Times each registered non-reference kernel backend against
``reference`` on the four hot kernels (GEQRT, TSQRT, UNMQR, TSMQR)
across small tile sizes and records the per-case
``speedup = reference_seconds / backend_seconds``.  Small tiles are
where backends differentiate: call overhead dominates.

Acceptance gate (compiled backends only): ``>= 1.3x`` over reference on
GEQRT and TSQRT at ``b <= 32``.  Only ``reference`` ships, and its
GEQRT/TSQRT are already LAPACK's compiled ``?geqrt``/``?tpqrt``; with no
other backend registered the gate test skips rather than fails, and the
sweep has nothing to compare.

Every invocation appends its cases to ``BENCH_backend_kernels.json`` at
the repo root.  Its older ``blocked`` records timed reference code on
both sides: that deleted backend ran the reference kernels at every
width swept here.

Usage::

    python benchmarks/bench_backend_kernels.py     # full sweep
    pytest benchmarks/bench_backend_kernels.py     # gate cases only
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from repro.kernels import Workspace
from repro.kernels.backends import (
    DEFAULT_BACKEND,
    available_backends,
    get_backend,
)
from repro.observability import append_record

KERNELS = ("GEQRT", "TSQRT", "UNMQR", "TSMQR")
TILE_SIZES = (8, 16, 32)
GATE_KERNELS = ("GEQRT", "TSQRT")
MIN_COMPILED_SPEEDUP = 1.3
ROUNDS = 7
#: Kernel-call repetitions per timed round, so a round is long enough
#: for ``perf_counter`` resolution at b=8.
CALLS_PER_ROUND = 50

TRAJECTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_backend_kernels.json"


def _kernel_thunk(backend, kernel: str, b: int, seed: int = 0):
    """A zero-argument callable running one ``kernel`` call at size ``b``.

    Inputs are preallocated outside the thunk; update kernels run in
    place on the same tiles (orthogonal transforms keep values bounded),
    so the timing covers kernel work only.
    """
    reference = get_backend(DEFAULT_BACKEND)
    rng = np.random.default_rng(seed)
    ws = Workspace()
    if kernel == "GEQRT":
        a = rng.standard_normal((b, b))
        return lambda: backend.geqrt(a)
    if kernel == "TSQRT":
        r1 = np.triu(rng.standard_normal((b, b)))
        a2 = rng.standard_normal((b, b))
        return lambda: backend.tsqrt(r1, a2)
    if kernel == "UNMQR":
        f = reference.geqrt(rng.standard_normal((b, b)))
        c = rng.standard_normal((b, 4 * b))
        return lambda: backend.unmqr(f, c, workspace=ws)
    if kernel == "TSMQR":
        f = reference.tsqrt(
            np.triu(rng.standard_normal((b, b))), rng.standard_normal((b, b))
        )
        c1 = rng.standard_normal((b, 4 * b))
        c2 = rng.standard_normal((b, 4 * b))
        return lambda: backend.tsmqr(f, c1, c2, workspace=ws)
    raise ValueError(f"unknown kernel {kernel!r}")


def _best_of(fn, rounds: int) -> float:
    """Best per-call seconds over ``rounds`` timed batches."""
    fn()  # warm BLAS, workspace, and any JIT compilation before timing
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        for _ in range(CALLS_PER_ROUND):
            fn()
        times.append((perf_counter() - t0) / CALLS_PER_ROUND)
    return min(times)


def bench_case(backend_name: str, kernel: str, b: int, rounds: int = ROUNDS) -> dict:
    """Time one backend/kernel/tile-size case against reference."""
    be_s = _best_of(_kernel_thunk(get_backend(backend_name), kernel, b), rounds)
    ref_s = _best_of(_kernel_thunk(get_backend(DEFAULT_BACKEND), kernel, b), rounds)
    return {
        "backend": backend_name,
        "kernel": kernel,
        "tile_size": b,
        "backend_seconds": be_s,
        "reference_seconds": ref_s,
        "speedup": ref_s / be_s if be_s > 0 else float("inf"),
    }


def append_trajectory(cases: list[dict], path: Path = TRAJECTORY_PATH) -> Path:
    """Append one run record to the shared perf-trajectory format."""
    return append_record(
        path,
        "backend_kernels",
        cases,
        extra={"min_compiled_speedup_gate": MIN_COMPILED_SPEEDUP},
    )


def compiled_backends() -> list[str]:
    return [n for n in available_backends() if get_backend(n).compiled]


def run(rounds: int = ROUNDS) -> list[dict]:
    """Sweep every registered backend, print, append to the trajectory."""
    results = [
        bench_case(name, kernel, b, rounds)
        for name in available_backends()
        if name != DEFAULT_BACKEND
        for kernel in KERNELS
        for b in TILE_SIZES
    ]
    for c in results:
        print(
            f"{c['backend']:10s} {c['kernel']:6s} b={c['tile_size']:<3d} "
            f"ref {c['reference_seconds'] * 1e6:8.2f} us  "
            f"backend {c['backend_seconds'] * 1e6:8.2f} us  "
            f"speedup {c['speedup']:.2f}x"
        )
    if not results:
        print("only the reference backend is registered; nothing to compare")
        return results
    out = append_trajectory(results)
    print(f"trajectory appended to {out}")
    return results


def test_compiled_backend_factorization_speedup(benchmark):
    """Gate: compiled backends beat reference >= 1.3x on GEQRT/TSQRT, b<=32."""
    compiled = compiled_backends()
    if not compiled:
        pytest.skip("no compiled backend registered")

    def gate_cases():
        return [
            bench_case(name, kernel, b)
            for name in compiled
            for kernel in GATE_KERNELS
            for b in TILE_SIZES
        ]

    cases = benchmark.pedantic(gate_cases, rounds=1, iterations=1)
    benchmark.extra_info["cases"] = cases
    append_trajectory(cases)
    slow = [c for c in cases if c["speedup"] < MIN_COMPILED_SPEEDUP]
    for c in cases:
        print(
            f"\n{c['backend']} {c['kernel']} b={c['tile_size']}: "
            f"{c['speedup']:.2f}x vs reference"
        )
    assert not slow, (
        f"compiled backend below the {MIN_COMPILED_SPEEDUP}x gate: "
        + ", ".join(
            f"{c['backend']}/{c['kernel']}/b={c['tile_size']}={c['speedup']:.2f}x"
            for c in slow
        )
    )


if __name__ == "__main__":
    run()
