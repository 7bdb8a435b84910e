"""Autotuning: build a device model by measuring real kernels.

The paper contrasts its "mathematical" optimization with Song et al.'s
auto-tuning [7], which profiles a small run to pick parameters.  Both
need the same inputs — per-step kernel times — and this module closes
the loop for the machine the library runs on: it runs traced serial
factorizations across tile sizes, folds the traces into a
:class:`~repro.observability.profile.ProfileStore`, and turns the
store's ``overhead + flops/rate`` fit into a
:class:`~repro.devices.model.DeviceSpec` usable everywhere a calibrated
paper device is.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import DeviceError
from .model import DeviceKind, DeviceSpec

#: Tiles per side of the matrix each measured factorization runs on.
GRID = 4


def measure_host_kernels(tile_sizes: list[int], seed: int = 0):
    """Profile the real tile kernels on this host into a ``ProfileStore``.

    Per tile size ``b`` one traced :class:`~repro.runtime.serial.SerialRuntime`
    factorization of a random ``GRID*b`` square matrix is ingested, so
    ``store.step_measurements("serial")`` holds each step's mean per-call
    seconds and ``store.to_timing_model("serial")`` its fitted model.
    """
    from ..observability import ProfileStore, Tracer
    from ..runtime.serial import SerialRuntime

    if not tile_sizes or any(b < 2 for b in tile_sizes):
        raise DeviceError("need tile sizes >= 2 to profile")
    rng = np.random.default_rng(seed)
    # Warm imports, the allocator and BLAS outside the measured runs.
    SerialRuntime().factorize(rng.standard_normal((2 * tile_sizes[0],) * 2), tile_sizes[0])
    store = ProfileStore()
    for b in tile_sizes:
        tracer = Tracer()
        SerialRuntime(tracer=tracer).factorize(rng.standard_normal((GRID * b, GRID * b)), b)
        store.ingest_trace(tracer.to_trace(), tile_size=b)
    return store


def autotune_host_device(
    device_id: str = "host-cpu",
    tile_sizes: list[int] | None = None,
    slots: int | None = None,
) -> DeviceSpec:
    """Profile this host's kernels and return a fitted DeviceSpec."""
    sizes = tile_sizes if tile_sizes is not None else [8, 16, 24, 32, 48, 64]
    store = measure_host_kernels(sizes)
    cores = os.cpu_count() or 1
    return DeviceSpec(
        device_id=device_id,
        name="Autotuned host CPU",
        kind=DeviceKind.CPU,
        cores=cores,
        slots=slots if slots is not None else cores,
        timing=store.to_timing_model("serial"),
    )


def tuned_tile_size(
    system,
    matrix_size: int,
    candidates: list[int] | None = None,
) -> int:
    """Song-et-al-style tuning: pick the tile size minimizing simulated
    time for the given system and matrix size."""
    from ..core.optimizer import Optimizer
    from ..sim.iteration import simulate_iteration_level

    cands = candidates if candidates is not None else [8, 12, 16, 20, 24, 32]
    opt = Optimizer(system)
    best_b, best_t = None, float("inf")
    for b in cands:
        g = -(-matrix_size // b)
        plan = opt.plan(matrix_size=matrix_size, tile_size=b)
        t = simulate_iteration_level(plan, g, g, system, opt.topology).makespan
        if t < best_t:
            best_b, best_t = b, t
    return best_b
