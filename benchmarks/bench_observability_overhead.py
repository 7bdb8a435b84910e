"""Telemetry overhead: disabled must be free, live must be cheap.

Acceptance gates for the observability layer, on a 512 x 512
``ThreadedRuntime.factorize`` (best-of-N to damp scheduler noise, plus
a small absolute epsilon so the gates are meaningful on fast machines):

* a *disabled* tracer attached to the runtime stays within 3% of the
  untraced wall-time (per-tile tasks, tile 32) — observability must
  cost nothing when off;
* the full *live telemetry* pipeline (TelemetryBus + ProgressTracker +
  StragglerDetector + streaming JSONL sink) stays within 5% on the
  batched-updates path (tile 64) — the production-representative task
  granularity (docs/PERFORMANCE.md), and the event-volume shape the
  multiprocess runtime produces.

Live telemetry costs ~10 us of dispatcher-thread work per event
(publish + fold + encode + write), so its overhead scales with the
*event rate*, not the compute: per-tile streams on toy-sized tiles
publish thousands of sub-millisecond tasks and can cost well over the
budget on a saturated machine.  That fine-grained mode is measured and
reported here too, but informationally: no assert covers it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.observability import (
    JsonlStreamSink,
    ProgressTracker,
    StragglerDetector,
    TelemetryBus,
    Tracer,
)
from repro.runtime.threaded import ThreadedRuntime

N = 512
TILE = 32
#: Tile size of the gated live-telemetry case (batched updates).
LIVE_TILE = 64
WORKERS = 4
ROUNDS = 5
#: Relative + absolute tolerance of the disabled-tracer gate.
MAX_OVERHEAD = 0.03
#: Relative tolerance of the full live-telemetry pipeline.
MAX_LIVE_OVERHEAD = 0.05
ABS_EPS_SECONDS = 0.005


def _best_of(fn, rounds: int = ROUNDS) -> float:
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def _live_factorize(a, tile: int, batch: bool, stream: Path) -> int:
    """One factorization with the full live pipeline; returns events written."""
    bus = TelemetryBus()
    ProgressTracker().attach(bus)
    StragglerDetector().attach(bus)
    sink = JsonlStreamSink(stream, append=False).attach(bus)
    try:
        ThreadedRuntime(WORKERS, batch_updates=batch, bus=bus).factorize(a, tile)
    finally:
        sink.close()
        bus.close()
    return sink.written


def test_disabled_tracer_overhead(benchmark):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((N, N))
    untraced = ThreadedRuntime(WORKERS)
    disabled = ThreadedRuntime(WORKERS, tracer=Tracer(enabled=False))
    enabled_tracer = Tracer()
    enabled = ThreadedRuntime(WORKERS, tracer=enabled_tracer)

    # Warm NumPy/BLAS and the thread machinery before timing anything.
    untraced.factorize(a, TILE)
    disabled.factorize(a, TILE)

    # Interleave the variants so slow machine-state drift (frequency
    # scaling, co-tenants) hits every side equally instead of biasing
    # whichever was measured last.
    t_untraced = t_disabled = t_enabled = float("inf")
    for _ in range(2 * ROUNDS):
        t0 = perf_counter()
        untraced.factorize(a, TILE)
        t_untraced = min(t_untraced, perf_counter() - t0)
        t0 = perf_counter()
        disabled.factorize(a, TILE)
        t_disabled = min(t_disabled, perf_counter() - t0)
        t0 = perf_counter()
        enabled.factorize(a, TILE)
        t_enabled = min(t_enabled, perf_counter() - t0)
    overhead = t_disabled / t_untraced - 1.0

    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "live.jsonl"

        # -- gated live case: batched updates, coarse tasks ---------------
        # Interleave baseline/live rounds so slow machine-state drift
        # (frequency scaling, co-tenants) hits both sides equally.
        batched = ThreadedRuntime(WORKERS, batch_updates=True)
        batched.factorize(a, LIVE_TILE)
        live_events = _live_factorize(a, LIVE_TILE, True, stream)  # warm-up
        t_batched = t_live = float("inf")
        for _ in range(2 * ROUNDS):
            t0 = perf_counter()
            batched.factorize(a, LIVE_TILE)
            t_batched = min(t_batched, perf_counter() - t0)
            t0 = perf_counter()
            _live_factorize(a, LIVE_TILE, True, stream)
            t_live = min(t_live, perf_counter() - t0)

        # -- informational live case: per-tile fine-grained stream --------
        t_live_fine = _best_of(lambda: _live_factorize(a, TILE, False, stream))
        fine_events = _live_factorize(a, TILE, False, stream)
    live_overhead = t_live / t_batched - 1.0
    fine_overhead = t_live_fine / t_untraced - 1.0

    disabled_ok = t_disabled <= t_untraced * (1.0 + MAX_OVERHEAD) + ABS_EPS_SECONDS
    live_ok = t_live <= t_batched * (1.0 + MAX_LIVE_OVERHEAD) + ABS_EPS_SECONDS

    benchmark.extra_info["n"] = N
    benchmark.extra_info["tile_size"] = TILE
    benchmark.extra_info["untraced_seconds"] = t_untraced
    benchmark.extra_info["disabled_tracer_seconds"] = t_disabled
    benchmark.extra_info["enabled_tracer_seconds"] = t_enabled
    benchmark.extra_info["live_telemetry_seconds"] = t_live
    benchmark.extra_info["disabled_overhead"] = overhead
    benchmark.extra_info["enabled_overhead"] = t_enabled / t_untraced - 1.0
    benchmark.extra_info["live_overhead"] = live_overhead
    benchmark.extra_info["live_fine_overhead"] = fine_overhead
    print(
        f"\nuntraced {t_untraced * 1e3:.1f} ms | disabled tracer "
        f"{t_disabled * 1e3:.1f} ms ({overhead:+.2%}) | enabled tracer "
        f"{t_enabled * 1e3:.1f} ms ({t_enabled / t_untraced - 1.0:+.2%})"
    )
    print(
        f"live (batched, tile {LIVE_TILE}, {live_events} events): "
        f"{t_batched * 1e3:.1f} -> {t_live * 1e3:.1f} ms ({live_overhead:+.2%}) | "
        f"live (per-tile, tile {TILE}, {fine_events} events): "
        f"{t_untraced * 1e3:.1f} -> {t_live_fine * 1e3:.1f} ms "
        f"({fine_overhead:+.2%}, informational)"
    )

    benchmark.pedantic(
        lambda: disabled.factorize(a, TILE), rounds=1, iterations=1
    )

    assert disabled_ok, (
        f"disabled tracer costs {overhead:+.2%} "
        f"(budget {MAX_OVERHEAD:.0%} + {ABS_EPS_SECONDS * 1e3:.0f} ms)"
    )
    assert live_ok, (
        f"live telemetry pipeline costs {live_overhead:+.2%} "
        f"(budget {MAX_LIVE_OVERHEAD:.0%} + {ABS_EPS_SECONDS * 1e3:.0f} ms)"
    )
