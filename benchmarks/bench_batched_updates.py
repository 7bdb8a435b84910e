"""Batched vs per-tile trailing-matrix update throughput.

Measures the update phase of one panel step (the hot loop of tiled QR:
one UNMQR row plus the full TSMQR trailing block) two ways on the same
data:

* **per-tile** — the classic one-kernel-per-tile loop over a
  list-of-arrays :class:`~repro.tiles.TiledMatrix`;
* **batched** — the coarsened row-panel kernels
  (:func:`~repro.kernels.unmqr_batch` / :func:`~repro.kernels.tsmqr_batch`)
  over row-major tile storage, where each panel is a zero-copy view.

Both paths reuse one :class:`~repro.kernels.Workspace`, so the measured
difference is purely GEMM width and call count.  Updates apply
orthogonal transforms, so repeating them on the same tiles keeps values
bounded and timings data-independent — no per-round copies are timed.

Acceptance gate: ``>= 1.5x`` update-phase speedup at tile size <= 64 on
a >= 8x8 tile grid, asserted by the pytest case; the script prints a
wider sweep::

    python benchmarks/bench_batched_updates.py            # full sweep
    pytest benchmarks/bench_batched_updates.py            # gate case only
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.kernels import Workspace, geqrt, tsmqr, tsmqr_batch, tsqrt, unmqr, unmqr_batch
from repro.tiles import TiledMatrix

#: Gate case (grid >= 8x8, tile <= 64) and its required speedup.  Small
#: tiles are where batching matters most (call overhead dominates), and
#: the margin there (~4x) keeps the gate robust to machine noise.
GATE_GRID = 8
GATE_TILE = 16
MIN_SPEEDUP = 1.5
ROUNDS = 7


def _setup(t: int, b: int, seed: int = 0):
    """Panel-0 factors plus the trailing submatrix in both storage modes."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((t * b, t * b))
    per_tile = TiledMatrix.from_dense(a, b)
    row_major = TiledMatrix.from_dense(a, b, storage="rowmajor")
    fg = geqrt(per_tile.tile(0, 0).copy())
    fes = []
    top = fg.r.copy()
    for i in range(1, t):
        fe = tsqrt(top, per_tile.tile(i, 0).copy())
        top = fe.r.copy()
        fes.append((i, fe))
    return per_tile, row_major, fg, fes


def _per_tile_pass(tiles: TiledMatrix, fg, fes, ws: Workspace, t: int) -> None:
    for j in range(1, t):
        unmqr(fg, tiles.tile(0, j), workspace=ws)
    for i, fe in fes:
        for j in range(1, t):
            tsmqr(fe, tiles.tile(0, j), tiles.tile(i, j), workspace=ws)


def _batched_pass(tiles: TiledMatrix, fg, fes, ws: Workspace, t: int) -> None:
    panel = tiles.row_panel(0, 1, t)
    unmqr_batch(fg, panel, workspace=ws)
    tiles.scatter_row_panel(0, 1, t, panel)
    for i, fe in fes:
        top = tiles.row_panel(0, 1, t)
        bot = tiles.row_panel(i, 1, t)
        tsmqr_batch(fe, top, bot, workspace=ws)
        tiles.scatter_row_panel(0, 1, t, top)
        tiles.scatter_row_panel(i, 1, t, bot)


def _best_of(fn, rounds: int) -> float:
    fn()  # warm BLAS + workspace before timing
    times = []
    for _ in range(rounds):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def bench_case(t: int, b: int, rounds: int = ROUNDS, seed: int = 0) -> dict:
    """Time one ``t x t``-grid, ``b x b``-tile update phase both ways."""
    per_tile, row_major, fg, fes = _setup(t, b, seed)
    ws = Workspace()
    per_s = _best_of(lambda: _per_tile_pass(per_tile, fg, fes, ws, t), rounds)
    bat_s = _best_of(lambda: _batched_pass(row_major, fg, fes, ws, t), rounds)
    return {
        "grid": t,
        "tile_size": b,
        "per_tile_seconds": per_s,
        "batched_seconds": bat_s,
        "speedup": per_s / bat_s if bat_s > 0 else float("inf"),
    }


def run(cases=((8, 16), (8, 32), (8, 64), (12, 32)), rounds: int = ROUNDS) -> list[dict]:
    """Run a sweep and print it."""
    results = [bench_case(t, b, rounds) for t, b in cases]
    for c in results:
        print(
            f"grid {c['grid']:3d}x{c['grid']:<3d} b={c['tile_size']:<3d} "
            f"per-tile {c['per_tile_seconds'] * 1e3:8.3f} ms  "
            f"batched {c['batched_seconds'] * 1e3:8.3f} ms  "
            f"speedup {c['speedup']:.2f}x"
        )
    return results


def test_batched_update_speedup(benchmark):
    """Gate: batching the gate case is >= 1.5x faster."""
    case = benchmark.pedantic(
        bench_case, args=(GATE_GRID, GATE_TILE), rounds=1, iterations=1
    )
    benchmark.extra_info.update(case)
    print(
        f"\ngrid {case['grid']}x{case['grid']} b={case['tile_size']}: "
        f"per-tile {case['per_tile_seconds'] * 1e3:.3f} ms, "
        f"batched {case['batched_seconds'] * 1e3:.3f} ms, "
        f"speedup {case['speedup']:.2f}x"
    )
    assert case["speedup"] >= MIN_SPEEDUP, (
        f"batched update phase is only {case['speedup']:.2f}x faster "
        f"(gate {MIN_SPEEDUP}x at b={GATE_TILE}, grid {GATE_GRID}x{GATE_GRID})"
    )


if __name__ == "__main__":
    run()
