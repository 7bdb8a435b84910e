"""Shared benchmark configuration.

Most ``bench_*`` modules regenerate one paper table/figure by calling
the matching :mod:`repro.experiments` driver through
:func:`run_experiment_benchmark`.  The regenerated rows are attached to
the benchmark's ``extra_info`` and printed, so ``pytest benchmarks/
--benchmark-only -s`` reproduces the paper's evaluation section in one
go.  The others time the real numeric runtimes instead
(``bench_numeric_factorization``, ``bench_batched_updates``,
``bench_observability_overhead``); the last two assert their speedup and
overhead gates in place.  The repo's performance record is the layer
ledger in ``benchmarks/ledger/``.

Set ``REPRO_BENCH_FULL=1`` to run the paper's full sweeps (matrix sizes
up to 16000); the default quick sweeps keep the whole harness under a
few minutes.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def quick() -> bool:
    """False when REPRO_BENCH_FULL=1 (full paper sweeps)."""
    return os.environ.get("REPRO_BENCH_FULL", "") != "1"


def run_experiment_benchmark(benchmark, module, quick: bool):
    """Run one experiment driver under pytest-benchmark and report it."""
    result = benchmark.pedantic(module.run, kwargs={"quick": quick}, rounds=1, iterations=1)
    benchmark.extra_info["experiment"] = result.name
    benchmark.extra_info["paper_expectation"] = result.paper_expectation
    benchmark.extra_info["observations"] = result.observations
    benchmark.extra_info["rows"] = [[str(v) for v in row] for row in result.rows]
    print()
    print(result.to_text())
    return result
