"""Extension bench — host kernel autotuning (Song et al. [7] workflow)."""

from repro.experiments import autotune_host

from .conftest import run_experiment_benchmark


def test_autotune_host(benchmark, quick):
    result = run_experiment_benchmark(benchmark, autotune_host, quick)
    # The fitted device must show the Fig. 4 qualitative profile:
    # panel steps slower than updates on this host.
    dev = result.extra["device"]
    from repro.dag.tasks import Step

    panel = min(dev.time(Step.T, 16), dev.time(Step.E, 16))
    assert panel > max(dev.time(Step.UT, 16), dev.time(Step.UE, 16))
    assert result.extra["tuned_tile_size"] in (8, 16, 24, 32, 48, 64)
