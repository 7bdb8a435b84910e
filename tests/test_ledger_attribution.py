"""The layer ledger's DAG attribution keeps seeing the DAG.

``benchmarks/ledger/spans.py`` times DAG construction from outside: it
wraps ``build_dag`` on ``repro.runtime.serial``, ``repro.runtime.threaded``
and ``repro.dag``, reads the task count (hence
``runtime.self_per_task_us``) from the wrapped call's return value, and
wraps ``bottom_level_ranks`` on the two runtime modules and
``repro.dag.analysis``.  A runtime that stopped looking ``build_dag`` up
through those module attributes would leave ``dag.tasks`` reading 0
without any other test failing.
"""

import numpy as np
import pytest

import repro.dag
import repro.dag.analysis
import repro.runtime.serial as serial
import repro.runtime.threaded as threaded
from repro.runtime.multiprocess import MultiprocessRuntime

N, B = 64, 16


def _count_builds(monkeypatch, modules):
    """Wrap ``build_dag`` on each module; returns the (module, DAG) log."""
    calls = []
    for mod in modules:

        def counting(*args, _build=mod.build_dag, _name=mod.__name__, **kwargs):
            dag = _build(*args, **kwargs)
            calls.append((_name, dag))
            return dag

        monkeypatch.setattr(mod, "build_dag", counting)
    return calls


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize(
    "make", [serial.SerialRuntime, lambda **kw: threaded.ThreadedRuntime(2, **kw)],
    ids=["serial", "threaded"],
)
def test_factorize_builds_the_dag_through_the_module_attribute(monkeypatch, make, batch):
    calls = _count_builds(monkeypatch, (serial, threaded))
    runtime = make(batch_updates=batch)
    a = np.random.default_rng(3).standard_normal((N, N))
    expected = len(repro.dag.build_dag(N // B, N // B, "TS", batch).tasks)
    for n_calls in (1, 2):  # a cache hit still goes through the attribute
        runtime.factorize(a.copy(), B)
        assert len(calls) == n_calls
        assert len(calls[-1][1].tasks) == expected > 0


def test_multiprocess_builds_the_dag_through_repro_dag(monkeypatch, optimizer):
    plan = optimizer.plan(matrix_size=N, num_devices=2)  # plans build DAGs too
    expected = len(repro.dag.build_dag(N // B, N // B).tasks)
    calls = _count_builds(monkeypatch, (repro.dag,))
    MultiprocessRuntime(plan).factorize(np.random.default_rng(4).standard_normal((N, N)), B)
    assert [len(dag.tasks) for _, dag in calls] == [expected]


@pytest.mark.parametrize("module", [serial, threaded, repro.dag.analysis])
def test_bottom_level_ranks_stays_importable_where_the_ledger_patches_it(module):
    assert module.bottom_level_ranks is repro.dag.analysis.bottom_level_ranks
