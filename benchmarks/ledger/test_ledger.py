"""Smoke test of the ledger at tiny sizes.

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from benchmarks.ledger import compare, measure, run, spec, workloads  # noqa: E402

RUN = ["benchmarks/ledger/run.py", "--tiny", "--seconds", "0.3", "--seed", "0"]
SPEC = spec.load()


def run_ledger(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, *extra], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_printed(proc: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    for w in SPEC["workloads"]:
        for m in metrics:
            got = last["metrics"][f"{w['name']}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            assert any(l.split()[:1] == [m["name"]] and m["unit"] in l.split() for l in lines)
    return last


def test_every_workload_prints_end_to_end_metrics(tmp_path):
    proc = run_ledger("--out-dir", str(tmp_path))
    check_printed(proc, SPEC["end_to_end"])
    result = json.loads((tmp_path / "all-seed0.json").read_text())
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for r in result["workloads"].values():
        assert r["failed_frac"] == 0.0
        assert r["provenance"]["numpy"]


def test_traced_run_writes_trace_and_layer_metrics(tmp_path):
    proc = run_ledger("--trace", "1", "--out-dir", str(tmp_path))
    check_printed(proc, SPEC["per_layer"])
    for w in SPEC["workloads"]:
        records = [
            json.loads(line)
            for line in (tmp_path / f"{w['name']}.trace.jsonl").read_text().splitlines()
        ]
        assert any(r["name"].startswith("kernels.") for r in records)
        assert all(r["self_s"] >= 0.0 for r in records)
        assert {r["role"] for r in records} == {"program", "serial", "setup"}


def test_perturbed_r_is_counted_as_failed():
    class PerturbedR(workloads.FineSerial):
        def call(self, plan, inputs):
            f = super().call(plan, inputs)
            f.r.tile(0, 0)[0, 1] += 1.0
            return f

    class Raising(workloads.FineSerial):
        def call(self, plan, inputs):
            raise RuntimeError("injected")

    for cls in (PerturbedR, Raising):
        wl = cls("fine-serial", *workloads.TINY["fine-serial"], lapack_reps=1)
        metrics, checker, _ = measure.measure_untraced(wl, wl.inputs(0), seconds=0.0)
        assert checker.attempted > measure.MIN_CALLS
        assert checker.failed == checker.attempted
        assert "backward_error_neps" not in metrics


@pytest.mark.parametrize("failed, cross_check", [(1, []), (0, ["call 1 (program): ..."])])
def test_run_exits_nonzero_when_a_result_is_incorrect(tmp_path, monkeypatch, capsys,
                                                      failed, cross_check):
    def fake_workload(name, args, env, root):
        return {
            "workload": name, "shape": [64, 64], "tile": 16, "correct": False,
            "attempted": 2, "failed": failed, "failed_frac": failed / 2,
            "cross_check": cross_check,
            "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"], "samples": 1}
                        for m in SPEC["end_to_end"]},
        }

    monkeypatch.setattr(run, "run_workload", fake_workload)
    assert run.main(["--workload", "fine-serial", "--out-dir", str(tmp_path)]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == failed


def test_span_count_cross_check_flags_a_kernel_outside_the_dag(tmp_path):
    class ExtraKernel(workloads.FineSerial):
        def call(self, plan, inputs):
            from repro.kernels.backends import get_backend

            get_backend("reference").geqrt(inputs["A"][:16, :16].copy())
            return super().call(plan, inputs)

    wl = ExtraKernel("fine-serial", *workloads.TINY["fine-serial"], lapack_reps=1)
    _, checker, problems = measure.measure_traced(wl, wl.inputs(0), 0.0, tmp_path)
    assert checker.failed == 0
    assert problems and all("(program)" in p for p in problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger", tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "fine-serial",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize(
    "parent, change, status",
    [
        ([1.0] * 10, [1.3] * 10, "REGRESSED"),
        ([1.0] * 10, [1.05] * 10, "ok"),
        ([1.0, 1.01] * 5, [0.8, 0.81] * 5, "improved"),
        ([1.0, 2.0] * 5, [1.1, 2.1] * 5, "unresolved"),
        ([1.0, 2.0] * 5, [2.5, 3.0] * 5, "REGRESSED"),
        ([1.0, 2.0] * 5, [0.5, 0.9] * 5, "better"),
    ],
)
def test_compare_applies_bound_and_pair_rule(parent, change, status):
    assert compare.compare_metric(parent, change, True, bound=0.1)["status"] == status
