"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "fig9" in out

    def test_plan(self, capsys):
        assert main(["plan", "640"]) == 0
        out = capsys.readouterr().out
        assert "main=gtx580-0" in out
        assert "selected" in out

    def test_plan_custom_tile(self, capsys):
        assert main(["plan", "640", "--tile-size", "32"]) == 0
        assert "b=32" in capsys.readouterr().out

    def test_experiment_quick(self, capsys):
        assert main(["experiment", "table1", "--quick"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "nope"]) == 2

    def test_factorize(self, capsys):
        assert main(["factorize", "96"]) == 0
        out = capsys.readouterr().out
        assert "||A - QR||/||A||" in out

    def test_factorize_too_large(self):
        assert main(["factorize", "99999"]) == 2

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_gantt(self, capsys):
        assert main(["gantt", "160", "--width", "40"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "T=triangulation" in out

    def test_gantt_too_large(self):
        assert main(["gantt", "99999"]) == 2

    def test_selfcheck(self, capsys):
        assert main(["selfcheck"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_experiment_out_json(self, capsys, tmp_path):
        out = tmp_path / "res.json"
        assert main(["experiment", "table1", "--quick", "--out", str(out)]) == 0
        import json

        data = json.loads(out.read_text())
        assert data[0]["name"] == "table1"
        assert data[0]["rows"]


class TestTraceCLI:
    def test_trace_record_and_summarize(self, capsys, tmp_path):
        out = tmp_path / "real.jsonl"
        assert main(["trace", "96", "--runtime", "serial", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "per-kernel time share" in text
        assert "critical path" in text
        assert "device utilization" in text
        assert "achieved GFLOP/s" in text
        assert out.exists()
        # summarize the file we just wrote
        assert main(["trace", str(out)]) == 0
        assert "per-kernel time share" in capsys.readouterr().out

    def test_trace_diff_against_simulation(self, capsys):
        assert main(["trace", "96", "--runtime", "threaded", "--diff"]) == 0
        text = capsys.readouterr().out
        assert "sim-vs-real prediction error" in text
        assert "task sets match" in text
        assert "GEQRT" in text

    def test_trace_diff_two_files(self, capsys, tmp_path):
        out = tmp_path / "real.jsonl"
        assert main(["trace", "64", "--runtime", "serial", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", str(out), "--diff", str(out)]) == 0
        text = capsys.readouterr().out
        assert "task sets match" in text

    def test_trace_file_diff_needs_operand(self, tmp_path, capsys):
        out = tmp_path / "real.jsonl"
        assert main(["trace", "64", "--runtime", "serial", "--out", str(out)]) == 0
        assert main(["trace", str(out), "--diff"]) == 2

    def test_trace_rejects_bad_target(self):
        assert main(["trace", "not-a-thing.jsonl"]) == 2

    def test_trace_rejects_huge_n(self):
        assert main(["trace", "99999"]) == 2


class TestPlanExplainCLI:
    def test_plan_explain(self, capsys):
        assert main(["plan", "2048", "--tile-size", "512", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "[main_device]" in out
        assert "[device_count]" in out
        assert "[distribution]" in out
        assert "margin" in out
        assert "candidates:" in out

    def test_plan_profile_store(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        store = tmp_path / "store.json"
        assert main(
            ["trace", "96", "--tile-size", "32", "--runtime", "threaded",
             "--workers", "2", "--out", str(trace), "--profile-out", str(store)]
        ) == 0
        capsys.readouterr()
        assert store.exists()
        assert main(
            ["plan", "96", "--tile-size", "32", "--profile", str(store), "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "using measured kernel times" in out
        assert "[main_device]" in out

    def test_plan_profile_missing_file(self, capsys, tmp_path):
        assert main(
            ["plan", "96", "--profile", str(tmp_path / "nope.json")]
        ) == 2


class TestTraceExportCLI:
    def test_trace_chrome_export(self, capsys, tmp_path):
        chrome = tmp_path / "chrome.json"
        assert main(
            ["trace", "64", "--runtime", "serial", "--chrome", str(chrome)]
        ) == 0
        assert "Chrome trace written" in capsys.readouterr().out
        import json

        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert any(e["cat"] == "T" for e in doc["traceEvents"])

    def test_trace_chrome_batch_args(self, tmp_path):
        chrome = tmp_path / "chrome.json"
        assert main(
            ["trace", "96", "--tile-size", "32", "--runtime", "serial",
             "--batch-updates", "--chrome", str(chrome)]
        ) == 0
        import json

        doc = json.loads(chrome.read_text())
        batched = [e for e in doc["traceEvents"] if "col_end" in e.get("args", {})]
        assert batched
        assert all(e["args"]["tiles"] == e["args"]["col_end"] - e["args"]["col"]
                   for e in batched)

    def test_trace_chrome_from_file(self, capsys, tmp_path):
        out = tmp_path / "t.jsonl"
        chrome = tmp_path / "c.json"
        assert main(["trace", "64", "--runtime", "serial", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", str(out), "--chrome", str(chrome)]) == 0
        assert chrome.exists()

    def test_trace_meta_provenance(self, tmp_path):
        import json

        out = tmp_path / "t.jsonl"
        assert main(
            ["trace", "64", "--runtime", "serial", "--out", str(out)]
        ) == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["type"] == "meta" and header["schema"] == 1
        for key in ("host", "grid", "elimination", "batch_updates", "runtime"):
            assert key in header

    def test_trace_meta_decisions_multiprocess(self, tmp_path):
        import json

        out = tmp_path / "t.jsonl"
        assert main(
            ["trace", "96", "--tile-size", "32", "--runtime", "multiprocess",
             "--out", str(out)]
        ) == 0
        header = json.loads(out.read_text().splitlines()[0])
        stages = [d["stage"] for d in header["decisions"]]
        assert "main_device" in stages and "device_count" in stages


class TestExitCodes:
    """Each failure class maps to its own documented exit code.

    The contract lives in docs/API.md: 0 ok, 1 unclassified failure,
    2 configuration, 4 numerical, 5 infrastructure (worker death /
    hang / timeout / injected fault), 130 interrupted.
    """

    def _plan(self, tmp_path, specs, seed=0):
        from repro.resilience import FaultPlan

        path = tmp_path / "plan.json"
        FaultPlan(specs, seed=seed).save(path)
        return str(path)

    def test_exit_code_constants(self):
        from repro.cli import (
            EXIT_CONFIG,
            EXIT_FAILURE,
            EXIT_INFRASTRUCTURE,
            EXIT_INTERRUPTED,
            EXIT_NUMERICAL,
            EXIT_OK,
        )

        codes = [EXIT_OK, EXIT_FAILURE, EXIT_CONFIG, EXIT_NUMERICAL,
                 EXIT_INFRASTRUCTURE, EXIT_INTERRUPTED]
        assert codes == [0, 1, 2, 4, 5, 130]
        assert len(set(codes)) == len(codes)

    def test_config_errors_exit_2(self, capsys):
        assert main(["factorize", "99999"]) == 2
        assert main(["chaos", "64", "--plan", "/no/such/plan.json"]) == 2
        capsys.readouterr()

    def test_injected_fault_exits_5(self, tmp_path, capsys):
        from repro.resilience import FaultKind, FaultSpec

        plan = self._plan(
            tmp_path,
            [FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", times=99)],
        )
        code = main([
            "chaos", "64", "--plan", plan,
            "--runtime", "serial", "--max-attempts", "2",
        ])
        capsys.readouterr()
        assert code == 5

    def test_numerical_fault_exits_4(self, tmp_path, capsys):
        from repro.resilience import FaultKind, FaultSpec

        plan = self._plan(
            tmp_path,
            [FaultSpec(FaultKind.CORRUPT_NAN, task_kind="GEQRT", times=99)],
        )
        code = main([
            "chaos", "64", "--plan", plan,
            "--runtime", "serial", "--max-attempts", "2", "--health-checks",
        ])
        capsys.readouterr()
        assert code == 4

    def test_postmortem_exit_codes(self, tmp_path, capsys):
        from repro.resilience import FaultKind, FaultSpec

        plan = self._plan(
            tmp_path,
            [FaultSpec(FaultKind.EXCEPTION, task_kind="GEQRT", times=99)],
        )
        bundle = tmp_path / "fail.zip"
        assert main([
            "chaos", "64", "--plan", plan,
            "--runtime", "serial", "--max-attempts", "2",
            "--bundle-out", str(bundle),
        ]) == 5
        assert bundle.is_file()
        assert main(["postmortem", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "injected-fault" in out
        junk = tmp_path / "junk.zip"
        junk.write_text("not a bundle")
        assert main(["postmortem", str(junk)]) == 2
        capsys.readouterr()
