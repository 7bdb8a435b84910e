"""Measure one workload in this process: ``python -m benchmarks.ledger.measure``.

:mod:`.run` starts this module in a fresh interpreter per workload, with
the BLAS thread variables removed from its environment, and reads the
result file it writes.  Every load is a closed loop with one client: the
next call is issued only when the previous one has returned.

Both modes first make untimed calls for ``WARMUP_SHARE`` of
``--seconds``, then measure for ``--seconds``:

* Untraced (``--trace 0``): program calls, each followed by
  ``lapack_reps`` timed LAPACK calls on the same array; then the set-up
  probe.
* Traced (``--trace 1``): per iteration one untraced call, one traced
  call, and one traced serial-runtime call on the same matrix (the base
  of ``kernels.inflation`` and ``runtime.parallel_speedup``).

Every program call is checked against LAPACK; a call that raises or
fails the check is counted in ``failed`` and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from . import spans as spans_mod
from . import workloads

#: Program calls made even when ``--seconds`` has already run out, so
#: every quantile has samples.
MIN_CALLS = 5
#: Untimed calls first, for this share of ``--seconds``: a fresh process
#: runs its first seconds measurably slower.
WARMUP_SHARE = 0.15
#: Fresh interpreters timed for ``setup_s``.
SETUP_RUNS = 9
SETUP_RUNS_TINY = 3

# Timed in a fresh interpreter: import, the workload's plan, one small call.
_PROBE = """
import sys, time
t0 = time.perf_counter()
import repro
from benchmarks.ledger import workloads
wl = workloads.get(sys.argv[1], tiny=sys.argv[2] == "1")
plan = wl.prepare()
edge = workloads.SETUP_EDGE
wl.call(plan, wl.inputs(0, (edge, edge)))
print(time.perf_counter() - t0)
"""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Checker:
    """Runs program calls and counts the ones that raise or disagree
    with LAPACK."""

    def __init__(self, wl, inputs):
        self.wl = wl
        self.inputs = inputs
        self.reference = wl.lapack(inputs)
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.last = None

    def run(self, call) -> float | None:
        """Time ``call()``; the seconds it took, or ``None`` if it raised."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = call()
        except Exception:  # a failing call is counted, not fatal
            self.failed += 1
            log(traceback.format_exc())
            return None
        elapsed = perf_counter() - t0
        try:
            err = self.wl.error(out, self.reference)
        except Exception:
            err = float("inf")
            log(traceback.format_exc())
        if not err <= workloads.RTOL:
            self.failed += 1
            log(f"{self.wl.name}: result differs from LAPACK by {err:.3e}")
        else:
            self.first = self.first if self.first is not None else out
            self.last = out
        return elapsed

    def backward_error(self) -> float | None:
        """Max backward error over the first and last checked call."""
        if self.first is None:
            return None
        a = self.inputs["A"]
        return max(
            workloads.backward_error(self.wl.factorization(out, self.inputs), a)
            for out in {id(self.first): self.first, id(self.last): self.last}.values()
        )


def setup_times(name: str, tiny: bool, root: Path) -> list[float]:
    out = []
    for _ in range(SETUP_RUNS_TINY if tiny else SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, name, "1" if tiny else "0"],
            cwd=root, env=os.environ.copy(), capture_output=True, text=True,
            timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def closed_loop(seconds: float, min_calls: int, body) -> None:
    """Run ``body`` back to back for ``seconds``, at least ``min_calls`` times."""
    end = perf_counter() + seconds
    done = 0
    while done < min_calls or perf_counter() < end:
        body()
        done += 1


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def measure_untraced(wl, inputs, seconds: float) -> tuple[dict, Checker, dict]:
    """End-to-end metrics, the checker, and the raw timings."""
    plan = wl.prepare()
    checker = Checker(wl, inputs)
    wall: list[float] = []
    lapack: list[float] = []

    def iteration(wall_sink: list[float], lapack_sink: list[float]) -> None:
        elapsed = checker.run(lambda: wl.call(plan, inputs))
        if elapsed is not None:
            wall_sink.append(elapsed)
        for _ in range(wl.lapack_reps):
            t0 = perf_counter()
            wl.lapack(inputs)
            lapack_sink.append(perf_counter() - t0)

    closed_loop(WARMUP_SHARE * seconds, 1, lambda: iteration([], []))
    closed_loop(seconds, MIN_CALLS, lambda: iteration(wall, lapack))
    # Forked multiprocess workers hold tiles and factors of their own;
    # read before the set-up probes add children of the benchmark's.
    rss_mb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    out = {"peak_rss_mb": metric(rss_mb, "MB", 1)}
    if wall:
        _, p50, p75 = quartiles(wall)
        out["wall_s_p50"] = metric(p50, "s", len(wall))
        out["wall_s_p75"] = metric(p75, "s", len(wall))
        out["vs_lapack_p50"] = metric(
            p50 / statistics.median(lapack), "x", min(len(wall), len(lapack))
        )
        out["lapack_s_p50"] = metric(statistics.median(lapack), "s", len(lapack))
    berr = checker.backward_error()
    if berr is not None:
        out["backward_error_neps"] = metric(berr, "n_eps", 2)
    return out, checker, {"wall_s": wall, "lapack_s": lapack}


def measure_traced(wl, inputs, seconds: float, out_dir: Path) -> tuple[dict, Checker, list[str]]:
    """Per-layer metrics plus the span-count cross-check's complaints."""
    from repro.dag import build_dag

    rec = spans_mod.Recorder(out_dir)
    root_name = "linalg.lstsq" if isinstance(wl, workloads.TallLstsq) else "runtime.factorize"
    with spans_mod.instrument(rec):
        with rec.scope("core.prepare", "setup"):
            plan = wl.prepare()
    workers = wl.workers(plan)
    checker = Checker(wl, inputs)

    def traced_call():
        with rec.scope(root_name, "program"):
            return wl.call(plan, inputs)

    untraced: list[float] = []

    def iteration() -> None:
        elapsed = checker.run(lambda: wl.call(plan, inputs))
        if elapsed is not None:
            untraced.append(elapsed)
        with spans_mod.instrument(rec):
            # Checked outside the scope, so the check leaves no spans.
            checker.run(traced_call)
            with rec.scope("runtime.factorize", "serial"):
                wl.serial_reference(inputs)
            with rec.scope("core.prepare", "setup"):
                wl.prepare()

    closed_loop(WARMUP_SHARE * seconds, 1, lambda: checker.run(lambda: wl.call(plan, inputs)))
    closed_loop(seconds, MIN_CALLS, iteration)

    expected = Counter(t.kind.name for t in build_dag(*wl.grid(), "TS").tasks)
    problems = []
    per_role: dict[str, list[dict]] = {"program": [], "serial": [], "setup": []}
    for call, call_spans in sorted(rec.by_call().items()):
        role = rec.roles[call]
        if role != "setup":
            got = spans_mod.kernel_counts(call_spans)
            if got != expected:
                problems.append(
                    f"call {call} ({role}): kernel spans {dict(got)} != "
                    f"DAG tasks {dict(expected)}"
                )
            call_workers = workers if role == "program" else 1
            per_role[role].append(spans_mod.call_metrics(call_spans, call_workers, wl.tile))
        else:
            per_role[role].append({"core.plan_s": sum(
                s.end - s.start for s in call_spans if s.name == "core.plan"
            )})
    rec.write_jsonl(out_dir / f"{wl.name}.trace.jsonl")

    program, serial = per_role["program"], per_role["serial"]

    def med(rows: list[dict], key: str) -> float:
        return statistics.median(r.get(key, 0.0) for r in rows)

    units = {
        "calls": "count", "busy_s": "s", "gflops": "GFLOP/s", "share": "fraction",
        "tasks": "count", "bytes_in": "B", "self_per_task_us": "us",
        "ipc_messages": "count", "ipc_bytes": "B",
    }
    out = {}
    for key in sorted({k for r in program for k in r}):
        unit = units.get(key.rsplit(".", 1)[-1], "s")
        out[key] = metric(med(program, key), unit, len(program))
    out["kernels.inflation"] = metric(
        med(program, "kernels.busy_s") / med(serial, "kernels.busy_s"), "x", len(program)
    )
    out["runtime.parallel_speedup"] = metric(
        med(serial, "factorize_s") / med(program, "factorize_s"), "x", len(program)
    )
    out["trace.overhead"] = metric(
        med(program, "wall_s") / statistics.median(untraced) - 1.0, "fraction", len(program)
    )
    out["core.plan_s"] = metric(med(per_role["setup"], "core.plan_s"), "s", len(per_role["setup"]))
    return out, checker, problems


def cache_sizes() -> dict:
    sizes = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=5)
            sizes[level] = int(proc.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            sizes[level] = None
    return sizes


def provenance() -> dict:
    import platform

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cache_bytes": cache_sizes(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out", type=Path, required=True, help="result JSON path")
    args = p.parse_args(argv)

    wl = workloads.get(args.workload, args.tiny)
    inputs = wl.inputs(args.seed)
    problems: list[str] = []
    raw: dict = {}
    if args.trace:
        metrics, checker, problems = measure_traced(wl, inputs, args.seconds, args.out.parent)
    else:
        metrics, checker, raw = measure_untraced(wl, inputs, args.seconds)
        setup = setup_times(wl.name, args.tiny, Path.cwd())
        metrics["setup_s"] = metric(statistics.median(setup), "s", len(setup))
    result = {
        "workload": wl.name,
        "shape": [wl.m, wl.n],
        "tile": wl.tile,
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_frac": checker.failed / checker.attempted,
        "cross_check": problems,
        "metrics": metrics,
        "provenance": provenance(),
        "raw": raw,
    }
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
