"""Performance-regression tracking over ``BENCH_*.json`` trajectories.

The benchmarks append one *record* per invocation
to a JSON trajectory file at the repo root::

    [
      {"benchmark": "batched_updates", "timestamp": "...",
       "python": "...", "numpy": "...", "cases": [{...}, ...]},
      ...
    ]

Each case is identified by its *key fields* (e.g. ``grid`` +
``tile_size``) and carries one *gated metric* (e.g. ``speedup``).
:func:`compare_trajectory` pits the newest record's cases against the
baseline built from all earlier records with the same key — the median,
so one lucky or unlucky historical point cannot move the bar — and
flags any gated metric that moved beyond the threshold in the bad
direction.  ``tiledqr perf --check`` turns that into an exit code for
CI; ``tiledqr perf`` prints the delta table.

Runs are machine-dependent, so trajectories mix hosts; the comparison
is deliberately coarse (20% default threshold) and the intended
workflow is to commit points from the same class of machine.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ObservabilityError

#: Default relative change that counts as a regression.
DEFAULT_THRESHOLD = 0.20


@dataclass(frozen=True)
class GatedMetric:
    """What to gate in a benchmark's cases.

    Attributes
    ----------
    metric:
        Case field compared across records.
    higher_is_better:
        Direction: ``True`` gates drops (speedups), ``False`` gates
        rises (seconds).
    case_keys:
        Case fields identifying "the same case" across records.
    """

    metric: str
    higher_is_better: bool
    case_keys: tuple[str, ...]


#: Known benchmarks and their gates.  Unknown benchmark names are
#: reported informationally but never gate.
GATES: dict[str, GatedMetric] = {
    "batched_updates": GatedMetric("speedup", True, ("grid", "tile_size")),
    "backend_kernels": GatedMetric("speedup", True, ("backend", "kernel", "tile_size")),
    "elimination_trees": GatedMetric("speedup", True, ("tree", "grid_rows", "grid_cols", "tile_size")),
    # The overhead *fraction* is too close to zero for a relative-delta
    # gate to be stable, so the gated metric is the boolean outcome of
    # the benchmark's own budget check (1.0 in budget / 0.0 blown):
    # disabled tracing ≤3%, live telemetry ≤5%.  A budget-blowing run
    # flips the metric to 0 — a -100% delta — and trips the gate, while
    # noise inside the budget never moves it.  Cases in records that
    # predate the ``mode`` field are skipped silently.
    "observability_overhead": GatedMetric(
        "within_budget", True, ("n", "tile_size", "mode")
    ),
}


@dataclass
class PerfRow:
    """One compared case: newest value vs its trajectory baseline."""

    benchmark: str
    case: dict
    metric: str
    baseline: float
    newest: float
    delta: float  # relative change, signed; positive = newest larger
    regressed: bool
    gated: bool

    def case_label(self) -> str:
        return ", ".join(f"{k}={v}" for k, v in sorted(self.case.items()))


@dataclass
class PerfReport:
    """Outcome of comparing one or more trajectory files."""

    rows: list[PerfRow] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # single-point / unknown cases
    threshold: float = DEFAULT_THRESHOLD

    @property
    def regressions(self) -> list[PerfRow]:
        return [r for r in self.rows if r.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_text(self) -> str:
        if not self.rows and not self.skipped:
            return "no comparable benchmark trajectories found"
        lines = [
            f"perf check (threshold {self.threshold:.0%}):",
            f"  {'benchmark':24s} {'case':32s} {'metric':18s} "
            f"{'baseline':>12s} {'newest':>12s} {'delta':>8s}  verdict",
        ]
        for r in self.rows:
            verdict = "REGRESSED" if r.regressed else ("ok" if r.gated else "info")
            lines.append(
                f"  {r.benchmark:24s} {r.case_label():32s} {r.metric:18s} "
                f"{r.baseline:12.6g} {r.newest:12.6g} {r.delta:+8.1%}  {verdict}"
            )
        for s in self.skipped:
            lines.append(f"  (skipped: {s})")
        n = len(self.regressions)
        lines.append(
            f"  -> {n} regression(s) across {len(self.rows)} compared case(s)"
            if n
            else f"  -> no regressions across {len(self.rows)} compared case(s)"
        )
        return "\n".join(lines)


def load_trajectory(path: str | Path) -> list[dict]:
    """Records of one ``BENCH_*.json`` file, oldest first."""
    p = Path(path)
    if not p.is_file():
        raise ObservabilityError(f"no benchmark trajectory at {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"{p} is not valid JSON: {exc}") from None
    if isinstance(doc, dict):
        doc = [doc]
    if not isinstance(doc, list):
        raise ObservabilityError(f"{p}: expected a JSON list of records")
    return doc


def append_record(
    path: str | Path,
    benchmark: str,
    cases: list[dict],
    extra: dict | None = None,
) -> Path:
    """Append one run record to a trajectory file (creating it if new)."""
    if not cases:
        raise ObservabilityError("refusing to append a record with no cases")
    try:
        import numpy as np

        numpy_version = np.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = "unknown"
    record = {
        "benchmark": benchmark,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        **(extra or {}),
        "cases": cases,
    }
    p = Path(path)
    history: list[dict] = []
    if p.is_file():
        try:
            history = load_trajectory(p)
        except ObservabilityError:
            history = []
    history.append(record)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(history, indent=1) + "\n")
    return p


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def compare_trajectory(
    path: str | Path,
    threshold: float = DEFAULT_THRESHOLD,
) -> PerfReport:
    """Each case's newest point vs its trajectory baseline.

    For every case (identified by its key fields) the newest point is
    its value in the last record that contains it, and the baseline is
    the *median* of all earlier values — so records carrying different
    case subsets (a full sweep vs a gate-only run) still compare every
    case that has history.  Cases with a single point are listed as
    skipped.  Unknown benchmark names compare every numeric field
    informationally but can never regress the report.
    """
    records = load_trajectory(path)
    report = PerfReport(threshold=threshold)
    if not records:
        report.skipped.append(f"{Path(path).name}: empty trajectory")
        return report
    by_bench: dict[str, list[dict]] = {}
    for rec in records:
        by_bench.setdefault(str(rec.get("benchmark", Path(path).stem)), []).append(rec)
    for benchmark, recs in by_bench.items():
        gate = GATES.get(benchmark)
        if gate is not None:
            keys, metrics = gate.case_keys, [gate.metric]
        else:
            # No gate registered: float fields are the measurements,
            # everything else (strings, ints like n / tile_size) keys the
            # case; compared informationally only.
            sample = (recs[0].get("cases") or [{}])[0]
            metrics = [k for k, v in sample.items() if isinstance(v, float)]
            keys = tuple(k for k in sample if k not in metrics)
        # Per-case metric series in record order.
        series: dict[tuple, dict[str, list[float]]] = {}
        for rec in recs:
            for case in rec.get("cases", []):
                slot = series.setdefault(tuple(case.get(k) for k in keys), {})
                for m in metrics:
                    if isinstance(case.get(m), (int, float)) and not isinstance(
                        case.get(m), bool
                    ):
                        slot.setdefault(m, []).append(float(case[m]))
        for ck in sorted(series, key=repr):
            for m, values in series[ck].items():
                if len(values) < 2:
                    report.skipped.append(
                        f"{benchmark} "
                        f"[{', '.join(f'{k}={v}' for k, v in zip(keys, ck))}]: "
                        f"single data point, no baseline yet"
                    )
                    continue
                base = _median(values[:-1])
                new = values[-1]
                delta = (new - base) / base if base != 0 else 0.0
                regressed = False
                if gate is not None and base != 0:
                    bad = -delta if gate.higher_is_better else delta
                    regressed = bad > threshold
                report.rows.append(
                    PerfRow(
                        benchmark=benchmark,
                        case={k: v for k, v in zip(keys, ck)},
                        metric=m,
                        baseline=base,
                        newest=new,
                        delta=delta,
                        regressed=regressed,
                        gated=gate is not None,
                    )
                )
    return report


def compare_trajectories(
    paths: list[str | Path],
    threshold: float = DEFAULT_THRESHOLD,
) -> PerfReport:
    """Fold :func:`compare_trajectory` over several files."""
    report = PerfReport(threshold=threshold)
    for path in paths:
        one = compare_trajectory(path, threshold)
        report.rows.extend(one.rows)
        report.skipped.extend(one.skipped)
    return report
