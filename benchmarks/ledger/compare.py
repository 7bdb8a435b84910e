"""Compare ledger results of a parent and a change, metric by metric.

    python -m benchmarks.ledger.compare PARENT.json CHANGE.json [PARENT2.json CHANGE2.json ...]

Arguments are result files written by :mod:`.run`, taken as alternating
(parent, change) pairs.  For every (workload, end-to-end metric) the
medians of the two sides are compared against the metric's bound in
``BENCHMARK.json``:

* ``REGRESSED`` — the change's median is worse by more than the bound,
  ``backward_error_neps`` exceeds 1.0, or the failed fraction rose.
  When the parent's own spread exceeds the bound, every change run must
  also read worse than every parent run;
* ``unresolved`` — the parent's own spread (interquartile range over
  median) exceeds the bound, and neither every change run beats every
  parent run (``better``) nor the row regressed;
* ``improved`` — with at least 10 pairs, the change wins at least 9/10
  of them and its median moved by more than the parent's IQR;
* ``ok`` — otherwise.

Exits 1 if any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

if __name__ == "__main__" and not __package__:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    import benchmarks.ledger  # noqa: F401

    __package__ = "benchmarks.ledger"

from . import spec as spec_mod

#: Absolute limits a change may not cross, whatever the parent read.
CEILINGS = {"backward_error_neps": 1.0}
MIN_PAIRS_FOR_GAIN = 10
GAIN_WIN_SHARE = 0.9


def iqr(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare_metric(parent: list[float], change: list[float], lower_better: bool,
                   bound: float, ceiling: float | None = None) -> dict:
    """One row: medians, relative worsening, spread, pair wins and status."""
    sign = 1.0 if lower_better else -1.0
    med_p, med_c = statistics.median(parent), statistics.median(change)
    worse = sign * (med_c - med_p) / abs(med_p)
    spread_abs = iqr(parent)
    spread = None if spread_abs is None else spread_abs / abs(med_p)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if ceiling is not None and med_c > ceiling:
        status = "REGRESSED"
    elif spread is not None and spread > bound:
        if all_worse and worse > bound:
            status = "REGRESSED"
        else:
            status = "better" if all_better else "unresolved"
    elif worse > bound:
        status = "REGRESSED"
    elif (len(pairs) >= MIN_PAIRS_FOR_GAIN and wins >= GAIN_WIN_SHARE * len(pairs)
          and sign * (med_c - med_p) < 0 and abs(med_c - med_p) > spread_abs):
        status = "improved"
    else:
        status = "ok"
    return {"parent": med_p, "change": med_c, "worse": worse, "spread": spread,
            "pairs": len(pairs), "wins": wins, "status": status}


def collect(paths: list[Path]) -> tuple[dict, dict]:
    """Per side: ``{workload: {metric: [values]}}``, failed and attempted
    counts under the ``"_failed"`` / ``"_attempted"`` keys."""
    sides: tuple[dict, dict] = ({}, {})
    for i, path in enumerate(paths):
        side = sides[i % 2]
        for name, result in json.loads(path.read_text())["workloads"].items():
            per = side.setdefault(name, {"_failed": 0, "_attempted": 0})
            per["_failed"] += result["failed"]
            per["_attempted"] += result["attempted"]
            for metric, m in result["metrics"].items():
                per.setdefault(metric, []).append(m["value"])
    return sides


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("results", nargs="+", type=Path,
                   help="result files, alternating parent and change")
    args = p.parse_args(argv)
    if len(args.results) % 2:
        p.error("give result files in (parent, change) pairs")
    spec = spec_mod.load()
    parent, change = collect(args.results)

    regressed = False
    print(f"{'workload':<16} {'metric':<20} {'parent':>11} {'change':>11} "
          f"{'worse':>8} {'bound':>6} {'spread':>7} {'wins':>6}  status")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in parent or name not in change:
            continue
        a, b = parent[name], change[name]
        for m in spec["end_to_end"]:
            if m["name"] not in a or m["name"] not in b:
                continue
            row = compare_metric(a[m["name"]], b[m["name"]], m["better"] == "lower",
                                 m["bound"], CEILINGS.get(m["name"]))
            regressed |= row["status"] == "REGRESSED"
            spread = "-" if row["spread"] is None else f"{row['spread']:.1%}"
            print(f"{name:<16} {m['name']:<20} {row['parent']:>11.5g} {row['change']:>11.5g} "
                  f"{row['worse']:>+8.1%} {m['bound']:>6.0%} {spread:>7} "
                  f"{row['wins']:>2}/{row['pairs']:<3}  {row['status']}")
        frac_a = a["_failed"] / a["_attempted"]
        frac_b = b["_failed"] / b["_attempted"]
        status = "REGRESSED" if frac_b > frac_a else "ok"
        regressed |= status == "REGRESSED"
        print(f"{name:<16} {'failed_frac':<20} {frac_a:>11.5g} {frac_b:>11.5g} "
              f"{'':>8} {'any':>6} {'':>7} {'':>6}  {status}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
