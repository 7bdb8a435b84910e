"""Run the layer ledger: tiled QR against LAPACK, end to end and per layer.

    python3 benchmarks/ledger/run.py --seed 0               # every workload
    python3 benchmarks/ledger/run.py --seed 0 --trace 1     # per-layer metrics
    python3 benchmarks/ledger/run.py --workload fine-serial --seed 3 --seconds 20

Each workload runs in a fresh interpreter (:mod:`.measure`), one after
another, with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` removed from its environment so the benchmark sees
the program's own BLAS threading; the removed values are recorded.
Metrics are printed by name with their units, a result JSON is written
under ``benchmarks/ledger/out/``, and the last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when a call failed, the span-count cross-check
failed, or a declared metric is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__" and not __package__:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    import benchmarks.ledger  # noqa: F401

    __package__ = "benchmarks.ledger"

from . import spec as spec_mod

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: A workload subprocess that runs longer than this is killed.
CHILD_TIMEOUT_S = 170


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(root: Path) -> tuple[dict, dict]:
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in BLAS_THREAD_VARS if k in env}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    return env, removed


def run_workload(name: str, args, env: dict, root: Path) -> dict | None:
    """Measure one workload in a fresh interpreter; None if it failed."""
    out = args.out_dir / f".{name}.child.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, "-m", "benchmarks.ledger.measure",
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ] + (["--tiny"] if args.tiny else [])
    # Its own session, so a timeout can kill the workers it started too.
    proc = subprocess.Popen(
        cmd, cwd=root, env=env, stdout=sys.stderr, start_new_session=True
    )
    code = None
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or not out.exists():
        print(f"{name}: measurement exited with code {code}", file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    out.unlink()
    return result


def print_block(result: dict, specs: list[dict]) -> None:
    print(f"{result['workload']}  {result['shape'][0]}x{result['shape'][1]} b={result['tile']}"
          f"  attempted={result['attempted']} failed={result['failed']}"
          f" failed_frac={result['failed_frac']:.4g}")
    metrics = result["metrics"]
    declared = [m["name"] for m in specs]
    extras = sorted(k for k in set(metrics) - set(declared) if metrics[k]["value"])
    for name in declared + extras:
        if name in metrics:
            m = metrics[name]
            tag = "" if name in declared else "  (extra)"
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<8} n={m['samples']}{tag}")
    for msg in result["cross_check"]:
        print(f"  cross-check: {msg}")


def summary_line(results: dict, specs: list[dict], prefix: bool) -> tuple[dict, bool]:
    """The final JSON line; False if a declared metric is missing."""
    metrics, complete = {}, True
    for name, result in results.items():
        for m in specs:
            got = result["metrics"].get(m["name"])
            if got is None:
                complete = False
                continue
            key = f"{name}.{m['name']}" if prefix else m["name"]
            metrics[key] = {"value": got["value"], "unit": got["unit"]}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    return line, complete


def main(argv=None) -> int:
    root = spec_mod.ROOT
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {root / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = spec_mod.load()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names, help="one workload (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--tiny", action="store_true", help="small matrices (smoke test)")
    p.add_argument("--out-dir", type=Path, default=spec_mod.DEFAULT_OUT)
    args = p.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    env, removed = child_env(root)
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    todo = [args.workload] if args.workload else names
    results: dict[str, dict] = {}
    t0 = perf_counter()
    for name in todo:
        result = run_workload(name, args, env, root)
        if result is None:
            return 1
        results[name] = result
        print_block(result, specs)

    label = args.workload or "all"
    path = args.out_dir / f"{label}-seed{args.seed}{'-traced' if args.trace else ''}.json"
    path.write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "git_sha": git_sha(root), "env_removed": removed,
        "elapsed_s": perf_counter() - t0, "workloads": results,
    }, indent=1))
    print(f"result: {path}")
    line, complete = summary_line(results, specs, prefix=args.workload is None)
    print(json.dumps(line))
    return 0 if complete and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
