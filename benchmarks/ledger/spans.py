"""Spans around the calls into each layer of ``repro``, recorded from outside.

The program is not modified.  For the length of one traced run,
:func:`instrument` replaces the names through which the runtimes reach
each layer with wrappers that record a span per call, and restores them
afterwards:

* ``kernels`` — the registered ``reference`` backend is swapped for a
  copy whose nine kernel entry points are wrapped
  (``register_backend(..., replace=True)``).  Every runtime resolves its
  backend from the registry, so this also reaches ``lstsq`` and forked
  multiprocess workers;
* ``dag`` — ``build_dag`` and ``bottom_level_ranks`` at the module names
  the runtimes look them up under;
* ``tiles`` — ``TiledMatrix.from_dense`` / ``to_dense``;
* ``runtime`` — ``lstsq``'s factorization, ``apply_qt`` and back
  substitution, process start, and the manager's pipe reads, writes and
  polls;
* ``core`` — ``Optimizer.plan``.

A span is ``(id, name, start, end, parent, call, pid, tid, attrs)``.
Spans are kept in memory and written out when the run ends, except in
forked multiprocess workers: those leave through ``os._exit``, so they
append each span, line-buffered, to a per-pid file that the parent
folds in after the call.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

_MISSING = object()


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int
    pid: int
    tid: int
    attrs: dict | None


class Recorder:
    """Collects the spans of calls made inside :meth:`scope`."""

    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.spans: list[Span] = []
        self.roles: dict[int, str] = {}
        self.call: int | None = None
        self.root: int | None = None
        self.main_pid = self.pid = os.getpid()
        self._seq = itertools.count(1)
        self._calls = itertools.count(1)
        self._local = threading.local()
        self._sink = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        if self.call is None:
            return
        self.pid = os.getpid()
        self._local = threading.local()
        self.spans = []
        self._sink = open(self.spill_dir / f"spans-{self.pid}.jsonl", "a", buffering=1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        # Unique across the forked workers of one run.
        return (self.pid << 32) | next(self._seq)

    def _emit(self, span: Span) -> None:
        if self._sink is not None:
            self._sink.write(json.dumps(span) + "\n")
        else:
            self.spans.append(span)

    def wrap(self, fn, name: str, attrs=None, main_only: bool = False):
        """``fn``, recording a span named ``name`` inside a scope.

        ``attrs(args, result)`` adds attributes to the span; with
        ``main_only`` calls from forked workers are not recorded.
        """

        def traced(*args, **kwargs):
            if self.call is None or (main_only and self.pid != self.main_pid):
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            sid = self._new_id()
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            self._emit(
                Span(
                    sid, name, start, end, parent, self.call, self.pid,
                    threading.get_ident(), attrs(args, out) if attrs else None,
                )
            )
            return out

        return traced

    @contextmanager
    def scope(self, name: str, role: str):
        """One call: the root span ``name``; ``role`` labels the call."""
        call = next(self._calls)
        sid = self._new_id()
        self.roles[call] = role
        self.call, self.root = call, sid
        start = perf_counter()
        try:
            yield call
        finally:
            end = perf_counter()
            self.call = self.root = None
            self._emit(
                Span(sid, name, start, end, None, call, self.pid, threading.get_ident(), None)
            )
            self._fold_spills()

    def _fold_spills(self) -> None:
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    try:
                        self.spans.append(Span(*json.loads(line)))
                    except (ValueError, TypeError):
                        continue  # a torn last line from a killed worker
            path.unlink()

    def by_call(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            out[s.call].append(s)
        return out

    def write_jsonl(self, path: Path) -> None:
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: (s.call, s.start)):
                rec = {
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "self_s": selfs[s.id], "parent": s.parent, "call": s.call,
                    "role": self.roles.get(s.call), "pid": s.pid, "tid": s.tid,
                }
                rec.update(s.attrs or {})
                fh.write(json.dumps(rec) + "\n")


def _padded_bytes(args, tiled) -> dict:
    return {
        "bytes": tiled.row_partition.padded_extent
        * tiled.col_partition.padded_extent
        * tiled.dtype.itemsize
    }


@contextmanager
def instrument(rec: Recorder):
    """Route each layer boundary of ``repro`` through ``rec`` while open."""
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

    import repro.dag
    import repro.dag.analysis
    import repro.linalg.ops
    import repro.runtime.serial
    import repro.runtime.threaded
    from repro.core.optimizer import Optimizer
    from repro.kernels.backends import (
        KERNEL_NAMES, FunctionBackend, get_backend, register_backend,
    )
    from repro.runtime.factorization import TiledQRFactorization
    from repro.tiles import TiledMatrix

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    # serial/threaded bind these names at import; multiprocess imports
    # them from repro.dag / repro.dag.analysis on each call.
    for mod in (repro.runtime.serial, repro.runtime.threaded, repro.dag):
        patch(mod, "build_dag", rec.wrap(
            mod.build_dag, "dag.build", lambda args, dag: {"tasks": len(dag.tasks)}
        ))
    for mod in (repro.runtime.serial, repro.runtime.threaded, repro.dag.analysis):
        patch(mod, "bottom_level_ranks", rec.wrap(mod.bottom_level_ranks, "dag.rank"))
    from_dense = vars(TiledMatrix)["from_dense"].__func__
    patch(TiledMatrix, "from_dense",
          classmethod(rec.wrap(from_dense, "tiles.from_dense", _padded_bytes)))
    patch(TiledMatrix, "to_dense", rec.wrap(TiledMatrix.to_dense, "tiles.to_dense"))
    ops = repro.linalg.ops
    patch(ops, "tiled_qr", rec.wrap(ops.tiled_qr, "runtime.factorize"))
    patch(ops, "back_substitution", rec.wrap(ops.back_substitution, "runtime.backsolve"))
    patch(TiledQRFactorization, "apply_qt",
          rec.wrap(TiledQRFactorization.apply_qt, "runtime.apply_qt"))
    patch(Optimizer, "plan", rec.wrap(Optimizer.plan, "core.plan"))
    patch(BaseProcess, "start", rec.wrap(BaseProcess.start, "runtime.spawn"))
    # Connection.send/recv pickle and call these with the pickled bytes.
    patch(Connection, "_send_bytes", rec.wrap(
        Connection._send_bytes, "runtime.ipc_send",
        lambda args, out: {"bytes": memoryview(args[1]).nbytes}, main_only=True,
    ))
    patch(Connection, "_recv_bytes", rec.wrap(
        Connection._recv_bytes, "runtime.ipc_recv",
        lambda args, out: {"bytes": out.getbuffer().nbytes}, main_only=True,
    ))
    patch(Connection, "poll", rec.wrap(Connection.poll, "runtime.ipc_poll", main_only=True))

    base = get_backend("reference")
    traced = FunctionBackend(
        name=base.name, description=base.description,
        compiled=base.compiled, bit_exact=base.bit_exact,
        **{k: rec.wrap(getattr(base, k), f"kernels.{k.upper()}") for k in KERNEL_NAMES},
    )
    register_backend(traced, replace=True)
    try:
        yield
    finally:
        register_backend(base, replace=True)
        for owner, attr, old in reversed(saved):
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


# -- analysis -----------------------------------------------------------------


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            kids[s.parent].append(s)
    # Children are clipped to the parent, so only rounding can go below 0.
    return {
        s.id: max(0.0, (s.end - s.start) - _covered(
            (max(c.start, s.start), min(c.end, s.end)) for c in kids[s.id]
        ))
        for s in spans
    }


def _flops(kind: str, b: int) -> float | None:
    from repro.kernels import flops

    fn = getattr(flops, f"flops_{kind.lower()}", None)
    return None if fn is None or kind.endswith("_BATCH") else fn(b)


def kernel_counts(spans) -> Counter:
    return Counter(s.name.split(".", 1)[1] for s in spans if s.name.startswith("kernels."))


def call_metrics(spans, workers: int, tile: int) -> dict[str, float]:
    """Per-layer numbers of one call's spans."""
    selfs = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    count: Counter = Counter()
    attr: dict[str, float] = defaultdict(float)
    for s in spans:
        dur[s.name] += s.end - s.start
        own[s.name] += selfs[s.id]
        count[s.name] += 1
        for k, v in (s.attrs or {}).items():
            attr[f"{s.name}.{k}"] += v
    root = next(s for s in spans if s.parent is None)
    fact = dur["runtime.factorize"]
    m: dict[str, float] = {"wall_s": root.end - root.start, "factorize_s": fact}
    busy = 0.0
    for name in sorted(n for n in count if n.startswith("kernels.")):
        kind = name.split(".", 1)[1]
        m[f"{name}.calls"] = count[name]
        m[f"{name}.busy_s"] = dur[name]
        fl = _flops(kind, tile)
        if fl is not None and dur[name] > 0:
            m[f"{name}.gflops"] = count[name] * fl / dur[name] / 1e9
        busy += dur[name]
    tasks = attr["dag.build.tasks"]
    m.update({
        "kernels.busy_s": busy,
        "kernels.share": busy / (workers * fact),
        "dag.build_s": dur["dag.build"],
        "dag.rank_s": dur["dag.rank"],
        "dag.tasks": tasks,
        "tiles.from_dense_s": dur["tiles.from_dense"],
        "tiles.to_dense_s": dur["tiles.to_dense"],
        "tiles.bytes_in": attr["tiles.from_dense.bytes"],
        "runtime.self_s": own["runtime.factorize"],
        "runtime.self_per_task_us": own["runtime.factorize"] / tasks * 1e6 if tasks else 0.0,
        "runtime.idle_s": workers * fact - busy,
        "runtime.spawn_s": dur["runtime.spawn"],
        "runtime.ipc_messages": count["runtime.ipc_send"] + count["runtime.ipc_recv"],
        "runtime.ipc_bytes": attr["runtime.ipc_send.bytes"] + attr["runtime.ipc_recv.bytes"],
        "runtime.manager_wait_s": dur["runtime.ipc_recv"] + dur["runtime.ipc_poll"],
        "runtime.apply_qt_s": dur["runtime.apply_qt"],
        "runtime.backsolve_s": dur["runtime.backsolve"],
        "linalg.self_s": own["linalg.lstsq"],
    })
    return m
