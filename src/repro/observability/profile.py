"""Persistent kernel profile store: measured runs -> scheduler inputs.

The paper's scheduling policies (Algs. 2-4) consume per-device kernel
times; out of the box those come from the static
:mod:`repro.devices.calibration` models.  :class:`ProfileStore` closes
the measure -> model -> schedule loop: it ingests recorded
:class:`~repro.sim.trace.ExecutionTrace` s (and
:class:`~repro.observability.metrics.MetricsRegistry` snapshots) into
per-``(device, kernel kind, tile size)`` statistics — counts, total
seconds, EWMA mean, p50/p95, achieved GFLOP/s — persists them as
versioned JSON that merges cleanly across runs, and exports calibrated
:class:`~repro.devices.model.KernelTimingModel` /
:class:`~repro.devices.model.DeviceSpec` overrides so the simulators and
``core.main_device`` / ``core.device_count`` / ``core.guide_array`` can
run on *measured* numbers.

Merge semantics
---------------
A store is a keyed set of immutable *runs* (one per ingested trace or
snapshot, identified by a content hash unless an explicit ``run_id`` is
given).  ``merge`` is a union over run ids, so on disjoint runs it is
associative, commutative, and idempotent — stores recorded on different
hosts or at different times can be folded together in any order and
yield identical statistics.  All derived statistics fold runs in
``(recorded_at, run_id)`` order, so they are independent of merge order
too (the EWMA mean weights *newer* runs more, which is what makes the
store usable as a continuously-updated calibration source).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..dag.tasks import Step, TaskKind
from ..devices.model import DeviceKind, DeviceSpec, KernelTimingModel
from ..devices.registry import SystemSpec
from ..errors import ObservabilityError
from ..kernels.flops import flops_geqrt, flops_tsmqr, flops_tsqrt, flops_unmqr
from ..sim.trace import ExecutionTrace
from .metrics import kernel_flops

PROFILE_SCHEMA = 1

#: Flops model per paper step, matching the device timing models (TS
#: kernels; TT eliminations are folded into the same step).
STEP_FLOPS = {
    Step.T: flops_geqrt,
    Step.E: flops_tsqrt,
    Step.UT: flops_unmqr,
    Step.UE: flops_tsmqr,
}

#: Default EWMA smoothing: weight of the newest run's mean.
EWMA_ALPHA = 0.3


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending sample list."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return min(ordered[lo] + (ordered[hi] - ordered[lo]) * frac, ordered[hi])


@dataclass
class KernelEntry:
    """Aggregate of one ``(device, kind, tile size)`` within one run.

    ``count`` is in *per-tile kernel equivalents*: batched update
    records are credited under their per-tile kind with ``ncols`` calls
    of ``duration / ncols`` each, so profiles from batched and unbatched
    runs are directly comparable (and usable as per-tile timing models).
    ``samples`` may be empty for aggregate-only ingests (metrics
    snapshots), in which case the stored ``p50``/``p95`` stand in.
    """

    count: int = 0
    total_seconds: float = 0.0
    min_seconds: float = float("inf")
    max_seconds: float = 0.0
    total_flops: float = 0.0
    samples: list[float] = field(default_factory=list)
    p50: float | None = None
    p95: float | None = None

    def add(self, per_call: float, calls: int, flops: float) -> None:
        self.count += calls
        self.total_seconds += per_call * calls
        self.min_seconds = min(self.min_seconds, per_call)
        self.max_seconds = max(self.max_seconds, per_call)
        self.total_flops += flops
        self.samples.extend([per_call] * calls)

    def to_dict(self) -> dict:
        d = {
            "count": self.count,
            "total_seconds": self.total_seconds,
            "min_seconds": self.min_seconds,
            "max_seconds": self.max_seconds,
            "total_flops": self.total_flops,
            "samples": self.samples,
        }
        if self.p50 is not None:
            d["p50"] = self.p50
        if self.p95 is not None:
            d["p95"] = self.p95
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "KernelEntry":
        return cls(
            count=int(d["count"]),
            total_seconds=float(d["total_seconds"]),
            min_seconds=float(d["min_seconds"]),
            max_seconds=float(d["max_seconds"]),
            total_flops=float(d["total_flops"]),
            samples=[float(v) for v in d.get("samples", [])],
            p50=d.get("p50"),
            p95=d.get("p95"),
        )


@dataclass
class RunProfile:
    """One ingested run: immutable once created, keyed by ``run_id``."""

    run_id: str
    recorded_at: str = ""
    meta: dict = field(default_factory=dict)
    kernels: dict[str, KernelEntry] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "recorded_at": self.recorded_at,
            "meta": self.meta,
            "kernels": {k: e.to_dict() for k, e in sorted(self.kernels.items())},
        }

    @classmethod
    def from_dict(cls, run_id: str, d: dict) -> "RunProfile":
        return cls(
            run_id=run_id,
            recorded_at=str(d.get("recorded_at", "")),
            meta=dict(d.get("meta", {})),
            kernels={k: KernelEntry.from_dict(e) for k, e in d.get("kernels", {}).items()},
        )


@dataclass(frozen=True)
class KernelStats:
    """Merged statistics for one ``(device, kind, tile size)`` slice.

    ``device`` / ``tile_size`` are ``None`` when the slice pools over
    that axis.  ``ewma_seconds`` folds per-run means
    oldest-to-newest with weight :data:`EWMA_ALPHA` on the newest run.
    """

    device: str | None
    kind: str
    tile_size: int | None
    count: int
    total_seconds: float
    mean_seconds: float
    ewma_seconds: float
    min_seconds: float
    max_seconds: float
    p50_seconds: float
    p95_seconds: float
    total_flops: float

    @property
    def gflops(self) -> float:
        """Achieved GFLOP/s over the whole slice (flops-model based)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.total_flops / self.total_seconds / 1e9


def _entry_key(device: str, kind: str, tile_size: int) -> str:
    # The fourth field once named a kernel backend; it stays, constant,
    # so stores written with and without it load alike.
    return f"{device}|{kind}|{tile_size}|reference"


def _split_key(key: str) -> tuple[str, str, int]:
    """Parse a ``device|kind|b|<any>`` entry key to ``(device, kind, b)``."""
    device, kind, b, _ = key.rsplit("|", 3)
    return device, kind, int(b)


class ProfileStore:
    """Mergeable, persistent store of measured kernel statistics."""

    def __init__(self, runs: dict[str, RunProfile] | None = None):
        self.runs: dict[str, RunProfile] = dict(runs) if runs else {}

    # -- ingestion --------------------------------------------------------

    def _add_run(self, run: RunProfile) -> str:
        if not run.kernels:
            raise ObservabilityError("refusing to ingest an empty run (no kernel events)")
        existing = self.runs.get(run.run_id)
        if existing is not None:
            if existing.to_dict() != run.to_dict():
                raise ObservabilityError(
                    f"run id {run.run_id!r} already present with different content"
                )
            return run.run_id  # idempotent re-ingest
        self.runs[run.run_id] = run
        return run.run_id

    def ingest_trace(
        self,
        trace: ExecutionTrace,
        tile_size: int,
        run_id: str | None = None,
        recorded_at: str = "",
        meta: dict | None = None,
    ) -> str:
        """Fold one recorded (or simulated) trace in as a new run.

        Batched ``*_BATCH`` records are credited under their per-tile
        kind — ``ncols`` calls of ``duration / ncols`` seconds each — so
        total per-kernel seconds are preserved and the statistics stay
        per-tile comparable across batched and unbatched runs.

        Returns the run id (a content hash unless ``run_id`` is given);
        re-ingesting identical content is a no-op.
        """
        if tile_size < 1:
            raise ObservabilityError(f"tile size must be >= 1, got {tile_size}")
        kernels: dict[str, KernelEntry] = {}
        for rec in trace.tasks:
            ncols = rec.task.ncols
            kind = rec.task.kind.single
            per_call = rec.duration / ncols
            key = _entry_key(rec.device_id, kind.value, tile_size)
            entry = kernels.setdefault(key, KernelEntry())
            entry.add(per_call, ncols, kernel_flops(rec.task.kind, tile_size, ncols))
        run = RunProfile(
            run_id="", recorded_at=recorded_at, meta=dict(meta or {}), kernels=kernels
        )
        run.run_id = run_id if run_id is not None else self._content_id(run)
        return self._add_run(run)

    def ingest_metrics(
        self,
        snapshot: dict,
        tile_size: int,
        device: str = "metrics",
        run_id: str | None = None,
        recorded_at: str = "",
        meta: dict | None = None,
    ) -> str:
        """Fold a :meth:`MetricsRegistry.snapshot` in as a new run.

        Snapshots carry aggregate histograms only (no raw samples), so
        the resulting entries store the snapshot's p50/p95 directly and
        contribute no samples to pooled quantiles.  Batched kinds are
        normalized to per-tile equivalents using the snapshot's
        ``kernel.<KIND>.tiles`` totals (mean-tile approximation).
        """
        hists = snapshot.get("histograms", {})
        counters = snapshot.get("counters", {})
        kernels: dict[str, KernelEntry] = {}
        for name, h in hists.items():
            parts = name.split(".")
            if len(parts) != 3 or parts[0] != "kernel" or parts[2] != "seconds":
                continue
            try:
                kind = TaskKind(parts[1])
            except ValueError:
                raise ObservabilityError(f"unknown kernel kind in metric {name!r}") from None
            calls = int(h["count"])
            if calls == 0:
                continue
            scale = 1.0
            count = calls
            if kind.is_batch:
                tiles = hists.get(f"kernel.{kind.value}.tiles", {})
                tiles_total = float(tiles.get("total", calls))
                scale = tiles_total / calls if calls else 1.0
                count = int(round(tiles_total))
            key = _entry_key(device, kind.single.value, tile_size)
            entry = kernels.setdefault(key, KernelEntry())
            entry.count += count
            entry.total_seconds += float(h["total"])
            entry.min_seconds = min(entry.min_seconds, float(h["min"]) / scale)
            entry.max_seconds = max(entry.max_seconds, float(h["max"]) / scale)
            entry.total_flops += float(counters.get(f"kernel.{kind.value}.flops", 0.0))
            entry.p50 = float(h["p50"]) / scale
            entry.p95 = float(h["p95"]) / scale
        run = RunProfile(
            run_id="", recorded_at=recorded_at, meta=dict(meta or {}), kernels=kernels
        )
        run.run_id = run_id if run_id is not None else self._content_id(run)
        return self._add_run(run)

    @staticmethod
    def _content_id(run: RunProfile) -> str:
        payload = json.dumps(run.to_dict(), sort_keys=True)
        return "run-" + hashlib.sha1(payload.encode()).hexdigest()[:12]

    # -- merge / persistence ----------------------------------------------

    def merge(self, other: "ProfileStore") -> "ProfileStore":
        """Union of two stores, keyed by run id (pure; returns a new store).

        Associative and commutative over disjoint run sets; merging the
        same run twice is a no-op; two *different* runs under one id are
        an error (they cannot both be the run the id names).
        """
        merged = ProfileStore(self.runs)
        for run in other.runs.values():
            merged._add_run(run)
        return merged

    @property
    def num_runs(self) -> int:
        return len(self.runs)

    def to_json(self) -> str:
        doc = {
            "schema": PROFILE_SCHEMA,
            "kind": "kernel-profile-store",
            "runs": {rid: self.runs[rid].to_dict() for rid in sorted(self.runs)},
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProfileStore":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(f"profile store is not valid JSON: {exc}") from None
        if not isinstance(doc, dict) or doc.get("kind") != "kernel-profile-store":
            raise ObservabilityError("not a kernel profile store document")
        if doc.get("schema") != PROFILE_SCHEMA:
            raise ObservabilityError(
                f"unsupported profile schema {doc.get('schema')!r} "
                f"(expected {PROFILE_SCHEMA})"
            )
        runs = {
            rid: RunProfile.from_dict(rid, d) for rid, d in doc.get("runs", {}).items()
        }
        return cls(runs)

    def save(self, path: str | Path) -> Path:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(self.to_json() + "\n")
        return p

    @classmethod
    def load(cls, path: str | Path) -> "ProfileStore":
        p = Path(path)
        if not p.is_file():
            raise ObservabilityError(f"no profile store at {p}")
        return cls.from_json(p.read_text())

    # -- statistics -------------------------------------------------------

    def _ordered_runs(self) -> list[RunProfile]:
        return sorted(self.runs.values(), key=lambda r: (r.recorded_at, r.run_id))

    def devices(self) -> list[str]:
        return sorted({_split_key(k)[0] for r in self.runs.values() for k in r.kernels})

    def kinds(self) -> list[str]:
        return sorted({_split_key(k)[1] for r in self.runs.values() for k in r.kernels})

    def tile_sizes(self) -> list[int]:
        return sorted({_split_key(k)[2] for r in self.runs.values() for k in r.kernels})

    def stats(
        self,
        kind: str | TaskKind,
        device: str | None = None,
        tile_size: int | None = None,
        alpha: float = EWMA_ALPHA,
    ) -> KernelStats | None:
        """Merged statistics for a kernel kind, optionally filtered by
        device and tile size (``None`` pools over that axis).
        Returns ``None`` when nothing matches."""
        kind_name = kind.single.value if isinstance(kind, TaskKind) else str(kind)
        count = 0
        total = 0.0
        lo = float("inf")
        hi = 0.0
        flops = 0.0
        samples: list[float] = []
        fallback_quant: list[tuple[int, float, float]] = []  # (count, p50, p95)
        ewma: float | None = None
        for run in self._ordered_runs():
            run_count = 0
            run_total = 0.0
            for key, entry in run.kernels.items():
                dev, kname, b = _split_key(key)
                if kname != kind_name:
                    continue
                if device is not None and dev != device:
                    continue
                if tile_size is not None and b != tile_size:
                    continue
                count += entry.count
                total += entry.total_seconds
                lo = min(lo, entry.min_seconds)
                hi = max(hi, entry.max_seconds)
                flops += entry.total_flops
                samples.extend(entry.samples)
                if not entry.samples and entry.p50 is not None:
                    fallback_quant.append((entry.count, entry.p50, entry.p95 or entry.p50))
                run_count += entry.count
                run_total += entry.total_seconds
            if run_count:
                run_mean = run_total / run_count
                ewma = run_mean if ewma is None else alpha * run_mean + (1 - alpha) * ewma
        if count == 0:
            return None
        mean = total / count
        if samples:
            samples.sort()
            p50, p95 = _quantile(samples, 0.50), _quantile(samples, 0.95)
        elif fallback_quant:
            w = sum(c for c, _, _ in fallback_quant)
            p50 = sum(c * v for c, v, _ in fallback_quant) / w
            p95 = sum(c * v for c, _, v in fallback_quant) / w
        else:
            p50 = p95 = mean
        return KernelStats(
            device=device,
            kind=kind_name,
            tile_size=tile_size,
            count=count,
            total_seconds=total,
            mean_seconds=mean,
            ewma_seconds=ewma if ewma is not None else mean,
            min_seconds=lo,
            max_seconds=hi,
            p50_seconds=p50,
            p95_seconds=p95,
            total_flops=flops,
        )

    def table(self) -> list[KernelStats]:
        """One :class:`KernelStats` per measured ``(device, kind, b)``."""
        keys = sorted({_split_key(k) for r in self.runs.values() for k in r.kernels})
        out = []
        for dev, kind, b in keys:
            st = self.stats(kind, device=dev, tile_size=b)
            if st is not None:
                out.append(st)
        return out

    def report(self) -> str:
        """Human-readable per-(device, kind, tile) statistics table."""
        lines = [
            f"kernel profile store: {self.num_runs} run(s), "
            f"{len(self.devices())} device(s), tile sizes {self.tile_sizes()}",
            f"  {'device':12s} {'kernel':6s} {'b':>4s} {'calls':>7s} "
            f"{'total ms':>10s} {'mean us':>9s} {'ewma us':>9s} "
            f"{'p50 us':>8s} {'p95 us':>8s} {'GF/s':>7s}",
        ]
        for st in self.table():
            lines.append(
                f"  {st.device:12s} {st.kind:6s} {st.tile_size:4d} {st.count:7d} "
                f"{st.total_seconds * 1e3:10.3f} {st.mean_seconds * 1e6:9.1f} "
                f"{st.ewma_seconds * 1e6:9.1f} {st.p50_seconds * 1e6:8.1f} "
                f"{st.p95_seconds * 1e6:8.1f} {st.gflops:7.2f}"
            )
        return "\n".join(lines)

    # -- scheduler exports ------------------------------------------------

    def step_measurements(self, device: str | None = None) -> dict[Step, dict[int, float]]:
        """Mean per-call seconds per paper step and tile size.

        Kinds sharing a step (``TSQRT``/``TTQRT`` -> E) pool their time
        and call counts; these are the points :meth:`to_timing_model`
        fits.
        """
        acc: dict[Step, dict[int, tuple[float, int]]] = {s: {} for s in Step}
        keys = {_split_key(k) for r in self.runs.values() for k in r.kernels}
        # One visit per (kind, b): stats(device=None) already pools devices.
        for kind, b in sorted({(kind, b) for dev, kind, b in keys if device in (None, dev)}):
            st = self.stats(kind, device=device, tile_size=b)
            if st is None:
                continue
            step = TaskKind(kind).step
            tot, cnt = acc[step].get(b, (0.0, 0))
            acc[step][b] = (tot + st.total_seconds, cnt + st.count)
        return {
            step: {b: tot / cnt for b, (tot, cnt) in pts.items() if cnt}
            for step, pts in acc.items()
            if pts
        }

    @staticmethod
    def _fit_step(step: Step, points: dict[int, float]) -> tuple[float, float]:
        """Fit ``t = overhead + flops/rate`` to measured per-call times.

        Rows are weighted by relative error, so microsecond and
        millisecond points count equally; a single measured tile size
        yields the exact rate-only model (overhead 0) for that size.
        """
        bs = sorted(points)
        flops = [STEP_FLOPS[step](b) for b in bs]
        times = [points[b] for b in bs]
        if any(t <= 0.0 for t in times):
            raise ObservabilityError(f"non-positive measured time for step {step}")
        if len(bs) == 1:
            return 0.0, flops[0] / times[0]
        # Weighted least squares on t = c0 + c1*f with rows scaled by 1/t
        # (relative error), solved by the 2x2 normal equations.
        w = [1.0 / t for t in times]
        s_ww = sum(wi * wi for wi in w)
        s_wf = sum(wi * wi * f for wi, f in zip(w, flops))
        s_ff = sum((wi * f) ** 2 for wi, f in zip(w, flops))
        s_w = sum(wi for wi in w)  # rhs: target is 1 per scaled row
        s_f = sum(wi * wi * f * t for wi, f, t in zip(w, flops, times))
        det = s_ww * s_ff - s_wf * s_wf
        if det == 0.0:
            c0, c1 = 0.0, s_w / s_wf if s_wf else 0.0
        else:
            c0 = (s_w * s_ff - s_wf * s_f) / det
            c1 = (s_ww * s_f - s_wf * s_w) / det
        if c1 <= 0.0:
            c1 = 1.0 / 1e15  # degenerate: all overhead, effectively flat
        if c0 < 0.0:
            c0 = 0.0
            num = sum(f / t for f, t in zip(flops, times))
            den = sum((f / t) ** 2 for f, t in zip(flops, times))
            c1 = num / den if den else 1.0 / 1e15
        return c0, 1.0 / c1

    def to_timing_model(
        self,
        device: str | None = None,
        base: KernelTimingModel | None = None,
    ) -> KernelTimingModel:
        """Calibrated ``overhead + flops/rate`` model from measurements.

        Steps missing for ``device`` fall back to the pooled (all-device)
        measurements, then to ``base``; with no fallback left an
        :class:`ObservabilityError` names the missing step.  With a
        single measured tile size the model reproduces the recorded
        per-kernel mean exactly at that size (the round-trip property
        the tests pin down).
        """
        meas = self.step_measurements(device)
        pooled = self.step_measurements(None) if device is not None else meas
        overheads: dict[Step, float] = {}
        rates: dict[Step, float] = {}
        for step in Step:
            points = meas.get(step) or pooled.get(step)
            if points:
                overheads[step], rates[step] = self._fit_step(step, points)
            elif base is not None:
                overheads[step] = base.overheads_s[step]
                rates[step] = base.rates_flops[step]
            else:
                raise ObservabilityError(
                    f"no measurements for step {step.value} "
                    f"(device={device!r}) and no base model to fall back on"
                )
        return KernelTimingModel(overheads_s=overheads, rates_flops=rates)

    def to_device_spec(
        self,
        base: DeviceSpec,
        device: str | None = None,
    ) -> DeviceSpec:
        """Copy of ``base`` with its timing replaced by measured numbers.

        ``device`` selects which measured device feeds the model
        (default: ``base.device_id``, falling back to pooled data).
        """
        dev = device if device is not None else base.device_id
        if dev not in self.devices():
            dev = None  # pooled measurements
        timing = self.to_timing_model(dev, base=base.timing)
        return DeviceSpec(
            device_id=base.device_id,
            name=base.name,
            kind=base.kind,
            cores=base.cores,
            slots=base.slots,
            timing=timing,
            memory_bytes=base.memory_bytes,
        )

    def to_system(
        self,
        base: SystemSpec | None = None,
        name: str | None = None,
        slots: int = 1,
        cores: int = 1,
    ) -> SystemSpec:
        """A :class:`SystemSpec` running Algs. 2-4 on measured numbers.

        With ``base`` given and at least one measured device id matching
        a base device, the matching devices get measured timing models
        and the rest keep their calibration.  Otherwise the system is
        built purely from the measured devices (e.g. ``worker-0..3`` of
        a traced threaded run become schedulable devices with ``slots``
        update slots each).
        """
        measured = self.devices()
        if not measured:
            raise ObservabilityError("profile store is empty; nothing to build a system from")
        if base is not None and any(d in set(base.device_ids) for d in measured):
            devices = tuple(
                self.to_device_spec(d) if d.device_id in measured else d
                for d in base.devices
            )
            return SystemSpec(name=name or f"{base.name}+measured", devices=devices)
        devices = tuple(
            DeviceSpec(
                device_id=d,
                name=f"measured {d}",
                kind=DeviceKind.CPU,
                cores=cores,
                slots=slots,
                timing=self.to_timing_model(d),
            )
            for d in measured
        )
        return SystemSpec(name=name or "measured", devices=devices)

    # -- drift ------------------------------------------------------------

    def drift_report(
        self,
        target: DeviceSpec | SystemSpec,
        device_map: dict[str, str] | None = None,
    ) -> str:
        """Measured-vs-calibrated kernel-time drift, one row per
        ``(measured device, step, tile size)``.

        ``target`` is the calibration to compare against — a single
        :class:`DeviceSpec` (every measured device compares against it)
        or a :class:`SystemSpec` with ``device_map`` mapping measured
        device ids onto its device ids (identity by default; unmapped
        devices are skipped).  Positive drift = measured slower than the
        calibrated model.
        """
        device_map = device_map or {}

        def spec_for(measured_id: str) -> DeviceSpec | None:
            if isinstance(target, DeviceSpec):
                return target
            mapped = device_map.get(measured_id, measured_id)
            try:
                return target.device(mapped)
            except Exception:
                return None

        lines = [
            "kernel-time drift vs calibration (positive = measured slower):",
            f"  {'device':12s} {'vs':12s} {'step':4s} {'b':>4s} "
            f"{'measured us':>12s} {'model us':>10s} {'drift':>8s}",
        ]
        rows = 0
        for dev in self.devices():
            spec = spec_for(dev)
            if spec is None:
                continue
            meas = self.step_measurements(dev)
            for step in Step:
                for b, t_meas in sorted(meas.get(step, {}).items()):
                    t_model = spec.time(step, b)
                    drift = (t_meas - t_model) / t_model if t_model > 0 else float("inf")
                    lines.append(
                        f"  {dev:12s} {spec.device_id:12s} {step.value:4s} {b:4d} "
                        f"{t_meas * 1e6:12.1f} {t_model * 1e6:10.1f} {drift:+8.1%}"
                    )
                    rows += 1
        if rows == 0:
            lines.append("  (no measured device maps onto the calibration target)")
        return "\n".join(lines)
