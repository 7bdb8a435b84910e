"""Failure bundles: one atomic ``.zip`` holding a dead run's evidence.

A bundle is written when a terminal error escapes a runtime (see
:class:`BundleCapture`, which the runtimes arm behind their
``bundle_out`` knob) or explicitly via :func:`write_failure_bundle`.
Layout (``BUNDLE_SCHEMA_VERSION`` 1)::

    manifest.json     schema, creation time, provenance (host/version/
                      git SHA), run parameters, the error and its cause
                      chain, the pre-computed failure class, the
                      latest-checkpoint pointer
    events.jsonl      flight-recorder tail in the live-stream schema
                      (readable by read_live_events / tiledqr watch)
    inflight.json     started-but-unfinished tasks at the moment of death
    metrics.json      MetricsRegistry.snapshot()
    progress.json     per-device fold (+ full ProgressSnapshot when a
                      tracker was attached)
    plan.json         distribution plan description + DecisionAudit
                      (multiprocess runs / planned CLI runs)
    fault_plan.json   the chaos FaultPlan, when one was active

The zip is written to a temp file and ``os.replace``d into place — the
same atomicity contract as checkpoints — so a reader never observes a
half-written bundle, even when capture races a failover or a second
interrupt.
"""

from __future__ import annotations

import json
import os
import sys
import time
import zipfile
from pathlib import Path

from ...errors import (
    ConfigError,
    DAGError,
    DeviceError,
    FaultInjectionError,
    NumericalHealthError,
    ObservabilityError,
    PlanError,
    ReproError,
    ShapeError,
    TaskTimeoutError,
    TilingError,
    TopologyError,
    WorkerFailoverError,
)
from ..export import provenance_meta
from ..live.bus import LiveEvent, TelemetryBus
from ..live.sinks import LIVE_SCHEMA_VERSION
from .recorder import FlightRecorder

#: Version of the bundle layout (bump on breaking changes).
BUNDLE_SCHEMA_VERSION = 1

#: The classification vocabulary ``classify_error``/``analyze_bundle``
#: emit (plus ``"unknown"`` when nothing matches).
FAILURE_CLASSES = (
    "worker_death",
    "hang",
    "numerical",
    "timeout",
    "config",
    "injected-fault",
    "interrupted",
)

#: Exception classes that read as configuration/usage mistakes rather
#: than runtime infrastructure or numerics.  CheckpointError lives in
#: repro.runtime.checkpoint and is matched by name to keep this package
#: import-cycle-free with the runtimes.
_CONFIG_ERRORS = (
    ShapeError,
    TilingError,
    DAGError,
    PlanError,
    ConfigError,
    TopologyError,
    DeviceError,
)


def error_chain(exc: BaseException | None) -> list[BaseException]:
    """``exc`` plus its ``__cause__``/``__context__`` chain, outermost first."""
    chain: list[BaseException] = []
    seen: set[int] = set()
    while exc is not None and id(exc) not in seen:
        chain.append(exc)
        seen.add(id(exc))
        exc = exc.__cause__ if exc.__cause__ is not None else exc.__context__
    return chain


def classify_error(exc: BaseException | None) -> str:
    """Failure class for an exception (walking its cause chain).

    Returns one of :data:`FAILURE_CLASSES` or ``"unknown"``.  A
    ``RetryExhaustedError`` classifies as whatever exhausted it — the
    chained last failure — not as a class of its own.
    """
    chain = error_chain(exc)

    def has(*types) -> bool:
        return any(isinstance(e, types) for e in chain)

    if not chain:
        return "unknown"
    if has(KeyboardInterrupt):
        return "interrupted"
    if has(WorkerFailoverError):
        return "worker_death"
    if has(NumericalHealthError):
        return "numerical"
    if has(TaskTimeoutError):
        return "timeout"
    if has(FaultInjectionError):
        return "injected-fault"
    if has(*_CONFIG_ERRORS) or any(
        type(e).__name__ == "CheckpointError" for e in chain
    ):
        return "config"
    return "unknown"


def _jsonable(value):
    """Best-effort JSON projection for plan notes and friends."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        try:
            return _jsonable(to_dict())
        except Exception:
            pass
    return str(value)


def _plan_payload(plan) -> dict:
    """Serializable view of a distribution plan + its decision audit."""
    payload: dict = {}
    describe = getattr(plan, "describe", None)
    if callable(describe):
        try:
            payload["describe"] = describe()
        except Exception:
            pass
    notes = getattr(plan, "notes", None)
    if isinstance(notes, dict):
        payload["notes"] = _jsonable(notes)
    for name in ("main_device", "num_devices", "tile_size"):
        if hasattr(plan, name):
            payload[name] = _jsonable(getattr(plan, name))
    participants = getattr(plan, "participants", None)
    if participants is not None:
        payload["participants"] = _jsonable(list(participants))
    return payload


def _events_jsonl(events: list[LiveEvent], meta: dict | None) -> str:
    header = {
        "type": "live.meta",
        "schema": LIVE_SCHEMA_VERSION,
        **provenance_meta(**(meta or {})),
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    lines.extend(
        json.dumps(ev.to_dict(), separators=(",", ":")) for ev in events
    )
    return "\n".join(lines) + "\n"


def write_failure_bundle(
    path,
    *,
    error: BaseException | None = None,
    classification: str | None = None,
    recorder: FlightRecorder | None = None,
    metrics=None,
    plan=None,
    fault_plan=None,
    checkpoint_path=None,
    tracker=None,
    meta: dict | None = None,
) -> Path:
    """Atomically write a failure bundle; returns the final path.

    Parameters
    ----------
    error:
        The terminal exception (its type, message, and cause chain land
        in the manifest; ``classification`` overrides the derived class).
    recorder:
        The run's :class:`FlightRecorder` — supplies the event tail, the
        in-flight task table, and the per-device fold.
    metrics / plan / fault_plan / tracker:
        Optional :class:`MetricsRegistry`, distribution plan (with its
        ``DecisionAudit`` in ``notes``), chaos :class:`FaultPlan`, and
        :class:`ProgressTracker` to embed.
    checkpoint_path:
        Path of the run's latest checkpoint, embedded as a pointer (plus
        snapshot metadata when the file exists) so a postmortem can say
        where to resume from.
    meta:
        Run parameters (runtime name, grid, tree, seed, ...)
        recorded under ``manifest["run"]``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    tail = recorder.tail() if recorder is not None else []
    inflight = recorder.inflight() if recorder is not None else []
    devices = recorder.device_progress() if recorder is not None else {}

    chain = error_chain(error)
    manifest = {
        "schema": BUNDLE_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "created_unix": time.time(),
        "provenance": provenance_meta(),
        "run": _jsonable(meta or {}),
        "failure_class": classification or classify_error(error),
        "error": {
            "type": type(error).__name__ if error is not None else None,
            "message": str(error) if error is not None else None,
            "chain": [
                {"type": type(e).__name__, "message": str(e)} for e in chain
            ],
        },
        "events": len(tail),
        "events_seen": recorder.events_seen if recorder is not None else 0,
        "inflight": len(inflight),
        "fault_plan_active": fault_plan is not None,
    }
    if checkpoint_path is not None:
        from ...runtime.checkpoint import checkpoint_info

        manifest["checkpoint"] = checkpoint_info(checkpoint_path)

    members: dict[str, str] = {
        "manifest.json": json.dumps(manifest, indent=1),
        "events.jsonl": _events_jsonl(tail, meta),
        "inflight.json": json.dumps(inflight, indent=1),
        "metrics.json": json.dumps(
            _jsonable(metrics.snapshot()) if metrics is not None else {}, indent=1
        ),
    }
    progress: dict = {"devices": devices}
    if tracker is not None:
        try:
            progress["snapshot"] = _jsonable(tracker.snapshot().to_dict())
        except Exception:
            pass
    members["progress.json"] = json.dumps(_jsonable(progress), indent=1)
    if plan is not None:
        members["plan.json"] = json.dumps(_plan_payload(plan), indent=1)
    if fault_plan is not None:
        members["fault_plan.json"] = json.dumps(fault_plan.to_dict(), indent=1)

    # Atomic publish: assemble in a sibling temp file, then rename over
    # the target — a reader (or a second capture racing this one) only
    # ever sees a complete zip.
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    try:
        with zipfile.ZipFile(tmp, "w", compression=zipfile.ZIP_DEFLATED) as zf:
            for name, text in members.items():
                zf.writestr(name, text)
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write never leaves droppings
            tmp.unlink()
    return path


class FailureBundle:
    """Parsed view of a failure bundle (see :func:`write_failure_bundle`)."""

    def __init__(
        self,
        path: Path,
        manifest: dict,
        events: list[LiveEvent],
        inflight: list[dict],
        metrics: dict,
        progress: dict,
        plan: dict | None,
        fault_plan=None,
    ):
        self.path = path
        self.manifest = manifest
        self.events = events
        self.inflight = inflight
        self.metrics = metrics
        self.progress = progress
        self.plan = plan
        self.fault_plan = fault_plan

    @classmethod
    def load(cls, path) -> "FailureBundle":
        """Read and validate a bundle; :class:`ObservabilityError` on junk."""
        p = Path(path)
        if not p.is_file():
            raise ObservabilityError(f"no failure bundle at {p}")
        try:
            with zipfile.ZipFile(p) as zf:
                names = set(zf.namelist())
                if "manifest.json" not in names:
                    raise ObservabilityError(
                        f"{p} is not a failure bundle (no manifest.json)"
                    )

                def member(name: str, default=None):
                    if name not in names:
                        return default
                    return json.loads(zf.read(name).decode())

                manifest = member("manifest.json")
                schema = manifest.get("schema") if isinstance(manifest, dict) else None
                if schema != BUNDLE_SCHEMA_VERSION:
                    raise ObservabilityError(
                        f"{p}: bundle schema {schema!r} not supported "
                        f"(expected {BUNDLE_SCHEMA_VERSION})"
                    )
                events: list[LiveEvent] = []
                if "events.jsonl" in names:
                    for line in zf.read("events.jsonl").decode().splitlines():
                        line = line.strip()
                        if not line:
                            continue
                        doc = json.loads(line)
                        if doc.get("type") == "live.meta":
                            continue
                        events.append(LiveEvent.from_dict(doc))
                fault_plan = None
                fp = member("fault_plan.json")
                if fp is not None:
                    from ...resilience.faults import FaultPlan

                    fault_plan = FaultPlan.from_dict(fp)
                return cls(
                    path=p,
                    manifest=manifest,
                    events=events,
                    inflight=member("inflight.json", []) or [],
                    metrics=member("metrics.json", {}) or {},
                    progress=member("progress.json", {}) or {},
                    plan=member("plan.json"),
                    fault_plan=fault_plan,
                )
        except ObservabilityError:
            raise
        except (zipfile.BadZipFile, json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
            raise ObservabilityError(f"unreadable failure bundle {p}: {exc}") from exc


class BundleCapture:
    """Arms flight-recorder + bundle capture around one factorize call.

    The runtimes construct one when ``bundle_out`` is set: it attaches a
    :class:`FlightRecorder` to the run's bus (creating a private bus
    when the caller runs without one, so task events exist to record),
    and :meth:`capture` writes the bundle when a terminal error escapes.
    Capture is best-effort by design — a failing bundle write must never
    mask the original error — and idempotent: the first capture wins.
    """

    #: Terminal errors worth a bundle.  Programming errors propagate
    #: uncaptured: a bundle full of AttributeError evidence helps nobody
    #: and the traceback is already the better artifact.
    def __init__(
        self,
        path,
        *,
        bus: TelemetryBus | None = None,
        metrics=None,
        plan=None,
        fault_plan=None,
        checkpoint_path=None,
        tracker=None,
        meta: dict | None = None,
        capacity: int = 0,
    ):
        from .recorder import DEFAULT_RECORDER_CAPACITY

        self.path = Path(path)
        self.own_bus = bus is None
        self.bus = bus if bus is not None else TelemetryBus()
        self.recorder = FlightRecorder(
            capacity if capacity > 0 else DEFAULT_RECORDER_CAPACITY
        ).attach(self.bus)
        self.metrics = metrics
        self.plan = plan
        self.fault_plan = fault_plan
        self.checkpoint_path = checkpoint_path
        self.tracker = tracker
        self.meta = dict(meta or {})
        self.written: Path | None = None

    def wants(self, exc: BaseException) -> bool:
        return isinstance(exc, (ReproError, KeyboardInterrupt))

    def capture(self, exc: BaseException) -> Path | None:
        """Write the bundle for ``exc``; returns the path or ``None``."""
        if self.written is not None:
            return self.written
        if not self.wants(exc):
            return None
        try:
            self.bus.drain(timeout=2.0)
            self.written = write_failure_bundle(
                self.path,
                error=exc,
                recorder=self.recorder,
                metrics=self.metrics,
                plan=self.plan,
                fault_plan=self.fault_plan,
                checkpoint_path=self.checkpoint_path,
                tracker=self.tracker,
                meta=self.meta,
            )
            return self.written
        except Exception as write_exc:  # never mask the original failure
            print(
                f"failed to write failure bundle {self.path}: {write_exc}",
                file=sys.stderr,
            )
            return None

    def close(self) -> None:
        """Detach the recorder (and stop a privately created bus)."""
        self.recorder.detach()
        if self.own_bus:
            self.bus.close()
