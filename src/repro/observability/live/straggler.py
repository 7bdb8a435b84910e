"""Detect live drift from the planned timing prediction.

The scheduler priced every kernel kind before the run started (the
ProfileStore timing model, or flops as a last resort).
:class:`StragglerDetector` subscribes to ``task.finish`` events and
compares each observed per-tile duration against its prediction:

* **task stragglers** — one task ran ``>= factor x`` its predicted
  duration (and above an absolute noise floor): a ``straggler`` event
  is published back onto the bus, ``live.straggler.events`` counts it,
  and ``live.straggler.ratio`` histograms the overshoot;
* **device drift** — a device's EWMA of observed/predicted ratios is
  tracked in the ``live.drift.<device>`` gauge; when it crosses the
  factor a ``drift`` event fires (once per crossing, re-armed when the
  device recovers below the factor).

Kinds with no prediction calibrate on the fly against the fleet-wide
EWMA of that kind's live durations, so a straggling device still stands
out relative to its peers even with no ProfileStore.

Every detection appends a :class:`StragglerRecord` — the same
decide/observe/act shape as the planner's DecisionAudit — so the
future online re-planner (ROADMAP item 5) can consume the records
directly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ...dag.tasks import TaskKind
from .bus import LiveEvent, TelemetryBus
from .progress import EWMA_ALPHA, _single_kind

#: A task must overshoot its prediction by this factor to be flagged.
DEFAULT_FACTOR = 2.0
#: ... and by at least this many absolute seconds (noise floor): a 5 µs
#: kernel taking 15 µs is scheduler jitter, not a straggler.
DEFAULT_MIN_SECONDS = 1e-3


@dataclass(frozen=True)
class StragglerRecord:
    """One detection, audit-style: prediction, observation, verdict."""

    t: float
    device: str
    task: str
    kind: str
    predicted_seconds: float
    observed_seconds: float
    ratio: float
    source: str  # "profile" (planned prediction) or "fleet-ewma"

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def predicted_durations(
    profile,
    tile_size: int,
    device: str | None = None,
) -> dict[str, float]:
    """Per-tile predicted seconds per kernel kind from a ProfileStore.

    Pools over the store's measurements exactly like the planner's
    :func:`~repro.dag.analysis.task_weight_model`; kinds the store has
    never seen are absent (the detector then falls back to fleet EWMA).
    """
    out: dict[str, float] = {}
    if profile is None:
        return out
    for kind in TaskKind:
        if kind.is_batch:
            continue
        st = profile.stats(kind, device=device, tile_size=tile_size)
        if st is not None and st.mean_seconds > 0.0:
            out[kind.value] = st.mean_seconds
    return out


class StragglerDetector:
    """Flag tasks/devices whose live durations drift from prediction."""

    def __init__(
        self,
        predicted: dict[str, float] | None = None,
        factor: float = DEFAULT_FACTOR,
        min_seconds: float = DEFAULT_MIN_SECONDS,
        metrics=None,
        bus: TelemetryBus | None = None,
    ):
        if factor <= 1.0:
            raise ValueError(f"straggler factor must be > 1, got {factor}")
        self.predicted = dict(predicted or {})
        self.factor = float(factor)
        self.min_seconds = float(min_seconds)
        self.metrics = metrics
        self.bus = bus
        self._lock = threading.Lock()
        self._fleet_ewma: dict[str, float] = {}
        self._device_ratio: dict[str, float] = {}
        self._drifting: set[str] = set()
        self.records: list[StragglerRecord] = []

    def attach(self, bus: TelemetryBus) -> "StragglerDetector":
        self.bus = bus
        bus.subscribe(self.on_event)
        return self

    # -- event folding ----------------------------------------------------

    def on_event(self, event: LiveEvent) -> None:
        if event.type != "task.finish":
            return
        data = event.data
        kind = _single_kind(data.get("kind"))
        col = int(data.get("col", 0))
        col_end = int(data.get("col_end", -1))
        ncols = (col_end - col) if col_end > col else 1
        observed = float(data.get("duration", 0.0)) / max(1, ncols)
        if observed <= 0.0:
            return
        with self._lock:
            predicted = self.predicted.get(kind)
            source = "profile"
            if predicted is None or predicted <= 0.0:
                predicted = self._fleet_ewma.get(kind)
                source = "fleet-ewma"
            prev = self._fleet_ewma.get(kind)
            self._fleet_ewma[kind] = (
                observed
                if prev is None
                else (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * observed
            )
            if predicted is None or predicted <= 0.0:
                return  # first sighting of this kind: nothing to compare yet
            ratio = observed / predicted
            dev_prev = self._device_ratio.get(event.device)
            dev_ratio = (
                ratio
                if dev_prev is None
                else (1.0 - EWMA_ALPHA) * dev_prev + EWMA_ALPHA * ratio
            )
            self._device_ratio[event.device] = dev_ratio
        if self.metrics is not None:
            self.metrics.gauge(f"live.drift.{event.device}").set(dev_ratio)
        task_label = "{}[{},{}]k{}".format(
            kind, data.get("row"), data.get("col"), data.get("k")
        )
        if ratio >= self.factor and observed - predicted >= self.min_seconds:
            record = StragglerRecord(
                t=event.t,
                device=event.device,
                task=task_label,
                kind=kind,
                predicted_seconds=predicted,
                observed_seconds=observed,
                ratio=ratio,
                source=source,
            )
            with self._lock:
                self.records.append(record)
            if self.metrics is not None:
                self.metrics.counter("live.straggler.events").inc()
                self.metrics.histogram("live.straggler.ratio").observe(ratio)
            if self.bus is not None:
                self.bus.publish(
                    "straggler", event.device, record.to_dict(), t=event.t
                )
        self._check_drift(event.device, dev_ratio, event.t)

    def _check_drift(self, device: str, dev_ratio: float, t: float) -> None:
        with self._lock:
            was = device in self._drifting
            now = dev_ratio >= self.factor
            if now and not was:
                self._drifting.add(device)
            elif was and not now:
                self._drifting.discard(device)
                return
            if not now or was:
                return
        if self.metrics is not None:
            self.metrics.counter(f"live.drift.{device}.crossings").inc()
        if self.bus is not None:
            self.bus.publish("drift", device, {"ratio": dev_ratio}, t=t)

    # -- reporting --------------------------------------------------------

    @property
    def device_drift(self) -> dict[str, float]:
        with self._lock:
            return dict(self._device_ratio)

    def report(self) -> str:
        with self._lock:
            records = list(self.records)
            drift = dict(self._device_ratio)
        lines = [f"stragglers: {len(records)} (factor >= {self.factor:g})"]
        for r in records:
            lines.append(
                f"  {r.task} on {r.device}: observed {r.observed_seconds:.6f}s vs "
                f"predicted {r.predicted_seconds:.6f}s (x{r.ratio:.2f}, {r.source})"
            )
        if drift:
            lines.append("device drift (ewma observed/predicted):")
            for dev in sorted(drift):
                lines.append(f"  {dev}: x{drift[dev]:.2f}")
        return "\n".join(lines)
