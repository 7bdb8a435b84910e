"""Runtime observability: tracing, metrics, exporters, trace analysis.

The real runtimes and the simulators share one trace schema
(:class:`~repro.sim.trace.ExecutionTrace`), so everything here works on
both.  Typical use::

    from repro import ThreadedRuntime
    from repro.observability import MetricsRegistry, Tracer

    metrics = MetricsRegistry()
    tracer = Tracer(metrics=metrics)
    f = ThreadedRuntime(num_workers=4, tracer=tracer).factorize(a)
    trace = tracer.to_trace()          # same schema the simulator emits

See ``docs/OBSERVABILITY.md`` for the span API, metric names, the JSONL
schema, and the ``tiledqr trace`` CLI.
"""

from .analysis import (
    KernelDiff,
    TraceDiff,
    TraceSummary,
    device_utilization,
    diff_traces,
    expand_batched,
    kernel_counts,
    kernel_times,
    summarize_trace,
    trace_critical_path,
)
from .decisions import (
    Candidate,
    DecisionAudit,
    DecisionRecord,
    device_step_inputs,
    explain_plan,
)
from .export import dump_jsonl, load_jsonl, provenance_meta, trace_lines, write_jsonl
from .metrics import KERNEL_FLOPS, Counter, Gauge, Histogram, MetricsRegistry, kernel_flops
from .live import (
    HeartbeatMonitor,
    JsonlStreamSink,
    LiveEvent,
    ProgressSnapshot,
    ProgressTracker,
    StragglerDetector,
    StragglerRecord,
    TelemetryBus,
    predicted_durations,
    read_live_events,
    render_dashboard,
)
from .postmortem import (
    BUNDLE_SCHEMA_VERSION,
    BundleCapture,
    FailureBundle,
    FlightRecorder,
    PostmortemReport,
    analyze_bundle,
    classify_error,
    write_failure_bundle,
)
from .profile import KernelEntry, KernelStats, ProfileStore, RunProfile
from .tracer import NULL_TRACER, Tracer

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "KERNEL_FLOPS",
    "kernel_flops",
    "dump_jsonl",
    "write_jsonl",
    "load_jsonl",
    "trace_lines",
    "provenance_meta",
    "summarize_trace",
    "diff_traces",
    "expand_batched",
    "TraceSummary",
    "TraceDiff",
    "KernelDiff",
    "kernel_times",
    "kernel_counts",
    "device_utilization",
    "trace_critical_path",
    "ProfileStore",
    "RunProfile",
    "KernelEntry",
    "KernelStats",
    "DecisionAudit",
    "DecisionRecord",
    "Candidate",
    "device_step_inputs",
    "explain_plan",
    "TelemetryBus",
    "LiveEvent",
    "HeartbeatMonitor",
    "ProgressTracker",
    "ProgressSnapshot",
    "StragglerDetector",
    "StragglerRecord",
    "JsonlStreamSink",
    "read_live_events",
    "render_dashboard",
    "predicted_durations",
    "FlightRecorder",
    "BundleCapture",
    "FailureBundle",
    "BUNDLE_SCHEMA_VERSION",
    "write_failure_bundle",
    "classify_error",
    "analyze_bundle",
    "PostmortemReport",
]
