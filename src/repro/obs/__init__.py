"""repro.obs — pipeline-wide observability: tracing, metrics, profiling.

Three instruments over one design rule — *observe, never steer*:

* :mod:`repro.obs.tracing` — nestable spans with monotonic timings, phase
  timers, counters and attributes; zero-cost when disabled, deterministic
  JSON serialization.  Threaded through the solver stages, the MAPF search
  internals, the sim engine's event loop and the service request path.
  :func:`~repro.obs.tracing.stage` is the one source of stage times: the
  seconds it records are what ``WSPSolution.timings``, run records and
  ``repro_stage_seconds`` report and, while tracing, the stage span's own
  duration.
* :mod:`repro.obs.metrics` — a process-safe registry of counters, gauges and
  fixed-bucket histograms; spawn-based workers serialize snapshots back to
  the parent so fleet-wide metrics aggregate exactly.  Exported as JSON and
  Prometheus text exposition format.
* :mod:`repro.obs.profiling` — a cProfile + span-tree harness behind the
  ``repro profile`` CLI subcommand.
* :mod:`repro.obs.events` — a process-safe structured event log (JSONL
  records with wall+monotonic timestamps and propagated run/request
  context): the live operational layer behind the ``/events`` SSE stream,
  ``repro top`` and the sweep progress line.
* :mod:`repro.obs.alerts` — declarative threshold rules with sustained-
  breach hysteresis evaluated over registry snapshots; the non-zero-exit
  alert gate of ``repro loadtest`` / ``repro sweep``.
"""

from .alerts import (
    AlertError,
    AlertMonitor,
    AlertRule,
    HISTOGRAM_STATS,
    RuleEngine,
    baseline_rule,
    parse_rules,
    resolve_metric,
)
from .events import (
    CONTEXT_KEYS,
    EVENT_LEVELS,
    Event,
    EventError,
    EventLog,
    current_context,
    emit_event,
    event_context,
    get_event_log,
    read_events,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    get_registry,
)
from .profiling import ProfileResult, profile_call, span_phase_totals
from .tracing import (
    NULL_SPAN,
    Span,
    TraceCapture,
    capture_trace,
    current_span,
    disable_tracing,
    drain_spans,
    enable_tracing,
    span,
    span_to_dict,
    stage,
    tracing_enabled,
)

__all__ = [
    "AlertError",
    "AlertMonitor",
    "AlertRule",
    "CONTEXT_KEYS",
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENT_LEVELS",
    "Event",
    "EventError",
    "EventLog",
    "HISTOGRAM_STATS",
    "RuleEngine",
    "baseline_rule",
    "current_context",
    "emit_event",
    "event_context",
    "get_event_log",
    "parse_rules",
    "read_events",
    "resolve_metric",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NULL_SPAN",
    "ProfileResult",
    "Span",
    "TraceCapture",
    "capture_trace",
    "current_span",
    "disable_tracing",
    "drain_spans",
    "enable_tracing",
    "get_registry",
    "profile_call",
    "span",
    "span_phase_totals",
    "span_to_dict",
    "stage",
    "tracing_enabled",
]
