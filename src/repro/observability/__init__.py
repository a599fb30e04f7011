"""Observability for the PACOR flow: tracing, metrics, profiling.

The flow's runtime is dominated by a handful of kernels — negotiation
A* (Alg. 1), min-cost-flow escape rounds (§5), bounded-length detour
search (§6) — and this subsystem makes that spend visible:

* :mod:`repro.observability.tracing` — nested wall-clock spans (per
  stage, per net, per negotiation/escape round) exported as JSONL and
  as Chrome ``chrome://tracing`` trace events.
* :mod:`repro.observability.metrics` — named effort counters and gauges
  (A* expansions/heap pushes, negotiation rounds, rip-up rounds, MCF
  augmenting paths, detour rounds, checkpoint bytes; catalogue in
  ``docs/observability.md``).
* :mod:`repro.observability.context` — the process-wide active
  tracer/metrics pair kernels reach without explicit plumbing; no-op
  singletons by default, so disabled instrumentation costs ~nothing.
* :mod:`repro.observability.profile` — the analysis behind
  ``pacor profile``: per-stage time table, top-k nets by expansions and
  the failed (and pruned) searches per net and stage.
* :mod:`repro.observability.validate` — JSONL/JSON schema validation
  for exported files (the CI gate).

Incidents and checkpoints carry the active span id, so degraded and
resumed runs stitch into one trace (``Tracer.link_resume``).
"""

from repro.observability.context import (
    clear,
    counter,
    gauge,
    install,
    metrics,
    span,
    tracer,
    use,
)
from repro.observability.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Metrics,
    NullMetrics,
)
from repro.observability.profile import (
    NetRow,
    StageRow,
    TraceProfile,
    format_profile,
    profile_spans,
    profile_trace_file,
)
from repro.observability.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    read_trace_jsonl,
)
from repro.observability.validate import (
    validate_metrics_doc,
    validate_metrics_file,
    validate_spans,
    validate_trace_file,
)

__all__ = [
    "Counter",
    "Gauge",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "read_trace_jsonl",
    "install",
    "clear",
    "use",
    "tracer",
    "metrics",
    "counter",
    "gauge",
    "span",
    "TraceProfile",
    "StageRow",
    "NetRow",
    "profile_spans",
    "profile_trace_file",
    "format_profile",
    "validate_spans",
    "validate_trace_file",
    "validate_metrics_doc",
    "validate_metrics_file",
]
