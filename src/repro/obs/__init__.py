"""Observability subsystem: metrics registry, tracing, exposition.

Three stdlib-only layers (PR 10):

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` instances of
  counters/gauges/histograms/summaries with exact, lock-free hot-path
  bumps (per-thread cells; snapshot-time math only) and a Prometheus
  text renderer.  The engine (memo caches, native builds, backend
  dispatch) registers on the process-wide :data:`REGISTRY`; each
  server keeps its own registry and exports it there while running.
* :mod:`repro.obs.tracing` — ``trace_id``/span context that rides the
  ndJSON protocol, microsecond monotonic timestamps, and the bounded
  span ring behind the slow-query log.
* :mod:`repro.obs.httpd` — the ``--obs-port`` HTTP thread serving
  ``GET /metrics`` and ``GET /healthz``.
"""

from repro.obs.httpd import ObsHttpServer
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
    Summary,
    enabled,
    get_registry,
    merge_families,
    render_prometheus,
    set_enabled,
)
from repro.obs.tracing import (
    Span,
    SpanRing,
    Trace,
    new_trace_id,
    now_us,
    parse_trace_field,
)

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsHttpServer",
    "REGISTRY",
    "Span",
    "SpanRing",
    "Summary",
    "Trace",
    "enabled",
    "get_registry",
    "merge_families",
    "new_trace_id",
    "now_us",
    "parse_trace_field",
    "render_prometheus",
    "set_enabled",
]
