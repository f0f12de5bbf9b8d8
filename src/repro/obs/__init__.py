"""repro.obs — dependency-free observability: metrics, tracing, export.

The cross-cutting layer every subsystem reports into:

* ``repro.dd`` — unique/compute/complex-table hit rates, garbage-collection
  sweeps and reclaimed nodes, per-multiply node growth;
* ``repro.stochastic`` — per-trajectory latency, property-evaluation time,
  errors-fired counts;
* ``repro.service`` — chunk queue depth, retries, worker respawns, store
  hits/misses, checkpoint writes.

Snapshots are plain dictionaries that travel inside
:class:`~repro.stochastic.results.StochasticResult` from worker processes
back to the scheduler, merge associatively (:func:`merge_snapshots`), and
surface through ``repro-sim stats`` and the table harness's ``--metrics``
sidecar.

On top of the recording primitives sit three exit ramps:

* :mod:`repro.obs.export` — OpenMetrics text exposition (served live by
  ``repro serve --metrics-port`` and emitted one-shot by
  ``repro stats --format=openmetrics``) plus a JSONL event stream;
* :mod:`repro.obs.context` — deterministic cross-process trace contexts
  that stitch scheduler and worker spans into one per-job tree,
  exportable as Chrome ``trace_event`` JSON;
* :mod:`repro.obs.profile` — the ``REPRO_PROFILE``-gated DD hot-loop
  profiler behind ``repro profile --flame``.

Persisting across processes and restarts sits :mod:`repro.obs.ledger` —
the crash-safe per-circuit-family run ledger (``repro.ledger/v1``) whose
aggregates feed the measured dispatch cost model in
:mod:`repro.exact.cost` and the ``repro history`` CLI surface.  It and
the job journal are both :class:`repro.obs.appendlog.AppendLog` files.

See docs/OBSERVABILITY.md for the metric catalogue.
"""

from .context import (
    TraceContext,
    derive_span_id,
    job_trace_context,
    stitch_trace,
    to_chrome_trace,
    write_chrome_trace,
)
from .export import (
    CONTENT_TYPE,
    EventLogWriter,
    MetricsExporter,
    escape_label_value,
    read_event_log,
    to_openmetrics,
)
from .ledger import (
    FamilyAggregate,
    LEDGER_SCHEMA,
    LedgerState,
    RATE_BUCKETS,
    RunLedger,
    circuit_fingerprint,
    ledger_path,
    replay_ledger,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NODE_BUCKETS,
    TIME_BUCKETS,
    delta_snapshots,
    derive_rates,
    format_histogram,
    merge_snapshots,
)
from .profile import (
    HotLoopProfiler,
    PROFILE_ENV,
    attributed_seconds,
    folded_lines,
    merge_profiles,
    profiling_enabled,
)
from .tracing import NULL_TRACER, TraceEvent, Tracer

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "EventLogWriter",
    "FamilyAggregate",
    "Gauge",
    "Histogram",
    "HotLoopProfiler",
    "LEDGER_SCHEMA",
    "LedgerState",
    "MetricsExporter",
    "MetricsRegistry",
    "NODE_BUCKETS",
    "NULL_TRACER",
    "PROFILE_ENV",
    "RATE_BUCKETS",
    "RunLedger",
    "TIME_BUCKETS",
    "TraceContext",
    "TraceEvent",
    "Tracer",
    "attributed_seconds",
    "circuit_fingerprint",
    "delta_snapshots",
    "derive_rates",
    "derive_span_id",
    "escape_label_value",
    "folded_lines",
    "format_histogram",
    "job_trace_context",
    "ledger_path",
    "merge_profiles",
    "merge_snapshots",
    "profiling_enabled",
    "read_event_log",
    "replay_ledger",
    "stitch_trace",
    "to_chrome_trace",
    "to_openmetrics",
    "write_chrome_trace",
]
