"""Live telemetry export: OpenMetrics text exposition and JSONL events.

PR 2 made every layer record into :class:`~repro.obs.metrics.MetricsRegistry`
snapshots; this module gets those numbers *out* of a long-lived
``repro serve`` process while jobs are still running:

* :func:`to_openmetrics` renders a snapshot as OpenMetrics/Prometheus
  text exposition — the same formatter backs the serve endpoint and
  ``repro stats --format=openmetrics``, so one-shot runs and the live
  endpoint emit byte-compatible text.
* :class:`MetricsExporter` serves that text over HTTP (``GET /metrics``)
  from a daemon thread, pulling a fresh snapshot per scrape via a
  caller-supplied collect callback.
* :class:`EventLogWriter` appends machine-readable JSONL telemetry events
  (heartbeats, job transitions) for tail-based pipelines.

Metric naming: dotted registry names map to ``repro_``-prefixed
underscore names (``dd.unique.hits`` → ``repro_dd_unique_hits``), counters
gain the ``_total`` suffix, histograms expand into cumulative ``le``
buckets plus ``_sum``/``_count``.  Each ``# HELP`` line carries
``source=<dotted.name>`` so the original registry name remains greppable
in the exposition — operators (and the CI smoke test) can search for
``service.queue.depth`` without knowing the mangling rules.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, IO, Iterable, List, Optional, Tuple

from .appendlog import complete_length, read_log, read_records
from .metrics import MetricsRegistry

__all__ = [
    "CONTENT_TYPE",
    "to_openmetrics",
    "escape_label_value",
    "MetricsExporter",
    "EventLogWriter",
    "read_event_log",
]

#: OpenMetrics exposition content type (Prometheus scrapes accept it too).
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"


def escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics ABNF (backslash, quote, LF)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _metric_name(name: str) -> str:
    """Map a dotted registry name onto an exposition-legal metric name."""
    cleaned = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch == "_")) else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _format_labels(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    parts = [
        f'{key}="{escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    ]
    return "{" + ",".join(parts) + "}"


def to_openmetrics(
    snapshot: Optional[Dict[str, object]],
    labeled_gauges: Iterable[Tuple[str, Dict[str, str], float]] = (),
) -> str:
    """Render a metrics snapshot as OpenMetrics text exposition.

    ``labeled_gauges`` adds gauge samples with explicit label sets — the
    serve endpoint uses it for live per-property estimate streams, e.g.
    ``("job.estimate.halfwidth", {"property": "fidelity", "job": key}, 0.02)``.
    Multiple entries may share a metric name (one sample per label set).
    The output always terminates with the mandatory ``# EOF`` line.
    """
    lines: List[str] = []
    snapshot = snapshot or {}

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"# HELP {metric} source={name}")
        lines.append(f"{metric}_total {_format_value(float(value))}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"# HELP {metric} source={name}")
        lines.append(f"{metric} {_format_value(float(value))}")

    grouped: Dict[str, List[Tuple[Dict[str, str], float]]] = {}
    order: List[Tuple[str, str]] = []
    for name, labels, value in labeled_gauges:
        if name not in grouped:
            grouped[name] = []
            order.append((name, _metric_name(name)))
        grouped[name].append((dict(labels), float(value)))
    for name, metric in sorted(order, key=lambda item: item[1]):
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"# HELP {metric} source={name}")
        for labels, value in grouped[name]:
            lines.append(f"{metric}{_format_labels(labels)} {_format_value(value)}")

    for name, data in sorted(snapshot.get("histograms", {}).items()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        lines.append(f"# HELP {metric} source={name}")
        cumulative = 0
        for bound, bucket in zip(data["bounds"], data["counts"]):
            cumulative += int(bucket)
            lines.append(
                f'{metric}_bucket{{le="{_format_value(float(bound))}"}} {cumulative}'
            )
        total_count = int(data["count"])
        lines.append(f'{metric}_bucket{{le="+Inf"}} {total_count}')
        lines.append(f"{metric}_sum {_format_value(float(data['sum']))}")
        lines.append(f"{metric}_count {total_count}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class MetricsExporter:
    """HTTP endpoint serving OpenMetrics text from a collect callback.

    ``collect`` runs on the scrape thread and must return the exposition
    body (use :func:`to_openmetrics`); exceptions become HTTP 500 rather
    than killing the server.  Port 0 binds an ephemeral port — read the
    bound one from :attr:`port`.  The server runs on a daemon thread so a
    crashing serve loop never hangs on it.
    """

    def __init__(
        self,
        collect: Callable[[], str],
        port: int = 0,
        host: str = "127.0.0.1",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._collect = collect
        self._registry = registry
        exporter = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404, "only /metrics is served")
                    return
                try:
                    body = exporter._collect().encode("utf-8")
                except Exception as exc:  # pragma: no cover - defensive
                    self.send_error(500, f"collect failed: {exc}")
                    return
                if exporter._registry is not None:
                    exporter._registry.counter("export.scrapes").inc()
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt: str, *args: object) -> None:
                pass  # scrapes are telemetry, not access-log material

        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ephemeral port 0)."""
        return int(self._server.server_address[1])

    @property
    def url(self) -> str:
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsExporter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class EventLogWriter:
    """Append-only JSONL telemetry event stream (one JSON object per line).

    Thread-safe, flushed *and fsync'd* per event (default) so the log
    survives a hard process death with at worst one torn trailing line —
    which :func:`read_event_log` skips on the way back in, and which the
    next writer cuts off at open, so its first event starts a line of its
    own instead of being glued onto the fragment.  For very
    high event rates, ``fsync_interval`` batches the fsync (the flush
    still happens per event, so ``tail -f`` pipelines stay live; only
    crash durability is amortised).  Events are plain dictionaries; the
    writer stamps nothing, so callers control the schema (serve adds
    ``event`` and ``ts`` keys).
    """

    def __init__(
        self,
        path: str,
        registry: Optional[MetricsRegistry] = None,
        fsync_interval: float = 0.0,
    ) -> None:
        self.path = path
        self.fsync_interval = fsync_interval
        self._registry = registry
        self._lock = threading.Lock()
        self._last_fsync = 0.0
        self._handle: Optional[IO[str]] = open(path, "a", encoding="utf-8")
        self._handle.truncate(complete_length(read_log(path)))

    def write(self, event: Dict[str, object]) -> None:
        line = json.dumps(event, sort_keys=True, default=str)
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            now = time.monotonic()
            if self.fsync_interval <= 0.0 or (
                now - self._last_fsync >= self.fsync_interval
            ):
                try:
                    os.fsync(self._handle.fileno())
                    self._last_fsync = now
                except OSError:
                    pass  # durability is best-effort; the stream stays live
        if self._registry is not None:
            self._registry.counter("export.events.written").inc()

    def flush(self) -> None:
        """Force buffered events to disk (drain path)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                try:
                    os.fsync(self._handle.fileno())
                except OSError:
                    pass

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                try:
                    os.fsync(self._handle.fileno())
                except (OSError, ValueError):
                    pass
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_event_log(path: str) -> List[Dict[str, object]]:
    """Parse a JSONL event log, tolerating a crash-torn trailing line.

    A process killed mid-append leaves at most one incomplete final line;
    that line (and any non-object line) is skipped rather than raised, so
    post-crash logs are always readable.  A missing file reads as empty.
    """
    return read_records(read_log(path))
