"""Observability: metrics, pipeline spans and resource accounting.

One :class:`Observability` object rides on a :class:`~repro.sim.engine
.Simulator` (``sim.obs``) and is visible to every component built on that
simulator — replicas, delivery layers, networks, resources, client
stations.  It is **disabled by default** and designed to be zero-cost in
that state: hot paths guard every record with a single ``if obs.enabled``
(or ``obs.trace_pipeline``) check, and components that register themselves
do so once at construction time.

Three concerns live here:

- :mod:`repro.obs.metrics` — a per-run registry of counters, gauges and
  histograms (the structured replacement for scraping ad-hoc statistics
  attributes off live objects);
- :mod:`repro.obs.spans` — span-based tracing of the request pipeline
  (client send → batch → PROPOSE → WRITE → ACCEPT → execute → body write →
  PERSIST → reply), yielding a per-phase latency breakdown;
- :mod:`repro.obs.report` — the machine-readable run report combining the
  above with per-resource busy fractions and network statistics.

Protocol-level concerns ride the same hook (``repro.obs`` v2):

- :mod:`repro.obs.events` — the typed, bounded protocol event stream
  (decide, view-change, persist-certificate, crash/recovery, ...);
- :mod:`repro.obs.audit` — the online safety auditor subscribed to that
  stream (agreement, no-fork, view monotonicity, 0-Persistence, the
  forgetting invariant);
- :mod:`repro.obs.liveness` — the online liveness auditor (bounded
  post-GST request latency, wedge detection over the regency timeline);
- :mod:`repro.obs.recovery` — the online recovery auditor (recovered
  replicas replay only the canonical chain);
- :mod:`repro.obs.shard` — the cross-shard no-double-mint auditor;
- :mod:`repro.obs.traceview` — Chrome trace-event export (Perfetto);
- :mod:`repro.obs.compare` — bench-report regression diffing
  (``--check-against``).
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import EVENT_KINDS, EventLog, ProtocolEvent
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import build_run_report, validate_report
from repro.obs.spans import CID_PHASES, PHASES, REQUEST_PHASES, PipelineTracer

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "PipelineTracer",
    "PHASES",
    "REQUEST_PHASES",
    "CID_PHASES",
    "EVENT_KINDS",
    "EventLog",
    "ProtocolEvent",
    "build_run_report",
    "validate_report",
]


class Observability:
    """Per-run observability state shared through ``sim.obs``.

    Parameters
    ----------
    enabled:
        Master switch for metrics and resource accounting.  ``False`` (the
        default) keeps the simulation on its fast path.
    trace_pipeline:
        Record pipeline spans.  Defaults to ``enabled``; can be switched
        off independently because request-level tracing is the costliest
        part (one record per sampled request per phase).
    pipeline_node:
        The replica whose pipeline view is traced for consensus-level
        phases (the initial leader, id 0, by default — its PROPOSE marks
        anchor the breakdown).
    sample_every:
        Trace one request in this many (deterministic in the request key).
    record_events:
        Record the typed protocol event stream (:mod:`repro.obs.events`).
        Defaults to ``enabled``; protocol layers guard every emission with
        a single ``if obs.record_events:`` check, so disabled runs pay
        nothing.
    event_capacity:
        Bound on retained protocol events (oldest dropped and counted).
    """

    def __init__(
        self,
        enabled: bool = False,
        trace_pipeline: bool | None = None,
        pipeline_node: int = 0,
        sample_every: int = 1,
        record_events: bool | None = None,
        event_capacity: int = 100_000,
    ) -> None:
        self.enabled = enabled
        self.trace_pipeline = enabled if trace_pipeline is None else trace_pipeline
        self.pipeline_node = pipeline_node
        self.metrics = MetricsRegistry()
        self.tracer = PipelineTracer(sample_every=sample_every)
        #: Guard attribute protocol layers check before emitting an event.
        self.record_events = enabled if record_events is None else record_events
        #: The typed protocol event stream (repro.obs.events).
        self.events = EventLog(capacity=event_capacity)
        #: Every attached online auditor (repro.obs.audit.Auditor), in
        #: attach order; the run report merges their summaries by section.
        self.auditors: list[Any] = []
        #: Every Resource constructed on the owning simulator (self-registered).
        self.resources: list[Any] = []
        #: Every Network constructed on the owning simulator (self-registered).
        self.networks: list[Any] = []

    # ------------------------------------------------------------------
    # Pipeline tracing helpers (guard with ``if obs.trace_pipeline:``)
    # ------------------------------------------------------------------
    def trace_cid(self, node_id: Any, cid: int, phase: str, now: float) -> None:
        """Record a consensus-level phase mark from the designated replica."""
        if node_id == self.pipeline_node:
            self.tracer.mark_cid(cid, phase, now)

    def trace_request(self, key: tuple[int, int], phase: str, now: float) -> bool:
        """Record a request-level mark if the key is sampled; returns whether
        the request is traced (so callers can skip follow-up work)."""
        if not self.tracer.sampled(key):
            return False
        self.tracer.mark_request(key, phase, now)
        return True

    # ------------------------------------------------------------------
    # Resource accounting
    # ------------------------------------------------------------------
    def resource_stats(self, horizon: float) -> list[dict[str, Any]]:
        """Busy fraction and queue statistics of every registered resource."""
        return [resource.stats(horizon) for resource in self.resources]

    def network_stats(self) -> list[dict[str, Any]]:
        return [network.stats() for network in self.networks]
