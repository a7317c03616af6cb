"""Online liveness auditor for the protocol event stream.

The safety auditor (:mod:`repro.obs.audit`) checks that nothing *bad*
happens; this module checks that something *good* keeps happening.  The
specification follows Bravo, Chockler & Gotsman ("Liveness and Latency of
Byzantine SMR"): after the global stabilization time (GST), every submitted
request must commit — and reply — within a bounded amount of time.  The
auditor subscribes to the :class:`~repro.obs.events.EventLog` and tracks
every request's lifecycle from ``request-submitted`` (client station)
through ``decide``/``execute`` (replicas) to ``request-replied`` (reply
quorum met), plus the regency timeline from ``leader-change`` events.

Invariants
----------
``bounded-latency``
    Every request submitted at time ``s`` is replied by
    ``max(s, gst) + bound``.  A reply after the deadline violates it
    immediately; a request still outstanding when the run's horizon passes
    its deadline violates it at :meth:`finalize`.
``no-wedge``
    The system never performs ``wedge_k`` consecutive regency changes with
    zero decisions in between — the signature of a synchronizer livelock
    (e.g. a fixed timeout smaller than the actual message delay, where each
    SYNC is overtaken by the next escalation).

Violations reuse :class:`~repro.obs.audit.Violation` and
:class:`~repro.obs.audit.AuditError`, so the bench CLI's exit-code
convention (2 on violation) applies unchanged.  Only the first
``max_flagged`` late requests produce ``Violation`` records (a wedged run
would otherwise drown the report); the full count is always tallied.

Beyond pass/fail, the auditor aggregates the run's liveness story for the
JSON report (:meth:`summary`): the regency timeline (when each regency was
installed, by which leader, under which timeout, and how many decisions it
made) and per-regency latency attribution (each reply attributed to the
regency in charge when it completed).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.audit import Auditor
from repro.obs.events import EventLog, ProtocolEvent

__all__ = ["LIVENESS_INVARIANTS", "LivenessAuditor", "audit_liveness_log"]

#: Names of the invariants the liveness auditor enforces.
LIVENESS_INVARIANTS = ("bounded-latency", "no-wedge")


class LivenessAuditor(Auditor):
    """Tracks request lifecycles and regency churn against a liveness spec.

    Parameters
    ----------
    bound:
        Post-GST latency bound in simulated seconds: every request
        submitted at ``s`` must be replied by ``max(s, gst) + bound``.
    gst:
        Global stabilization time.  Requests submitted before it get their
        deadline measured from the GST (pre-GST asynchrony is excused, as
        in the partial-synchrony model).
    wedge_k:
        Number of consecutive zero-decision regency changes that count as
        a wedge.
    strict:
        Raise :class:`AuditError` at the first violation instead of
        collecting them.
    max_flagged:
        Cap on ``bounded-latency`` Violation records kept (the total count
        is tallied regardless).
    scope, shard:
        Audit only shard ``shard``'s events (see :class:`Auditor`).
        Stations are shard-homed, so a request is judged against its home
        shard's bound and regency timeline.
    """

    section = "liveness"
    config_keys = frozenset({"invariants", "bound_s", "gst_s", "wedge_k"})

    def __init__(self, bound: float = 1.0, gst: float = 0.0,
                 wedge_k: int = 4, strict: bool = False,
                 max_flagged: int = 10,
                 scope: Callable[[int], int] | None = None, shard: int = 0):
        super().__init__(strict=strict, scope=scope, shard=shard)
        self.bound = float(bound)
        self.gst = float(gst)
        self.wedge_k = int(wedge_k)
        self.max_flagged = max_flagged
        self.finalized = False
        # Request lifecycle: key -> submit time / (submit, reply) times.
        self._outstanding: dict[tuple[int, int], float] = {}
        self._submitted = 0
        self._replied = 0
        self._late_replies = 0   # total past-deadline replies (capped flags)
        self._late_outstanding = 0
        self._max_latency = 0.0
        # Regency timeline: one entry per installed regency, cluster-wide
        # (the first replica to install it creates the entry).
        self._timeline: list[dict[str, Any]] = [
            {"regency": 0, "installed_at": 0.0, "leader": 0,
             "timeout": None, "decisions": 0}]
        self._seen_regencies = {0}
        # Wedge detection: unique decided cids, and consecutive regency
        # changes without a fresh decision in between.
        self._decided_cids: set[int] = set()
        self._changes_without_progress = 0
        self._wedge_flagged = False
        # Per-regency latency attribution (replies bucketed by the regency
        # in charge when they completed).
        self._latency_by_regency: dict[int, list[float]] = {}
        self._watchdog_fires = 0

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _check(self, event: ProtocolEvent) -> None:
        self.events_checked += 1
        kind = event.kind
        if kind == "request-submitted":
            self._on_submit(event)
        elif kind == "request-replied":
            self._on_reply(event)
        elif kind == "decide":
            self._on_decide(event)
        elif kind == "leader-change":
            self._on_leader_change(event)
        elif kind == "watchdog-fired":
            self._watchdog_fires += 1

    def _deadline(self, submitted: float) -> float:
        return max(submitted, self.gst) + self.bound

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def _on_submit(self, event: ProtocolEvent) -> None:
        client = event.fields.get("client")
        req = event.fields.get("req")
        if client is None or req is None:
            return
        self._submitted += 1
        self._outstanding[(client, req)] = event.time

    def _on_reply(self, event: ProtocolEvent) -> None:
        client = event.fields.get("client")
        req = event.fields.get("req")
        submitted = self._outstanding.pop((client, req), None)
        if submitted is None:
            return
        self._replied += 1
        latency = event.time - submitted
        if latency > self._max_latency:
            self._max_latency = latency
        regency = self._timeline[-1]["regency"]
        self._latency_by_regency.setdefault(regency, []).append(latency)
        deadline = self._deadline(submitted)
        if event.time > deadline:
            self._late_replies += 1
            if len(self.violations) < self.max_flagged:
                self._flag(
                    "bounded-latency",
                    f"request ({client}, {req}) submitted at "
                    f"t={submitted:.3f} replied at t={event.time:.3f} — "
                    f"{event.time - deadline:.3f}s past its deadline "
                    f"(max(submit, gst={self.gst:.3f}) + "
                    f"bound={self.bound:.3f})",
                    event, client=client, req=req, submitted=submitted,
                    deadline=deadline, latency=latency)

    # ------------------------------------------------------------------
    # Regency churn / wedge detection
    # ------------------------------------------------------------------
    def _on_decide(self, event: ProtocolEvent) -> None:
        cid = event.fields.get("cid")
        if cid is None or cid in self._decided_cids:
            return
        self._decided_cids.add(cid)
        self._changes_without_progress = 0
        self._wedge_flagged = False
        self._timeline[-1]["decisions"] += 1

    def _on_leader_change(self, event: ProtocolEvent) -> None:
        regency = event.fields.get("regency")
        if regency is None or regency in self._seen_regencies:
            return  # later replicas installing the same regency
        self._seen_regencies.add(regency)
        self._timeline.append({
            "regency": regency,
            "installed_at": event.time,
            "leader": event.fields.get("leader"),
            "timeout": event.fields.get("timeout"),
            "decisions": 0,
        })
        self._changes_without_progress += 1
        if (self._changes_without_progress >= self.wedge_k
                and not self._wedge_flagged):
            self._wedge_flagged = True
            first = self._timeline[-self._changes_without_progress]
            self._flag(
                "no-wedge",
                f"{self._changes_without_progress} consecutive regency "
                f"changes (r{first['regency']}..r{regency}) with zero "
                f"decisions in between (wedge_k={self.wedge_k}) — the "
                f"synchronizer is livelocked",
                event, first_regency=first["regency"],
                last_regency=regency,
                changes=self._changes_without_progress)

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self, horizon: float) -> "LivenessAuditor":
        """Judge still-outstanding requests against the run's horizon.

        A request whose deadline lies beyond the horizon is not a
        violation — the run simply ended too early to tell.
        """
        self.finalized = True
        for key, submitted in sorted(self._outstanding.items(),
                                     key=lambda item: (item[1], item[0])):
            deadline = self._deadline(submitted)
            if horizon <= deadline:
                continue
            self._late_outstanding += 1
            if len(self.violations) < self.max_flagged:
                event = ProtocolEvent(
                    time=horizon, seq=-1, kind="request-submitted",
                    node=-1, fields={"client": key[0], "req": key[1]})
                self._flag(
                    "bounded-latency",
                    f"request {key} submitted at t={submitted:.3f} still "
                    f"outstanding at the horizon t={horizon:.3f} "
                    f"(deadline was t={deadline:.3f})",
                    event, client=key[0], req=key[1], submitted=submitted,
                    deadline=deadline)
        return self

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        latency_by_regency = {}
        for regency in sorted(self._latency_by_regency):
            samples = self._latency_by_regency[regency]
            latency_by_regency[str(regency)] = {
                "count": len(samples),
                "mean_s": sum(samples) / len(samples),
                "max_s": max(samples),
            }
        return {
            "invariants": list(LIVENESS_INVARIANTS),
            "bound_s": self.bound,
            "gst_s": self.gst,
            "wedge_k": self.wedge_k,
            "events_checked": self.events_checked,
            "submitted": self._submitted,
            "replied": self._replied,
            "outstanding": len(self._outstanding),
            "max_latency_s": self._max_latency,
            "late_replies": self._late_replies,
            "late_outstanding": self._late_outstanding,
            "watchdog_fires": self._watchdog_fires,
            "regency_changes": len(self._timeline) - 1,
            "regency_timeline": [dict(entry) for entry in self._timeline],
            "latency_by_regency": latency_by_regency,
            "violations": [v.to_json() for v in self.violations],
        }

    def shard_summary(self) -> dict[str, Any]:
        """The summary with timeline entries tagged by shard and latency
        buckets keyed ``s<shard>/r<regency>``, so shards stay apart."""
        summary = self.summary()
        summary["regency_timeline"] = [
            {"shard": self.shard, **entry}
            for entry in summary["regency_timeline"]]
        summary["latency_by_regency"] = {
            f"s{self.shard}/r{regency}": stats
            for regency, stats in summary["latency_by_regency"].items()}
        return summary

    @classmethod
    def _combine(cls, key: str, merged: Any, value: Any) -> Any:
        if key == "max_latency_s":
            return max(merged, value)
        if key == "latency_by_regency":
            return {**merged, **value}
        return super()._combine(key, merged, value)


def audit_liveness_log(log: EventLog, horizon: float, bound: float = 1.0,
                       gst: float = 0.0, wedge_k: int = 4) -> LivenessAuditor:
    """Run the liveness auditor over an already-recorded event log."""
    auditor = LivenessAuditor(bound=bound, gst=gst, wedge_k=wedge_k)
    for event in sorted(log, key=lambda e: e.sort_key):
        auditor.on_event(event)
    return auditor.finalize(horizon)
