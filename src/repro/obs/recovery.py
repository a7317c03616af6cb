"""Online recovery auditor: does a recovered replica rejoin on the truth?

The safety auditor checks what replicas *say* while running; this auditor
checks what a crashed replica *rebuilds from its own disk*.  Verified
recovery (``docs/faults.md``, "Storage faults & verified recovery")
truncates the stable log to its longest checksum- and linkage-valid prefix
and replays only that; each ``recovering`` event carries the replayed
``(cid, recomputed batch hash)`` pairs as evidence.  The auditor compares
that evidence against the canonical decision stream (``decide`` events),
so a corrupted record that slips through unverified replay — the
``verify_recovery=False`` negative control — shows up as a divergence at
the exact recovery that resurrected it, *before* state transfer silently
heals the replica and hides the hole.

Invariants
----------
``recovery-divergence``
    A recovered replica's replayed prefix must match the canonical chain:
    every replayed cid's recomputed batch hash equals the decided batch
    hash for that cid.
``phantom-replay``
    A recovered replica must not replay a consensus id that was never
    decided (a corrupted cid field points the replay at history that does
    not exist).

The auditor also tallies the recovery/storage health events
(``log-corruption-detected``, ``snapshot-rejected``, ``recovery-fallback``,
``recovery-verified``, ``disk-degraded``) for the run report.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.audit import Auditor
from repro.obs.events import ProtocolEvent

__all__ = ["RECOVERY_INVARIANTS", "RecoveryAuditor", "audit_recovery_log"]

#: Names of the invariants the recovery auditor enforces.
RECOVERY_INVARIANTS = ("recovery-divergence", "phantom-replay")


class RecoveryAuditor(Auditor):
    """Checks recovery evidence against the canonical decision stream.

    With a ``scope`` (see :class:`Auditor`) an instance compares a
    shard's recoveries only against that shard's decisions.
    """

    INVARIANTS = RECOVERY_INVARIANTS
    section = "recovery"

    def __init__(self, strict: bool = False,
                 scope: Callable[[int], int] | None = None, shard: int = 0):
        super().__init__(strict=strict, scope=scope, shard=shard)
        # cid -> canonical batch hash hex from decide events.
        self._decided: dict[int, str] = {}
        # Health tallies.
        self.recoveries_seen = 0
        self.recoveries_verified = 0
        self.corruption_detected = 0
        self.snapshots_rejected = 0
        self.fallbacks = 0
        self.disk_degraded = 0
        self.replayed_checked = 0

    def summary(self) -> dict[str, Any]:
        return {
            "invariants": list(self.INVARIANTS),
            "events_checked": self.events_checked,
            "recoveries_seen": self.recoveries_seen,
            "recoveries_verified": self.recoveries_verified,
            "replayed_checked": self.replayed_checked,
            "corruption_detected": self.corruption_detected,
            "snapshots_rejected": self.snapshots_rejected,
            "fallbacks": self.fallbacks,
            "disk_degraded": self.disk_degraded,
            "violations": [v.to_json() for v in self.violations],
        }

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _check(self, event: ProtocolEvent) -> None:
        handler = getattr(
            self, "_on_" + event.kind.replace("-", "_"), None)
        if handler is None:
            return
        self.events_checked += 1
        handler(event)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_decide(self, event: ProtocolEvent) -> None:
        self._decided.setdefault(event.fields["cid"],
                                 event.fields["batch_hash"])

    def _on_recovering(self, event: ProtocolEvent) -> None:
        self.recoveries_seen += 1
        for cid, digest in event.fields.get("replayed", ()):
            self.replayed_checked += 1
            canonical = self._decided.get(cid)
            if canonical is None:
                self._flag(
                    "phantom-replay",
                    f"replica {event.node} replayed cid {cid}, which was "
                    "never decided",
                    event, cid=cid, replayed_hash=digest)
            elif canonical != digest:
                self._flag(
                    "recovery-divergence",
                    f"replica {event.node} replayed cid {cid} with batch "
                    f"hash {digest[:16]}…, but the group decided "
                    f"{canonical[:16]}…",
                    event, cid=cid, replayed_hash=digest,
                    decided_hash=canonical)

    def _on_recovery_verified(self, event: ProtocolEvent) -> None:
        self.recoveries_verified += 1

    def _on_log_corruption_detected(self, event: ProtocolEvent) -> None:
        self.corruption_detected += 1

    def _on_snapshot_rejected(self, event: ProtocolEvent) -> None:
        self.snapshots_rejected += 1

    def _on_recovery_fallback(self, event: ProtocolEvent) -> None:
        self.fallbacks += 1

    def _on_disk_degraded(self, event: ProtocolEvent) -> None:
        self.disk_degraded += 1


def audit_recovery_log(events, strict: bool = False) -> RecoveryAuditor:
    """Offline sweep: run the recovery auditor over recorded events."""
    auditor = RecoveryAuditor(strict=strict)
    for event in events:
        auditor.on_event(event)
    return auditor
