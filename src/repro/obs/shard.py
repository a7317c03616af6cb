"""The cross-shard auditor of sharded multi-chain runs.

Each shard's own safety, liveness and recovery invariants are checked by
shard-scoped instances of the ordinary auditors (``scope=`` on
:class:`~repro.obs.audit.Auditor`).  This module adds the one genuinely
*cross*-shard invariant, ``no-double-mint``: a transfer certificate burned
on its source shard is redeemed at most once on its destination shard.
Its summary is the run report's ``xshard`` section.
"""

from __future__ import annotations

from typing import Any

from repro.obs.audit import Auditor
from repro.obs.events import ProtocolEvent

__all__ = ["XSHARD_INVARIANTS", "CrossShardAuditor"]

#: The invariant the cross-shard auditor enforces on top of the per-shard
#: safety invariants.
XSHARD_INVARIANTS = ("no-double-mint",)


class CrossShardAuditor(Auditor):
    """Enforces ``no-double-mint`` over the cert-redemption event stream.

    Subscribes to ``cert-redeemed`` / ``cert-rejected`` events (emitted by
    :class:`~repro.apps.smartcoin.SmartCoin` via its event hook) and flags:

    - the same transfer certificate redeemed twice by one replica (the
      replicated mint is deterministic, so every correct replica redeems a
      transfer exactly once — a repeat means replay protection failed);
    - a rejection with ``replay=True`` — a client *presented* an
      already-redeemed certificate, i.e. an attempted double mint.  The
      attempt was refused, but a fault-free run never produces one, so the
      auditor surfaces it.

    Flags are deduplicated per transfer id: one misbehaving presentation
    hits ``n`` replicas, which is one violation, not ``n``.
    """

    section = "xshard"

    def __init__(self, strict: bool = False):
        super().__init__(strict=strict)
        #: (node, xfer id) -> redemption event (first occurrence)
        self._redeemed: dict[tuple[int, str], ProtocolEvent] = {}
        #: xfer id -> minted value (must agree across replicas)
        self._values: dict[str, int] = {}
        self._flagged: set[str] = set()

    @property
    def transfers(self) -> int:
        """Distinct transfer certificates redeemed at least once."""
        return len(self._values)

    def summary(self) -> dict[str, Any]:
        return {
            "invariants": list(XSHARD_INVARIANTS),
            "events_checked": self.events_checked,
            "transfers_redeemed": self.transfers,
            "violations": [v.to_json() for v in self.violations],
        }

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _check(self, event: ProtocolEvent) -> None:
        kind = event.kind
        if kind == "cert-redeemed":
            self.events_checked += 1
            self._on_redeemed(event)
        elif kind == "cert-rejected":
            self.events_checked += 1
            self._on_rejected(event)

    def _on_redeemed(self, event: ProtocolEvent) -> None:
        xfer = event.fields.get("xfer")
        value = event.fields.get("value")
        key = (event.node, xfer)
        first = self._redeemed.get(key)
        if first is not None:
            if xfer not in self._flagged:
                self._flagged.add(xfer)
                self._flag(
                    "no-double-mint",
                    f"transfer {xfer} redeemed twice on node {event.node} "
                    f"(first at t={first.time:.6f})",
                    event, xfer=xfer, node=event.node,
                    first_time=first.time)
            return
        self._redeemed[key] = event
        known = self._values.setdefault(xfer, value)
        if known != value and xfer not in self._flagged:
            self._flagged.add(xfer)
            self._flag(
                "no-double-mint",
                f"transfer {xfer} minted value {value} on node "
                f"{event.node} but {known} elsewhere",
                event, xfer=xfer, value=value, expected=known)

    def _on_rejected(self, event: ProtocolEvent) -> None:
        if not event.fields.get("replay"):
            return  # malformed/forged certificates are rejected, not flagged
        xfer = event.fields.get("xfer")
        if xfer in self._flagged:
            return
        self._flagged.add(xfer)
        self._flag(
            "no-double-mint",
            f"transfer {xfer} presented again after redemption "
            f"(double-mint attempt refused by node {event.node})",
            event, xfer=xfer, reason=event.fields.get("reason"))
