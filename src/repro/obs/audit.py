"""Online safety auditor for the protocol event stream.

The paper's core claims are protocol claims: no forks (Observation 3 /
Section V-D), 0-Persistence after full crashes (Observation 2 / Section
V-C), correct view change and key forgetting.  The auditor subscribes to
the :class:`~repro.obs.events.EventLog` and checks every event as it is
emitted, so a violation is detected *at* the event that exposes it — the
:class:`Violation` carries that event plus the cross-replica context that
contradicts it.

Invariants
----------
``agreement``
    Two replicas never decide different batch hashes for the same
    consensus id (``decide`` events).
``no-fork``
    Two replicas never hold different blocks at the same height, and no
    block ever contradicts a completed persist certificate for its height
    (``block-append`` / ``persist-certificate`` events).
``view-monotonicity``
    Installed view ids strictly increase per replica (``view-change``).
``persistence``
    After a *full* crash (every known replica crashed), the recovered
    group's best local chain still contains every certified block —
    0-Persistence; a certified block that no recovering replica holds was
    lost (``crash`` / ``recovering`` events).
``retired-key``
    The forgetting invariant: no persist certificate for a block above a
    reconfiguration point carries a view older than the view in effect at
    that height — such a certificate could only have been signed with
    retired (erased) consensus keys (``reconfig`` / ``persist-certificate``
    events).

``SafetyAuditor(strict=True)`` raises :class:`AuditError` at the violating
event; the default collects violations so the harness can fail the run at
the end with the complete list.

Every online auditor (safety here, :mod:`repro.obs.liveness`,
:mod:`repro.obs.recovery`, the cross-shard :mod:`repro.obs.shard`) derives
from :class:`Auditor`: one protocol for wiring (``attach``/``on_event``),
shard scoping, ``finalize``, ``violations`` and ``summary``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.obs.events import CLIENT_KINDS, EventLog, ProtocolEvent

__all__ = ["INVARIANTS", "Violation", "AuditError", "Auditor",
           "SafetyAuditor", "raise_if_violated", "audit_event_log"]

#: Names of the invariants the auditor enforces.
INVARIANTS = ("agreement", "no-fork", "view-monotonicity", "persistence",
              "retired-key")


@dataclass
class Violation:
    """One invariant breach, with the event that exposed it."""

    invariant: str
    message: str
    event: ProtocolEvent
    context: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "message": self.message,
            "event": self.event.to_json(),
            "context": {k: (v.hex() if isinstance(v, bytes) else v)
                        for k, v in self.context.items()},
        }

    def __str__(self) -> str:
        return (f"[{self.invariant}] {self.message} "
                f"(at t={self.event.time:.6f} node={self.event.node} "
                f"event={self.event.kind})")


class AuditError(Exception):
    """Raised when a run violated a safety invariant."""

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        lines = "\n  ".join(str(v) for v in self.violations)
        super().__init__(
            f"{len(self.violations)} safety violation(s):\n  {lines}")


class Auditor:
    """Base of the online auditors: wiring, shard scope and violations.

    Attach to a run with :meth:`attach` (subscribes to ``obs.events``,
    forces event recording on and joins ``obs.auditors``), or feed events
    directly via :meth:`on_event` for offline sweeps.

    ``scope`` maps a node id to its consensus group (shard) and ``shard``
    names the group this instance audits: events from other groups' nodes
    are dropped before they reach :meth:`_check`.  Consensus ids, block
    heights and regencies restart per group, so a sharded run needs one
    auditor per shard.  Events with ``node == -1`` (harness-level fault
    injection, finalize placeholders) reach every shard.  Without a scope
    every event is audited.
    """

    #: Run-report section the :meth:`summary` lands in; the report merges
    #: the summaries of same-section auditors (one per shard, :meth:`merge`).
    section = "audit"
    #: Summary keys that are configuration, equal across shards: a merge
    #: keeps the first shard's value.
    config_keys = frozenset({"invariants"})

    def __init__(self, strict: bool = False,
                 scope: Callable[[int], int] | None = None, shard: int = 0):
        self.strict = strict
        self.scope = scope
        self.shard = shard
        self.violations: list[Violation] = []
        self.events_checked = 0

    def attach(self, obs: Any) -> "Auditor":
        """Subscribe to a run's event stream (forces recording on)."""
        obs.record_events = True
        obs.events.subscribe(self.on_event)
        obs.auditors.append(self)
        return self

    def on_event(self, event: ProtocolEvent) -> None:
        scope = self.scope
        if (scope is not None and event.node >= 0
                and scope(event.node) != self.shard):
            return
        self._check(event)

    def _check(self, event: ProtocolEvent) -> None:
        raise NotImplementedError

    def finalize(self, horizon: float) -> "Auditor":
        """Judge what is still open at the run's horizon (default: nothing)."""
        return self

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_violated(self) -> None:
        raise_if_violated([self])

    def summary(self) -> dict[str, Any]:
        raise NotImplementedError

    def shard_summary(self) -> dict[str, Any]:
        """This instance's summary as one shard's part of a :meth:`merge`."""
        return self.summary()

    @classmethod
    def merge(cls, auditors: list["Auditor"]) -> dict[str, Any]:
        """One report section from same-kind auditors (one per shard).

        A single auditor's summary is returned unchanged.  Otherwise
        :attr:`config_keys` keep the first shard's value, every other key
        is combined by :meth:`_combine` and ``shards`` counts the merged
        auditors.
        """
        if len(auditors) == 1:
            return auditors[0].summary()
        merged: dict[str, Any] = {"shards": len(auditors)}
        for auditor in auditors:
            for key, value in auditor.shard_summary().items():
                if key not in merged:
                    merged[key] = value
                elif key not in cls.config_keys:
                    merged[key] = cls._combine(key, merged[key], value)
        return merged

    @classmethod
    def _combine(cls, key: str, merged: Any, value: Any) -> Any:
        """Merge rule for one summary key: counts add, lists concatenate."""
        if isinstance(value, list) or (isinstance(value, int)
                                       and not isinstance(value, bool)):
            return merged + value
        raise TypeError(f"{cls.__name__}.merge has no rule for summary "
                        f"key {key!r}")

    def _flag(self, invariant: str, message: str, event: ProtocolEvent,
              **context: Any) -> None:
        violation = Violation(invariant=invariant, message=message,
                              event=event, context=context)
        self.violations.append(violation)
        if self.strict:
            raise AuditError([violation])


def raise_if_violated(auditors: Iterable[Auditor]) -> None:
    """Raise one :class:`AuditError` covering every auditor's violations."""
    violations = [v for auditor in auditors for v in auditor.violations]
    if violations:
        raise AuditError(violations)


class SafetyAuditor(Auditor):
    """Checks protocol events against the paper's safety invariants.

    Besides the online :meth:`attach` path, :meth:`ingest_chain` feeds a
    replica's chain through the same checks for offline sweeps.
    """

    def __init__(self, strict: bool = False,
                 scope: Callable[[int], int] | None = None, shard: int = 0):
        super().__init__(strict=strict, scope=scope, shard=shard)
        # agreement: cid -> (batch_hash, first deciding node, event)
        self._decided: dict[int, tuple[str, int, ProtocolEvent]] = {}
        # no-fork: height -> (digest, first appending node, event)
        self._blocks: dict[int, tuple[str, int, ProtocolEvent]] = {}
        # persistence / no-fork: height -> (digest, cert view, event)
        self._certified: dict[int, tuple[str, int, ProtocolEvent]] = {}
        # view-monotonicity: node -> last installed view id
        self._views: dict[int, int] = {}
        # retired-key: (reconfig block number, view installed there)
        self._view_from: list[tuple[int, int]] = []
        # persistence: membership learned from the stream + crash tracking
        self._known: set[int] = set()
        self._crashed: set[int] = set()
        self._epoch_nodes: frozenset[int] | None = None
        self._epoch_required: dict[int, str] = {}
        self._epoch_heights: dict[int, int] = {}
        self._ingest_seq = 1_000_000_000  # synthetic seq for offline feeds

    def summary(self) -> dict[str, Any]:
        return {
            "invariants": list(INVARIANTS),
            "events_checked": self.events_checked,
            "violations": [v.to_json() for v in self.violations],
        }

    # ------------------------------------------------------------------
    # Event dispatch
    # ------------------------------------------------------------------
    def _check(self, event: ProtocolEvent) -> None:
        self.events_checked += 1
        if (event.kind != "reconfig" and event.kind not in CLIENT_KINDS
                and event.node >= 0):
            # Reconfig events may come from off-cluster submitters (the
            # View Manager), fault-injection events from the harness
            # itself (node -1), and request lifecycle events from client
            # stations (node 9000+); everything else identifies a replica.
            self._known.add(event.node)
        handler = getattr(self, "_on_" + event.kind.replace("-", "_"), None)
        if handler is not None:
            handler(event)

    # ------------------------------------------------------------------
    # agreement
    # ------------------------------------------------------------------
    def _on_decide(self, event: ProtocolEvent) -> None:
        cid = event.fields.get("cid")
        batch_hash = event.fields.get("batch_hash")
        if cid is None or batch_hash is None:
            return
        seen = self._decided.get(cid)
        if seen is None:
            self._decided[cid] = (batch_hash, event.node, event)
        elif seen[0] != batch_hash:
            self._flag(
                "agreement",
                f"cid {cid}: node {event.node} decided {batch_hash[:16]}… "
                f"but node {seen[1]} decided {seen[0][:16]}…",
                event, cid=cid, first_node=seen[1], first_hash=seen[0],
                conflicting_hash=batch_hash)

    # ------------------------------------------------------------------
    # no-fork
    # ------------------------------------------------------------------
    def _on_block_append(self, event: ProtocolEvent) -> None:
        number = event.fields.get("block")
        digest = event.fields.get("digest")
        if number is None or digest is None:
            return
        seen = self._blocks.get(number)
        if seen is None:
            self._blocks[number] = (digest, event.node, event)
        elif seen[0] != digest:
            self._flag(
                "no-fork",
                f"height {number}: node {event.node} appended "
                f"{digest[:16]}… but node {seen[1]} holds {seen[0][:16]}…",
                event, block=number, first_node=seen[1],
                first_digest=seen[0], conflicting_digest=digest)
        certified = self._certified.get(number)
        if certified is not None and certified[0] != digest:
            self._flag(
                "no-fork",
                f"height {number}: node {event.node} appended a block "
                f"contradicting its persist certificate",
                event, block=number, certified_digest=certified[0],
                conflicting_digest=digest)

    # ------------------------------------------------------------------
    # view-monotonicity
    # ------------------------------------------------------------------
    def _on_view_change(self, event: ProtocolEvent) -> None:
        view = event.fields.get("view")
        if view is None:
            return
        last = self._views.get(event.node)
        if last is not None and view <= last:
            self._flag(
                "view-monotonicity",
                f"node {event.node} installed view {view} after view {last}",
                event, previous_view=last, installed_view=view)
        else:
            self._views[event.node] = view

    # ------------------------------------------------------------------
    # retired-key (forgetting invariant) + certificate bookkeeping
    # ------------------------------------------------------------------
    def _on_reconfig(self, event: ProtocolEvent) -> None:
        if event.fields.get("op") != "install":
            return
        block = event.fields.get("block")
        view = event.fields.get("view")
        if block is not None and view is not None:
            self._view_from.append((block, view))

    def view_at_height(self, number: int) -> int:
        """The view in whose keys a certificate at ``number`` must be signed
        (the view installed by the newest reconfiguration block *below*)."""
        view = 0
        for reconfig_block, installed in self._view_from:
            if number > reconfig_block:
                view = max(view, installed)
        return view

    def _on_persist_certificate(self, event: ProtocolEvent) -> None:
        number = event.fields.get("block")
        digest = event.fields.get("digest")
        view = event.fields.get("view")
        if number is None or digest is None:
            return
        expected_view = self.view_at_height(number)
        if view is not None and view < expected_view:
            self._flag(
                "retired-key",
                f"certificate for block {number} carries view {view}, but "
                f"view {expected_view} was in effect at that height — its "
                f"signing keys were retired (erased) by the forgetting "
                f"protocol",
                event, block=number, certificate_view=view,
                expected_view=expected_view)
        seen = self._certified.get(number)
        if seen is None:
            self._certified[number] = (digest, view if view is not None else 0,
                                       event)
        elif seen[0] != digest:
            self._flag(
                "no-fork",
                f"height {number}: two persist certificates over different "
                f"digests",
                event, block=number, first_digest=seen[0],
                conflicting_digest=digest)
        held = self._blocks.get(number)
        if held is not None and held[0] != digest:
            self._flag(
                "no-fork",
                f"height {number}: persist certificate contradicts the "
                f"block held by node {held[1]}",
                event, block=number, held_digest=held[0],
                certified_digest=digest)

    # ------------------------------------------------------------------
    # persistence (0-Persistence after a full crash)
    # ------------------------------------------------------------------
    def _on_crash(self, event: ProtocolEvent) -> None:
        self._crashed.add(event.node)
        if self._known and self._crashed >= self._known:
            # Full crash: every replica the stream knows about is down.
            # Snapshot what 0-Persistence owes the group on the way back up.
            self._epoch_nodes = frozenset(self._crashed)
            self._epoch_required = {number: digest for number, (digest, _v, _e)
                                    in self._certified.items()}
            self._epoch_heights = {}

    def _on_recovering(self, event: ProtocolEvent) -> None:
        self._crashed.discard(event.node)
        if self._epoch_nodes is None or event.node not in self._epoch_nodes:
            return
        height = event.fields.get("height")
        if height is None:
            return
        self._epoch_heights[event.node] = height
        if set(self._epoch_heights) < self._epoch_nodes:
            return
        # Every replica of the full-crash epoch reloaded its stable state.
        group_max = max(self._epoch_heights.values())
        lost = sorted(number for number in self._epoch_required
                      if number > group_max)
        if lost:
            self._flag(
                "persistence",
                f"full-crash recovery lost certified block(s) {lost}: best "
                f"recovered height is {group_max}",
                event, lost_blocks=lost, group_max_height=group_max,
                certified_max=max(self._epoch_required),
                recovered_heights=dict(sorted(self._epoch_heights.items())))
        self._epoch_nodes = None
        self._epoch_required = {}
        self._epoch_heights = {}

    def _on_recover(self, event: ProtocolEvent) -> None:
        self._crashed.discard(event.node)

    # ------------------------------------------------------------------
    # Offline sweep: feed a chain through the same invariant path
    # ------------------------------------------------------------------
    def ingest_chain(self, node: int, blocks: Iterable[Any],
                     now: float = 0.0) -> None:
        """Audit a replica's chain after the fact: synthesize the
        ``block-append`` (and ``persist-certificate``) events its blocks
        imply and run them through the online checks."""
        for block in blocks:
            self.on_event(self._synthetic(
                "block-append", node, now, block=block.number,
                digest=block.digest().hex(), view=block.header.view_id))
            certificate = getattr(block, "certificate", None)
            if certificate is not None:
                self.on_event(self._synthetic(
                    "persist-certificate", node, now,
                    block=certificate.block_number,
                    digest=certificate.header_digest.hex(),
                    view=certificate.view_id,
                    signers=sorted(certificate.signatures)))

    def _synthetic(self, kind: str, node: int, now: float,
                   **fields: Any) -> ProtocolEvent:
        event = ProtocolEvent(time=now, seq=self._ingest_seq, kind=kind,
                              node=node, fields=fields)
        self._ingest_seq += 1
        return event


def audit_event_log(log: EventLog, strict: bool = False) -> SafetyAuditor:
    """Run the auditor over an already-recorded event log."""
    auditor = SafetyAuditor(strict=strict)
    for event in sorted(log, key=lambda e: e.sort_key):
        auditor.on_event(event)
    return auditor
