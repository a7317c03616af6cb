"""The consensus-engine seam: SMR above, interchangeable protocols below.

The paper's thesis is that the blockchain layer is independent of the
consensus module ("consensus is only the beginning").  This module makes
that independence an explicit, executable contract: everything above
consensus — request batching, decision sequencing, leader-change
synchronization, state transfer, the blockchain delivery layer, the
safety auditor — talks to a :class:`ConsensusEngine`, never to a concrete
protocol.

An engine owns the *agreement* part of one replica:

- its wire messages and their handlers (registered on the replica's
  :class:`~repro.smr.runtime.NodeRuntime`);
- the per-instance vote bookkeeping;
- its **quorum policy** — the fault threshold and every quorum size are
  declared by the engine, not assumed by the stack, so that n = 3f+1
  protocols (Mod-SMaRt) and n = 5f−1 protocols (the fast-path engine)
  run under the same replica, synchronizer and blockchain layer.

The replica owns everything protocol-independent: request ingestion and
verification gating, the decision buffer and in-order delivery, crash /
recovery, keys, and the collaborator wiring.  Regency (leader) changes
stay in the :class:`~repro.smr.leaderchange.Synchronizer`, which reaches
the engine only through the narrow hooks below (``writeset_for`` /
``abandon_regency`` / ``adopt_sync``).

Engines register under a string key (:func:`register_engine`) so scenarios
and the bench CLI can select them by name: ``Scenario(engine="fastbft")``,
``python -m repro.bench --engine fastbft``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable

from repro.errors import ReproError
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - avoid the smr <-> consensus cycle
    from repro.smr.replica import ModSmartReplica
    from repro.smr.requests import ClientRequest
    from repro.smr.views import View

__all__ = [
    "ConsensusEngine",
    "EngineError",
    "ENGINES",
    "register_engine",
    "create_engine",
    "engine_names",
]


class EngineError(ReproError):
    """An engine key is unknown or an engine contract is violated."""


class ConsensusEngine(abc.ABC):
    """One replica's pluggable agreement protocol.

    Lifecycle: construct, then :meth:`attach` to exactly one replica (the
    engine registers its message handlers there).  After that the replica
    calls :meth:`propose` when it leads and has a batch; the engine calls
    ``replica.handle_decision(decision)`` whenever an instance decides —
    in any order; the replica sequences decisions by consensus id.

    Class attributes every engine must define:

    ``name``
        The registry key (``"modsmart"``, ``"fastbft"``).
    ``phases``
        Ordered names of the engine's vote-carrying phases — the valid
        vocabulary for fault-plan knobs such as the withhold-votes
        ``phases`` parameter.  Plans naming a phase the engine lacks are
        rejected at install time (no silent no-ops).
    ``max_pipeline``
        Largest consensus-instance window the engine supports running
        concurrently (DISPEL-style pipelining).  The replica proposes at
        most ``min(config.pipeline_depth, engine.max_pipeline)`` instances
        ahead of the last decision.  The default of 1 declares a strictly
        sequential engine; engines that can tally independent instances
        concurrently raise it.
    """

    name: str = ""
    phases: tuple[str, ...] = ()
    max_pipeline: int = 1

    def __init__(self) -> None:
        self.replica: "ModSmartReplica | None" = None

    # ------------------------------------------------------------------
    # Quorum policy (pure functions of the group size)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def fault_threshold(self, n: int) -> int:
        """Failures tolerated in a group of ``n`` replicas."""

    @abc.abstractmethod
    def quorum(self, n: int) -> int:
        """Votes that decide an instance (and match client replies)."""

    def stop_quorum(self, n: int) -> int:
        """STOP votes that install a new regency (default 2f+1)."""
        return 2 * self.fault_threshold(n) + 1

    def cert_quorum(self, n: int) -> int:
        """Signatures in a block certificate (paper: ⌊(n+f+1)/2⌋ ≥ 2f+1)."""
        f = self.fault_threshold(n)
        return max(2 * f + 1, (n + f + 1) // 2)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, replica: "ModSmartReplica") -> None:
        """Bind to ``replica`` and register this engine's message types."""
        if self.replica is not None:
            raise EngineError(
                f"engine {self.name!r} is already attached to replica "
                f"{self.replica.id}")
        self.replica = replica

    @abc.abstractmethod
    def propose(self, batch: "list[ClientRequest]",
                cid: int | None = None) -> None:
        """Leader path: start agreement on ``batch`` for ``cid`` (default
        ``last_decided + 1``).  A pipelining replica passes explicit cids
        beyond the head so several instances run concurrently."""

    @abc.abstractmethod
    def has_open_proposal(self, cid: int) -> bool:
        """True when a value is already being ordered for ``cid`` (the
        replica then must not propose again for it)."""

    @abc.abstractmethod
    def on_delivered(self, cid: int) -> None:
        """``cid`` was delivered: drop its instance bookkeeping."""

    @abc.abstractmethod
    def on_view_installed(self, new_view: "View") -> None:
        """A reconfiguration installed ``new_view``: re-arm undecided
        instances under the new membership, quorums and keys."""

    @abc.abstractmethod
    def on_crash(self) -> None:
        """The replica crashed: drop all volatile consensus state."""

    # ------------------------------------------------------------------
    # Buffered out-of-order proposals (gap healing)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def kick_pending(self) -> None:
        """Process the buffered proposal for ``last_decided + 1``, if any
        (decisions may then cascade from already-tallied vote quorums)."""

    @abc.abstractmethod
    def earliest_buffered(self) -> int | None:
        """Lowest buffered future-proposal cid, or None (gap detection)."""

    @abc.abstractmethod
    def discard_through(self, cid: int) -> None:
        """A state transfer installed through ``cid``: drop buffered
        proposals at or below it."""

    # ------------------------------------------------------------------
    # Synchronization-phase hooks (leader change)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def abandon_regency(self, cid: int, regency: int):
        """A new regency installs while ``cid`` is pending: reset the
        instance's tallies for ``regency`` and return the writeset — the
        ``(regency, batch_hash, batch)`` this replica vouched for, or
        ``None`` — for the STOPDATA message."""

    @abc.abstractmethod
    def adopt_sync(self, cid: int, regency: int,
                   batch: "list[ClientRequest]", batch_hash: bytes) -> None:
        """Adopt the new leader's SYNC re-proposal as if it were a fresh
        proposal (including this replica's first-round vote)."""

    # ------------------------------------------------------------------
    # Fault-injection hooks (Byzantine behaviors stay engine-agnostic)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def vote_phase_of(self, msg_type: type) -> str | None:
        """The phase name a message type carries a vote for, or None —
        what the withhold-votes behavior consults before dropping."""

    @abc.abstractmethod
    def value_bearing_types(self) -> tuple[type, ...]:
        """Message types whose receipt reveals a value under agreement —
        what the equivocation behavior double-votes in response to."""

    @abc.abstractmethod
    def fabricate_votes(self, cid: int, regency: int,
                        batch_hash: bytes) -> list[Message]:
        """All of this replica's vote messages for ``batch_hash`` —
        signed where the protocol signs — regardless of what it already
        voted.  Exactly what an honest replica may never produce; used by
        the equivocation behavior to attack any engine's quorums."""


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
#: String key -> engine factory.  Populated by the concrete engine
#: modules at import time (see repro/consensus/__init__.py).
ENGINES: dict[str, Callable[[], ConsensusEngine]] = {}


def register_engine(key: str,
                    factory: Callable[[], ConsensusEngine]) -> None:
    """Register an engine factory under ``key`` (last write wins, so tests
    can shadow built-ins)."""
    ENGINES[key] = factory


def create_engine(engine: "str | ConsensusEngine | None") -> ConsensusEngine:
    """Resolve ``engine`` — a registry key, an instance (returned as-is),
    or None for the default ``"modsmart"`` — into a fresh engine."""
    if engine is None:
        engine = "modsmart"
    if isinstance(engine, ConsensusEngine):
        return engine
    factory = ENGINES.get(engine)
    if factory is None:
        raise EngineError(
            f"unknown consensus engine {engine!r}; "
            f"registered engines: {', '.join(sorted(ENGINES))}")
    return factory()


def engine_names() -> list[str]:
    """Registered engine keys, sorted (CLI help and validation)."""
    return sorted(ENGINES)
