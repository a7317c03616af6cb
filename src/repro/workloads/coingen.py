"""SMaRtCoin workload generators — the paper's two-phase methodology.

Section VI-A: "the experiments were conducted in two phases: the first one is
composed of MINT operations to generate new coins, and then a second phase
considers SPEND operations to transfer the generated coins to new addresses.
Following the UTXO model, this corresponds to single-input, single-output
SPEND transactions."
"""

from __future__ import annotations

from typing import Iterator

from repro.apps.smartcoin import (
    MINT_SIZES,
    SPEND_SIZES,
    XLOCK_SIZES,
    XMINT_SIZES,
    Wallet,
)
from repro.clients.client import Client, ClientStation, OpSpec

__all__ = [
    "mint_ops",
    "spend_ops",
    "mint_then_spend",
    "endless_mint",
    "endless_cross_spend",
    "deploy_clients",
    "deploy_sharded_clients",
    "client_address",
    "home_shard",
    "shard_of_coin",
]


#: MINTs each client issues before spending them all under
#: ``workload="mint_then_spend"``.
MINT_COUNT = 8


def client_address(index: int) -> str:
    return f"addr:{index}"


def home_shard(index: int, shards: int) -> int:
    """The shard a workload client (and its address) belongs to.

    The coin/key space is partitioned deterministically: client ``index``
    lives on shard ``index % shards``, mints its coins there, and every
    coin it creates is spendable only on that shard (a cross-shard SPEND
    must go through the two-phase lock/mint protocol).
    """
    return index % shards


def shard_of_coin(cid: str, shards: int) -> int:
    """Deterministic coin-id → shard map (cross-shard routing).

    A coin is *spendable* on the shard that ordered its creation (its
    owner's home shard); this map assigns every coin id a canonical shard
    any party can derive without coordination.  The cross-shard workload
    uses it to pick the destination of a migrating coin: when a transfer
    is due, the coin goes to its canonical shard (bumped by one when that
    is already home).  Coin ids are uniform hex digests
    (:func:`repro.apps.smartcoin.coin_id`), so the leading 32 bits spread
    coins evenly over the groups.
    """
    return int(cid[:8], 16) % shards


def mint_ops(wallet: Wallet, count: int, value: int = 1,
             signed: bool = True) -> Iterator[OpSpec]:
    """``count`` MINT operations with the paper's request/reply sizes."""
    for _ in range(count):
        yield OpSpec(wallet.mint_op(value), size=MINT_SIZES[0],
                     reply_size=MINT_SIZES[1], signed=signed)


def spend_ops(wallet: Wallet, recipient: str, count: int | None = None,
              signed: bool = True) -> Iterator[OpSpec]:
    """Single-input single-output SPENDs of coins the wallet owns.

    Stops when the wallet runs dry (or after ``count`` operations).
    """
    produced = 0
    while count is None or produced < count:
        coin = wallet.take_coin()
        if coin is None:
            return
        produced += 1
        yield OpSpec(wallet.spend_op(coin, recipient), size=SPEND_SIZES[0],
                     reply_size=SPEND_SIZES[1], signed=signed)


def mint_then_spend(wallet: Wallet, recipient: str, mint_count: int,
                    signed: bool = True) -> Iterator[OpSpec]:
    """Phase 1 then phase 2 for one client, chained."""
    yield from mint_ops(wallet, mint_count, signed=signed)
    yield from spend_ops(wallet, recipient, signed=signed)


def endless_mint(wallet: Wallet, value: int = 1,
                 signed: bool = True) -> Iterator[OpSpec]:
    """An open-ended MINT stream (steady-state throughput runs)."""
    while True:
        yield OpSpec(wallet.mint_op(value), size=MINT_SIZES[0],
                     reply_size=MINT_SIZES[1], signed=signed)


def endless_spend_cycle(wallet: Wallet, signed: bool = True) -> Iterator[OpSpec]:
    """Mint a working set once, then spend-to-self forever: a steady-state
    SPEND stream (each spend's output refills the wallet on completion)."""
    yield from mint_ops(wallet, 8, signed=signed)
    while True:
        coin = wallet.take_coin()
        if coin is None:
            # Outputs not yet acknowledged; mint a replacement to keep going.
            yield OpSpec(wallet.mint_op(1), size=MINT_SIZES[0],
                         reply_size=MINT_SIZES[1], signed=signed)
            continue
        yield OpSpec(wallet.spend_op(coin, wallet.address),
                     size=SPEND_SIZES[0], reply_size=SPEND_SIZES[1],
                     signed=signed)


class _CrossBox:
    """Mailbox between a client's result hook and its workload generator.

    ``locks`` holds ``(xfer_id, source_shard, dest_shard)`` triples whose
    lock succeeded but whose certificate has not been presented yet; the
    hook appends on the reply and the generator (resumed right after the
    hook runs — see :meth:`Client._completed`) drains it.  ``location``
    tracks which shard each owned coin currently lives on — a coin is only
    spendable on the shard that ordered its creation, so spends of
    migrated coins must be routed to their current home.
    """

    __slots__ = ("locks", "location")

    def __init__(self) -> None:
        self.locks: list[tuple[str, int, int]] = []
        self.location: dict[str, int] = {}


def endless_cross_spend(wallet: Wallet, box: _CrossBox, shard: int,
                        shards: int, fraction: float, fetch_cert,
                        signed: bool = True) -> Iterator[OpSpec]:
    """Steady-state SPEND stream with a deterministic cross-shard fraction.

    Like :func:`endless_spend_cycle`, but every ``1/fraction``-th coin (an
    exact accumulator, not a random draw — determinism) is moved to another
    shard via the two-phase protocol: an ``xlock`` on the home shard, then
    — once ``fetch_cert(home, xfer_id)`` can assemble the transfer
    certificate from a persisted block — an ``xmint`` routed to the
    destination shard.  A certificate still in flight is retried on later
    iterations; its value sits in the locked-in-transit ledger either way,
    so conservation holds at every instant.
    """
    yield from mint_ops(wallet, 8, signed=signed)
    acc = 0.0
    pending: list[tuple[str, int, int]] = []
    while True:
        # Present any lock whose certificate is now available.
        pending.extend(box.locks)
        box.locks.clear()
        still_waiting: list[tuple[str, int, int]] = []
        ready: list[OpSpec] = []
        for xfer_id, source, dest in pending:
            cert = fetch_cert(source, xfer_id)
            if cert is None:
                still_waiting.append((xfer_id, source, dest))
                continue
            ready.append(OpSpec(wallet.xmint_op(cert),
                                size=XMINT_SIZES[0],
                                reply_size=XMINT_SIZES[1],
                                signed=signed, shard=dest))
        pending = still_waiting
        for spec in ready:
            yield spec
        coin = wallet.take_coin()
        if coin is None:
            yield OpSpec(wallet.mint_op(1), size=MINT_SIZES[0],
                         reply_size=MINT_SIZES[1], signed=signed,
                         shard=shard)
            continue
        location = box.location.get(coin[0], shard)
        acc += fraction
        if acc >= 1.0 and shards > 1:
            acc -= 1.0
            if location != shard:
                # The coin migrated earlier; bring it back home.
                dest = shard
            else:
                dest = shard_of_coin(coin[0], shards)
                if dest == shard:
                    dest = (dest + 1) % shards
            yield OpSpec(wallet.xlock_op(coin, dest, wallet.address),
                         size=XLOCK_SIZES[0], reply_size=XLOCK_SIZES[1],
                         signed=signed, shard=location)
        else:
            yield OpSpec(wallet.spend_op(coin, wallet.address),
                         size=SPEND_SIZES[0], reply_size=SPEND_SIZES[1],
                         signed=signed, shard=location)


def deploy_clients(
    sim,
    network,
    view_of,
    num_clients: int,
    num_stations: int = 4,
    workload: str = "spend",
    signed: bool = True,
    station_base: int = 9000,
    send_window: float = 0.001,
) -> tuple[list[ClientStation], list[Wallet]]:
    """Create the paper's client deployment: ``num_clients`` spread over
    ``num_stations`` machines, each driving a SMaRtCoin wallet.

    ``workload``: ``"mint"`` (endless mints), ``"spend"`` (mint a working
    set then spend-cycle — the phase the paper reports), or
    ``"mint_then_spend"`` (finite two-phase run of :data:`MINT_COUNT`
    mints per client).
    """
    stations = []
    wallets = []
    for station_index in range(num_stations):
        station = ClientStation(sim, network, station_base + station_index,
                                view_of, send_window=send_window)
        stations.append(station)
    for index in range(num_clients):
        station = stations[index % num_stations]
        wallet = Wallet(client_address(index))
        wallets.append(wallet)
        ops = _client_ops(workload, wallet, index, num_clients, signed)
        client = Client(station, ops,
                        on_result=_wallet_tracker(wallet))
        del client  # adopted by the station
    return stations, wallets


def _client_ops(workload: str, wallet: Wallet, index: int, num_clients: int,
                signed: bool) -> Iterator[OpSpec]:
    """Client ``index``'s single-shard op stream for ``workload``:
    ``"mint"`` (endless mints), ``"spend"`` (mint a working set then
    spend-cycle) or ``"mint_then_spend"`` (:data:`MINT_COUNT` mints, then
    spend every coin to the next client — finite)."""
    if workload == "mint":
        return endless_mint(wallet, signed=signed)
    if workload == "spend":
        return endless_spend_cycle(wallet, signed=signed)
    return mint_then_spend(wallet, client_address((index + 1) % num_clients),
                           MINT_COUNT, signed=signed)


def deploy_sharded_clients(
    sim,
    network,
    multichain,
    num_clients: int,
    cross_shard_fraction: float = 0.0,
    workload: str = "spend",
    signed: bool = True,
    num_stations: int = 4,
    send_window: float = 0.001,
    fetch_cert=None,
) -> tuple[list[ClientStation], list[Wallet]]:
    """The paper's client deployment, partitioned over a sharded chain.

    Client ``index`` lives on shard :func:`home_shard(index, shards)
    <home_shard>`, is served by that shard's ``num_stations`` stations
    (station ids ``9000 + 100*shard + s``), and runs ``workload`` (as in
    :func:`deploy_clients`) on its home shard.  With ``workload="spend"``
    and ``cross_shard_fraction > 0`` (and more than one shard) that
    fraction of SPENDs becomes two-phase cross-shard transfers; the
    stations route each operation to the shard named on its
    :class:`~repro.clients.client.OpSpec`.
    """
    from repro.core.multichain import CertificateFetcher, station_id

    shards = multichain.shards
    cross = cross_shard_fraction > 0.0 and shards > 1
    if cross and fetch_cert is None:
        fetch_cert = CertificateFetcher(multichain)
    stations_by_shard: list[list[ClientStation]] = []
    for shard in range(shards):
        stations_by_shard.append([
            ClientStation(sim, network, station_id(shard, s),
                          multichain.view_of(shard),
                          send_window=send_window,
                          router=multichain.view_of if cross else None)
            for s in range(num_stations)])
    wallets: list[Wallet] = []
    for index in range(num_clients):
        shard = home_shard(index, shards)
        station = stations_by_shard[shard][(index // shards) % num_stations]
        wallet = Wallet(client_address(index))
        wallets.append(wallet)
        if cross and workload == "spend":
            box = _CrossBox()
            ops = endless_cross_spend(wallet, box, shard, shards,
                                      cross_shard_fraction, fetch_cert,
                                      signed=signed)
            tracker = _cross_tracker(wallet, box, shard)
        else:
            ops = _client_ops(workload, wallet, index, num_clients, signed)
            tracker = _wallet_tracker(wallet)
        client = Client(station, ops, on_result=tracker)
        del client  # adopted by the station
    return [st for row in stations_by_shard for st in row], wallets


def _wallet_tracker(wallet: Wallet):
    def track(spec: OpSpec, result) -> None:
        wallet.note_result(spec.op, result)
    return track


def _cross_tracker(wallet: Wallet, box: _CrossBox, home: int):
    """Wallet tracker that also maintains coin locations and the pending-
    transfer mailbox (see :class:`_CrossBox`)."""

    def track(spec: OpSpec, result) -> None:
        wallet.note_result(spec.op, result)
        if not (isinstance(result, tuple) and result):
            return
        kind = spec.op[0]
        status = result[0]
        where = spec.shard if spec.shard is not None else home
        if status == "minted" and kind == "mint":
            for cid in result[1]:
                box.location[cid] = where
        elif status == "spent" and kind == "spend":
            for cid in spec.op[2]:
                box.location.pop(cid, None)
            for cid in result[1]:
                box.location[cid] = where
        elif status == "xlocked" and kind == "xlock":
            for cid in spec.op[2]:
                box.location.pop(cid, None)
            # (xfer_id, source shard, destination shard)
            box.locks.append((result[1], where, result[2]))
        elif status == "xminted" and kind == "xmint":
            box.location[result[1][0]] = where
    return track


def all_minter_addresses(num_clients: int) -> list[str]:
    """Genesis minter list covering every workload client."""
    return [client_address(i) for i in range(num_clients)]
