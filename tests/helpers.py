"""Shared builders for the test suite: small clusters, quick workloads."""

from __future__ import annotations

from repro.apps.kvstore import KVStore
from repro.apps.smartcoin import SmartCoin
from repro.clients.client import Client, ClientStation, OpSpec
from repro.config import (
    CostModel,
    PersistenceVariant,
    SMRConfig,
    SmartChainConfig,
    StorageMode,
    VerificationMode,
)
from repro.core.node import ReplicaGroup, bootstrap
from repro.crypto.keys import KeyRegistry
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.sim.trace import TraceLog
from repro.smr.keydir import KeyDirectory
from repro.smr.replica import ModSmartReplica
from repro.smr.service import MemoryDelivery
from repro.smr.views import View

MINTER = "minter:test"


def make_cluster(
    n: int = 4,
    seed: int = 1,
    verification: VerificationMode = VerificationMode.PARALLEL,
    delivery_factory=None,
    app_factory=None,
    config: SMRConfig | None = None,
    trace: TraceLog | None = None,
    engine: str | None = None,
):
    """A plain SMR cluster with MemoryDelivery+KVStore by default.

    Returns (sim, network, view, replicas, apps).
    """
    sim = Simulator(seed)
    costs = CostModel()
    network = Network(sim, costs.network)
    registry = KeyRegistry(seed)
    keydir = KeyDirectory()
    view = View(0, tuple(range(n)))
    config = config or SMRConfig(n=n, f=(n - 1) // 3, verification=verification)
    apps = []
    replicas = []
    for replica_id in view.members:
        app = app_factory() if app_factory else KVStore()
        apps.append(app)
        delivery = (delivery_factory(app) if delivery_factory
                    else MemoryDelivery(app))
        replicas.append(ModSmartReplica(
            sim, network, registry, keydir, replica_id, view, config, costs,
            delivery, trace=trace, engine=engine))
    return sim, network, view, replicas, apps


def make_consortium(
    n: int = 4,
    seed: int = 1,
    variant: PersistenceVariant = PersistenceVariant.STRONG,
    storage: StorageMode = StorageMode.SYNC,
    verification: VerificationMode = VerificationMode.PARALLEL,
    checkpoint_period: int = 25,
    minters: tuple[str, ...] = (MINTER,),
    trace: TraceLog | None = None,
    policy=None,
    engine: str | None = None,
) -> ReplicaGroup:
    """A small SmartChain consortium running SMaRtCoin."""
    sim = Simulator(seed)
    config = SmartChainConfig(
        smr=SMRConfig(n=n, f=(n - 1) // 3, verification=verification),
        variant=variant,
        storage=storage,
        checkpoint_period=checkpoint_period,
    )
    return bootstrap(sim, tuple(range(n)),
                     lambda: SmartCoin(minters=list(minters)),
                     config, trace=trace, policy=policy, engine=engine)


def attach_station(consortium: ReplicaGroup, station_id: int = 900,
                   send_window: float = 0.0005) -> ClientStation:
    holder = [consortium.genesis.view]
    for node in consortium.nodes.values():
        node.view_listeners.append(lambda v: holder.__setitem__(0, v))
    return ClientStation(consortium.sim, consortium.network, station_id,
                         lambda: holder[0], send_window=send_window)


def kv_ops(prefix: str, count: int, size: int = 200):
    """Finite KV put workload."""
    for index in range(count):
        yield OpSpec(("put", f"{prefix}-{index}", index), size=size,
                     reply_size=64)


def mint_ops_simple(count: int, address: str = MINTER):
    import itertools
    nonce = itertools.count(1)
    for _ in range(count):
        yield OpSpec(("mint", address, ((1, next(nonce)),)), size=180,
                     reply_size=270)


def run_coin_traffic(consortium: ReplicaGroup, txs: int = 40,
                     until: float = 20.0, station_id: int = 900):
    """Drive ``txs`` MINTs through a consortium and run the sim."""
    station = attach_station(consortium, station_id)
    client = Client(station, mint_ops_simple(txs))
    station.start_all()
    consortium.sim.run(until=until)
    return station, client


def station_with_clients(sim, network, view_of, num_clients, ops_factory,
                         station_id: int = 900):
    station = ClientStation(sim, network, station_id, view_of,
                            send_window=0.0005)
    for index in range(num_clients):
        Client(station, ops_factory(index))
    return station
