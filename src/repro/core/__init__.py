"""SMARTCHAIN: the paper's blockchain platform (Algorithm 1 + reconfiguration)."""

from repro.core.blockchain_layer import ReconfigOutcome, SmartChainDelivery
from repro.core.multichain import (
    SHARD_STRIDE,
    MultiChain,
    bootstrap_shards,
    shard_of_node,
)
from repro.core.node import ReplicaGroup, SmartChainNode, bootstrap
from repro.core.persistence import (
    PersistenceLevel,
    PersistMsg,
    persistence_level_of,
)
from repro.core.reconfig import (
    ReconfigAskMsg,
    ReconfigManager,
    ReconfigVoteMsg,
    accept_all_policy,
)

__all__ = [
    "ReconfigOutcome",
    "SmartChainDelivery",
    "ReplicaGroup",
    "SmartChainNode",
    "bootstrap",
    "SHARD_STRIDE",
    "MultiChain",
    "bootstrap_shards",
    "shard_of_node",
    "PersistenceLevel",
    "PersistMsg",
    "persistence_level_of",
    "ReconfigAskMsg",
    "ReconfigManager",
    "ReconfigVoteMsg",
    "accept_all_policy",
]
