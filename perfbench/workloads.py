"""The benchmark's workloads: one seed in, one ``Scenario`` out.

Every workload is a closed loop: each simulated client keeps one request
outstanding and sends the next on reply (``repro.clients.Client``).  The
network is the default ``NetworkConfig`` (0.25 ms one-way delay plus up to
0.05 ms jitter, 1 Gbps NICs) and every group has n=4 replicas.  The seed is
the only input that varies between runs; the program receives nothing but
the ``Scenario`` (and, for ``leader-crash``, the ``FaultPlan``) built here.

Why each workload exists:

``smartchain-spend``
    The paper's headline system (SmartChain, strong persistence, sync
    storage, parallel verification, one group) under SPEND.  Crypto and
    ledger own the host time, so hash-once work shows here.
``dura-pipelined``
    Durable-SMaRt with four consensus instances in flight and two modeled
    execution cores.  No blockchain layer at all: the control on which
    ledger changes must not move, and the mechanism workload for smr,
    apps and consensus pipelining.
``sharded-xshard``
    Four SmartChain groups on one simulator with 10% cross-shard SPENDs.
    Host cost shifts into sim, net, the multi-chain core and ``ledger.xshard``;
    a single-group/sharded collapse must keep it and ``smartchain-spend`` flat.
``leader-crash``
    SmartChain with replica 0, the first leader, crashing after warmup and
    recovering one second later.  The only workload that runs leader
    change, state transfer and the verified read-back of stable storage.

Run lengths are the shortest that keep the simulated metrics steady from
seed to seed: each window holds over 11,000 replies, so at least ten rank
beyond the p99.9 sample.  ``op_window`` (operations per throughput
interval; the paper uses 10,000) is raised where replies arrive in large
bursts, so that every interval spans several bursts and the window still
holds at least three intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

NAMES = ("smartchain-spend", "dura-pipelined", "sharded-xshard",
         "leader-crash")

#: Client request timeout on ``leader-crash``: how long followers wait for
#: the crashed leader before they change regency.
CRASH_REQUEST_TIMEOUT = 0.5
#: Seconds between the leader's crash and its recovery.
CRASH_DOWN_FOR = 1.0
#: Seconds after warmup at which the leader crashes.  Fixed rather than
#: drawn from the seed: the outage depends on where the crash falls against
#: the request timer, and a seed-drawn offset spread ``sim_outage_s`` over
#: seeds by more than any bound the benchmark could hold.
CRASH_AFTER_WARMUP = 0.25


@dataclass(frozen=True)
class Workload:
    """A generated workload: the scenario plus what the checks need."""

    scenario: object
    #: Simulated time of the injected crash (``None`` when fault-free).
    crash_at: float | None = None


def build(name: str, seed: int, audited: bool = False) -> Workload:
    """The workload ``name`` for ``seed``.

    ``audited`` turns on what the traced pass checks and reports: the run
    report (``observe``), the safety and recovery auditors (plus the
    cross-shard one on ``sharded-xshard``) and, on ``leader-crash``, the
    liveness auditor.  None of these changes simulated behaviour.
    """
    from repro.bench.harness import Scenario

    extra = {"observe": True, "audit": True} if audited else {}
    if name == "smartchain-spend":
        return Workload(Scenario(
            system="smartchain", clients=1200, duration=2.3, warmup=1.0,
            seed=seed, label=name, **extra))
    if name == "dura-pipelined":
        return Workload(Scenario(
            system="dura", pipeline_depth=4, exec_cores=2, clients=1200,
            duration=2.5, warmup=1.0, op_window=8000, seed=seed, label=name,
            **extra))
    if name == "sharded-xshard":
        return Workload(Scenario(
            system="smartchain", shards=4, cross_shard_fraction=0.1,
            clients=1200, duration=1.2, warmup=0.6, op_window=4000,
            seed=seed, label=name, **extra))
    if name == "leader-crash":
        from repro.faults.plan import CrashSpec, FaultPlan

        warmup = 0.6
        at = warmup + CRASH_AFTER_WARMUP
        plan = FaultPlan(
            name="leader-crash", seed=seed,
            crashes=(CrashSpec(node=0, at=at,
                               recover_at=round(at + CRASH_DOWN_FOR, 6)),),
            protocol={"request_timeout": CRASH_REQUEST_TIMEOUT})
        if audited:
            extra["audit_liveness"] = True
        return Workload(Scenario(
            system="smartchain", clients=600, duration=2.6, warmup=warmup,
            seed=seed, label=name, faults=plan, **extra), crash_at=at)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
