"""Simulated metrics, correctness checks and the determinism fingerprint.

Everything here reads a finished ``repro.bench.harness.run`` result and its
live ``handle``; nothing runs inside the simulation.  Simulated metrics are
deterministic per seed, so the same seed must give the same numbers and
the same ``sim_digest`` in every repetition, traced or not.
"""

from __future__ import annotations

import hashlib

#: Requests still unreplied at the end count as failed once they have
#: waited this many simulated seconds.
UNREPLIED_GRACE_S = 1.0
#: The highest percentile reported must have at least this many samples
#: beyond it.
MIN_TAIL_SAMPLES = 10
#: The measurement window must hold at least this many op-count intervals.
MIN_INTERVALS = 3


class CheckFailed(Exception):
    """A run produced output the benchmark cannot accept."""


def window_replies(stations, warmup: float, duration: float):
    """``(time, latency)`` of every reply inside ``[warmup, duration)``.

    Each station records one meter stamp and one latency sample per reply,
    together, so the two sequences zip one to one.
    """
    replies = []
    for station in stations:
        stamps = station.meter.stamps()
        samples = station.latency.samples
        if len(stamps) != len(samples):
            raise CheckFailed(
                f"station {station.id}: {len(stamps)} reply stamps but "
                f"{len(samples)} latency samples")
        for (when, count), latency in zip(stamps, samples):
            if count != 1:
                raise CheckFailed(f"station {station.id}: stamp count {count}")
            if warmup <= when < duration:
                replies.append((when, latency))
    replies.sort()
    return replies


def rank(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0..1) of a sorted list, as the
    harness computes its own percentiles."""
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def groups_of(handle):
    """Replica groups of a run: a list of ``[(replica, app, chain), ...]``.

    ``chain`` is ``None`` for systems without a blockchain layer.
    """
    system = handle.system
    if hasattr(system, "groups"):
        groups = system.groups
    elif hasattr(system, "nodes"):
        groups = [system]
    else:
        return [[(replica, replica.delivery.app, None) for replica in system]]
    return [[(node.replica, node.app, node.delivery.chain)
             for node in group.nodes.values()] for group in groups]


def network_of(handle):
    system = handle.system
    return getattr(system, "network", None) or system[0].net


def check_agreement(groups) -> int:
    """Correct replicas agree on their common decided/ledger prefix.

    SmartChain replicas are compared block by block on header digests;
    replicas without a chain are compared decision by decision on the
    request keys of each batch in their stable operation log.  Returns the
    number of positions compared.
    """
    compared = 0
    for members in groups:
        seen: dict[int, object] = {}
        for replica, _app, chain in members:
            if chain is not None:
                entries = ((block.header.number, block.header.digest())
                           for block in chain)
            else:
                log = replica.delivery.LOG
                entries = ((payload[0], tuple(r.key for r in payload[1]))
                           for payload in replica.store.read_log(log)
                           if isinstance(payload[0], int))
            for position, value in entries:
                other = seen.setdefault(position, value)
                if other != value:
                    raise CheckFailed(
                        f"replica {replica.id} diverges at position "
                        f"{position}")
                compared += 1
    if compared == 0:
        raise CheckFailed("no decided prefix to compare")
    return compared


def representative(members):
    """The member that executed furthest (a live, caught-up replica)."""
    return max(members, key=lambda member: member[0].last_executed)


def sim_metrics(result, crash_at: float | None = None) -> dict:
    """Simulated end-to-end metrics, counters and the run fingerprint."""
    handle = result.handle
    scenario = handle.scenario
    stations = handle.stations
    warmup, duration = scenario.warmup, scenario.duration
    replies = window_replies(stations, warmup, duration)
    latencies = sorted(latency for _, latency in replies)
    if len(result.interval_rates) < MIN_INTERVALS or not latencies:
        raise CheckFailed(
            f"empty measurement window: {len(latencies)} replies and "
            f"{len(result.interval_rates)} op-count intervals in "
            f"[{warmup}, {duration})")
    p999 = rank(latencies, 0.999)
    # Samples ranked after the p99.9 sample.  Replies of one batch share a
    # latency, so many may tie with it; ties ranked after it still count.
    beyond = len(latencies) - 1 - min(len(latencies) - 1,
                                      int(0.999 * len(latencies)))
    if beyond < MIN_TAIL_SAMPLES:
        raise CheckFailed(
            f"p99.9 has {beyond} samples beyond it, need {MIN_TAIL_SAMPLES}")
    # Longest time without a reply inside the window.  On leader-crash the
    # crash falls inside the window, so this is the outage it causes.
    times = [when for when, _ in replies]
    outage = max(b - a for a, b in zip(times, times[1:]))
    if crash_at is not None and not warmup < crash_at < times[-1]:
        raise CheckFailed(f"crash at {crash_at} is outside the window")

    groups = groups_of(handle)
    compared = check_agreement(groups)
    # Closed loop: every submitted request has completed or is outstanding.
    unreplied = sum(len(station.outstanding) for station in stations)
    submitted = unreplied + sum(client.completed for station in stations
                                for client in station.clients.values())
    stale = sum(1 for station in stations
                for record in station.outstanding.values()
                if record.request.sent_at < duration - UNREPLIED_GRACE_S)
    reps = [representative(members) for members in groups]
    rejected = sum(app.rejected for _, app, _ in reps)
    failed = rejected + stale
    if submitted < 1:
        raise CheckFailed("no requests submitted")

    digest = hashlib.sha256()
    for station in stations:
        digest.update(repr(station.meter.stamps()).encode())
    digest.update(repr(latencies).encode())
    digest.update(repr(handle.sim.executed).encode())

    completed = result.completed
    metrics = result.metrics
    net = network_of(handle)
    all_replicas = [replica for members in groups for replica, _, _ in members]
    instances = sum(replica.decided_count for replica, _, _ in reps)
    executed = sum(replica.executed_tx_count for replica, _, _ in reps)
    blocks = sum(replica.delivery.blocks_built for replica, _, chain in reps
                 if chain is not None)
    certificates = sum(replica.delivery.certs_completed
                       for replica, _, chain in reps if chain is not None)
    cache = {}
    for kind in ("digest", "verify"):
        hits = metrics[f"{kind}_cache_hits"]
        lookups = hits + metrics[f"{kind}_cache_misses"]
        cache[f"crypto.{kind}_cache_lookups"] = lookups
        cache[f"crypto.{kind}_cache_hit_rate"] = hits / lookups if lookups else 0.0
    return {
        "end_to_end": {
            "sim_throughput_tx_s": result.throughput,
            "sim_latency_p50_ms": rank(latencies, 0.5) * 1e3,
            "sim_latency_p999_ms": p999 * 1e3,
            "sim_outage_s": outage,
            "ok_ops_frac": 1.0 - failed / submitted,
        },
        "window_samples": len(latencies),
        "beyond_p999": beyond,
        "submitted": submitted,
        "failed": failed,
        "completed": completed,
        "agreement_positions": compared,
        "sim_digest": digest.hexdigest()[:16],
        "counts": {
            "sim.events": handle.sim.executed,
            "sim.events_per_tx": handle.sim.executed / completed,
            "sim.heap_compactions": metrics["heap_compactions"],
            "net.messages_per_tx": net.messages_sent / completed,
            "net.bytes_per_tx": net.bytes_sent / completed,
            "consensus.instances": instances,
            "consensus.tx_per_instance": executed / instances,
            "consensus.regency_changes": metrics["regency_changes"],
            "smr.pipeline_stalls": sum(r.pipeline_stalls for r in all_replicas),
            "smr.mean_group_commit": metrics.get("mean_group_commit", 0.0),
            "smr.watchdog_fires": metrics["watchdog_fires"],
            "ledger.blocks": blocks,
            "ledger.tx_per_block": executed / blocks if blocks else 0.0,
            "ledger.certificates": certificates,
            "ledger.transfers_redeemed": metrics.get("transfers_redeemed", 0),
            **cache,
            "storage.syncs_per_tx": sum(r.store.disk.sync_count
                                        for r in all_replicas) / completed,
            "storage.recovery_verified_entries":
                metrics["recovery.verified_entries"],
            "apps.rejected": rejected,
            "clients.unreplied_at_end": unreplied,
        },
    }


def report_metrics(report: dict) -> dict:
    """Per-layer simulated numbers that only the run report carries."""
    roles = report.get("resource_roles", {})
    counters = report.get("metrics", {})

    def busy(role: str) -> float:
        return roles.get(role, {}).get("busy_fraction_max", 0.0)

    out = {
        "net.nic_busy_max": busy("nic"),
        "smr.sm_busy": busy("sm"),
        "smr.pool_busy": busy("pool"),
        # Counted per replica (``exec.parallel_batches{node=...}``).
        "smr.exec_parallel_batches": max(
            (value for key, value in counters.items()
             if key.split("{")[0] == "exec.parallel_batches"), default=0),
        "storage.disk_busy": busy("disk"),
        "obs.events_dropped": report.get("events", {}).get("dropped", 0),
    }
    for name, phase in report.get("phases", {}).items():
        out[f"phase.{name}.p50_ms"] = phase.get("p50_s", 0.0) * 1e3
    return out
