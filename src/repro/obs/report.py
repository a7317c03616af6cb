"""Machine-readable run reports.

A *run report* is one experiment's observability output rendered as plain
JSON-serializable data: the standard throughput/latency summary, the
metrics-registry snapshot, the per-phase pipeline latency breakdown and the
per-resource busy fractions that explain it.  A *bench report* wraps several
run reports (one per table row) for ``python -m repro.bench ... --report``.

:func:`validate_report` is the schema check the ``--smoke`` CI target runs:
it raises :class:`ValueError` on any structural problem, so a report that
round-trips ``json.dumps``/``json.loads`` and validates is safe for
downstream tooling to consume.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "RUN_REPORT_SCHEMA",
    "BENCH_REPORT_SCHEMA",
    "build_run_report",
    "build_bench_report",
    "validate_report",
    "validate_bench_report",
]

RUN_REPORT_SCHEMA = "repro.obs/run-report/v1"
BENCH_REPORT_SCHEMA = "repro.obs/bench-report/v1"

#: Statistics every per-phase breakdown entry must carry.
_PHASE_STAT_KEYS = ("count", "mean_s", "p50_s", "p95_s", "p99_s", "max_s")

#: Fields every per-resource entry must carry.
_RESOURCE_KEYS = ("name", "servers", "busy_fraction", "jobs_served",
                  "queue_peak", "mean_queue_depth")


def _resource_role(name: str) -> str:
    """Bucket a resource name into its hardware role (sm/pool/nic/disk)."""
    if "disk" in name:
        return "disk"
    for separator in ("-", ":", "."):
        if separator in name:
            return name.split(separator, 1)[0]
    return name


def build_run_report(result: Any, obs: Any, horizon: float) -> dict[str, Any]:
    """Render one experiment's observability state as a JSON-ready dict.

    ``result`` is an :class:`~repro.bench.harness.ExperimentResult` (duck
    typed to avoid an import cycle); ``obs`` the run's ``Observability``;
    ``horizon`` the simulated end time (busy fractions are normalized to it).
    """
    resources = obs.resource_stats(horizon)
    roles: dict[str, list[float]] = {}
    for entry in resources:
        roles.setdefault(_resource_role(entry["name"]), []).append(
            entry["busy_fraction"])
    role_summary = {
        role: {"count": len(fractions),
               "busy_fraction_mean": sum(fractions) / len(fractions),
               "busy_fraction_max": max(fractions)}
        for role, fractions in sorted(roles.items())
    }
    report = {
        "schema": RUN_REPORT_SCHEMA,
        "label": result.label,
        "summary": {
            "throughput_tx_s": result.throughput,
            "latency_mean_s": result.latency_mean,
            "latency_p95_s": result.latency_p95,
            "latency_p99_s": getattr(result, "latency_p99", 0.0),
            "completed": result.completed,
            "duration_s": result.duration,
            "warmup_s": result.warmup,
            "interval_rates": list(result.interval_rates),
        },
        "metrics": {**obs.metrics.snapshot(), **dict(result.metrics)},
        "trace": {
            "sample_every": obs.tracer.sample_every,
            "traced_requests": obs.tracer.traced_requests,
            "traced_cids": obs.tracer.traced_cids,
        },
        "phases": obs.tracer.breakdown(),
        "resources": resources,
        "resource_roles": role_summary,
        "network": obs.network_stats(),
    }
    # Additive sections (repro.obs v2): present only when recorded, so
    # older reports still validate.
    if getattr(obs, "record_events", False):
        report["events"] = {
            "count": len(obs.events),
            "dropped": obs.events.dropped,
            "by_kind": obs.events.counts(),
        }
    sections: dict[str, list[Any]] = {}
    for auditor in getattr(obs, "auditors", ()):
        sections.setdefault(auditor.section, []).append(auditor)
    for section, auditors in sections.items():
        report[section] = type(auditors[0]).merge(auditors)
    return report


def build_bench_report(experiment: str, runs: list[dict[str, Any]],
                       options: dict[str, Any] | None = None) -> dict[str, Any]:
    """Wrap per-row run reports for the CLI's ``--report`` output."""
    return {
        "schema": BENCH_REPORT_SCHEMA,
        "experiment": experiment,
        "options": dict(options or {}),
        "runs": runs,
    }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid report: {message}")


def validate_report(report: Any) -> dict[str, Any]:
    """Structural schema check for one run report; returns it on success."""
    _require(isinstance(report, dict), "not a mapping")
    _require(report.get("schema") == RUN_REPORT_SCHEMA,
             f"unexpected schema tag {report.get('schema')!r}")
    for key in ("label", "summary", "metrics", "phases", "resources",
                "resource_roles", "network", "trace"):
        _require(key in report, f"missing key {key!r}")
    summary = report["summary"]
    _require(isinstance(summary, dict), "summary is not a mapping")
    for key in ("throughput_tx_s", "latency_mean_s", "latency_p95_s",
                "completed", "duration_s", "warmup_s", "interval_rates"):
        _require(key in summary, f"summary missing {key!r}")
    _require(summary["throughput_tx_s"] >= 0, "negative throughput")
    if "events" in report:  # additive v2 section
        events = report["events"]
        _require(isinstance(events, dict), "events is not a mapping")
        for key in ("count", "dropped", "by_kind"):
            _require(key in events, f"events missing {key!r}")
        _require(events["count"] >= 0 and events["dropped"] >= 0,
                 "negative event counts")
    if "audit" in report:  # additive v2 section
        audit = report["audit"]
        _require(isinstance(audit, dict), "audit is not a mapping")
        for key in ("invariants", "events_checked", "violations"):
            _require(key in audit, f"audit missing {key!r}")
        _require(isinstance(audit["violations"], list),
                 "audit violations is not a list")
    if "liveness" in report:  # additive section (liveness auditor attached)
        liveness = report["liveness"]
        _require(isinstance(liveness, dict), "liveness is not a mapping")
        for key in ("invariants", "bound_s", "gst_s", "wedge_k", "submitted",
                    "replied", "outstanding", "regency_timeline",
                    "latency_by_regency", "violations"):
            _require(key in liveness, f"liveness missing {key!r}")
        _require(isinstance(liveness["regency_timeline"], list),
                 "liveness regency_timeline is not a list")
        _require(isinstance(liveness["violations"], list),
                 "liveness violations is not a list")
    if "xshard" in report:  # additive section (cross-shard auditor attached)
        xshard = report["xshard"]
        _require(isinstance(xshard, dict), "xshard is not a mapping")
        for key in ("invariants", "events_checked", "transfers_redeemed",
                    "violations"):
            _require(key in xshard, f"xshard missing {key!r}")
        _require(isinstance(xshard["violations"], list),
                 "xshard violations is not a list")
    if "recovery" in report:  # additive section (recovery auditor attached)
        recovery = report["recovery"]
        _require(isinstance(recovery, dict), "recovery is not a mapping")
        for key in ("invariants", "events_checked", "recoveries_seen",
                    "replayed_checked", "corruption_detected",
                    "snapshots_rejected", "fallbacks", "disk_degraded",
                    "violations"):
            _require(key in recovery, f"recovery missing {key!r}")
        _require(isinstance(recovery["violations"], list),
                 "recovery violations is not a list")
    _require(isinstance(report["phases"], dict), "phases is not a mapping")
    for phase, stats in report["phases"].items():
        for key in _PHASE_STAT_KEYS:
            _require(key in stats, f"phase {phase!r} missing {key!r}")
        _require(stats["count"] > 0, f"phase {phase!r} has no samples")
    _require(isinstance(report["resources"], list), "resources is not a list")
    for entry in report["resources"]:
        for key in _RESOURCE_KEYS:
            _require(key in entry, f"resource entry missing {key!r}")
        _require(0.0 <= entry["busy_fraction"] <= 1.0,
                 f"resource {entry['name']!r} busy fraction "
                 f"{entry['busy_fraction']} outside [0, 1]")
    return report


def validate_bench_report(report: Any,
                          min_phases: int = 0) -> dict[str, Any]:
    """Schema check for a CLI bench report (validates every run inside).

    ``min_phases`` additionally requires at least one run whose per-phase
    breakdown covers that many pipeline phases — the smoke target uses it
    to assert the tracer produced a usable breakdown.
    """
    _require(isinstance(report, dict), "not a mapping")
    _require(report.get("schema") == BENCH_REPORT_SCHEMA,
             f"unexpected schema tag {report.get('schema')!r}")
    _require(isinstance(report.get("runs"), list), "runs is not a list")
    _require(len(report["runs"]) > 0, "no runs")
    for run in report["runs"]:
        validate_report(run)
    if min_phases:
        best = max(len(run["phases"]) for run in report["runs"])
        _require(best >= min_phases,
                 f"widest per-phase breakdown covers {best} phases "
                 f"(< {min_phases})")
    return report
