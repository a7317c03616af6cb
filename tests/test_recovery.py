"""Tests for verified recovery: storage-fault plans, the recovery auditor,
and the end-to-end fault -> recovery -> audit pipeline (docs/faults.md,
"Storage faults & verified recovery").
"""

import json

import pytest

from repro.bench.harness import Scenario, run
from repro.faults import (
    CrashSpec,
    FaultPlan,
    FaultPlanError,
    NAMED_PLANS,
    StorageFaultSpec,
)
from repro.obs.audit import AuditError
from repro.obs.events import ProtocolEvent
from repro.obs.recovery import RecoveryAuditor, audit_recovery_log
from repro.obs.report import validate_report


class TestStorageFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown storage fault"):
            StorageFaultSpec(node=0, kind="head-crash", at=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(FaultPlanError, match=">= 0"):
            StorageFaultSpec(node=0, kind="bit-rot", at=-1.0)

    def test_json_roundtrip(self):
        plan = FaultPlan(
            name="rot",
            storage=(StorageFaultSpec(node=2, kind="gray-disk", at=0.5,
                                      params={"factor": 4.0}),),
            crashes=(CrashSpec(node=2, at=1.0, recover_at=1.5),))
        restored = FaultPlan.from_json(json.loads(json.dumps(plan.to_json())))
        assert restored == plan

    def test_scoped_to_offsets_storage_nodes(self):
        plan = NAMED_PLANS["bitrot-recovery"].scoped_to(100)
        assert plan.storage[0].node == 102
        assert plan.crashes[0].node == 102

    def test_named_recovery_plans_compose_fault_with_crash(self):
        for name in ("bitrot-recovery", "torn-write-recovery"):
            plan = NAMED_PLANS[name]
            assert plan.storage and plan.crashes
            # The fault lands before the first crash, so the damaged log
            # is stable when recovery reads it back.
            assert plan.storage[0].at < plan.crashes[0].at

    def test_negative_control_disables_verification(self):
        assert NAMED_PLANS["bitrot-unverified"].protocol == {
            "verify_recovery": False}


def _event(kind, node, seq=0, time=1.0, **fields):
    return ProtocolEvent(time=time, seq=seq, kind=kind, node=node,
                         fields=fields)


class TestRecoveryAuditor:
    def test_matching_replay_is_clean(self):
        auditor = RecoveryAuditor()
        auditor.on_event(_event("decide", 0, cid=0, batch_hash="aa"))
        auditor.on_event(_event("decide", 0, cid=1, batch_hash="bb"))
        auditor.on_event(_event("recovering", 2,
                                replayed=[(0, "aa"), (1, "bb")]))
        assert auditor.ok
        assert auditor.replayed_checked == 2
        auditor.raise_if_violated()

    def test_divergent_replay_is_flagged(self):
        auditor = RecoveryAuditor()
        auditor.on_event(_event("decide", 0, cid=0, batch_hash="aa"))
        auditor.on_event(_event("recovering", 2, replayed=[(0, "xx")]))
        assert not auditor.ok
        assert auditor.violations[0].invariant == "recovery-divergence"
        with pytest.raises(AuditError):
            auditor.raise_if_violated()

    def test_phantom_cid_is_flagged(self):
        auditor = RecoveryAuditor()
        auditor.on_event(_event("decide", 0, cid=0, batch_hash="aa"))
        auditor.on_event(_event("recovering", 2, replayed=[(7, "aa")]))
        assert [v.invariant for v in auditor.violations] == ["phantom-replay"]

    def test_scope_separates_shards(self):
        # The same cid decided differently in two shards must not cross:
        # each shard's auditor judges its recoveries by its own decisions.
        events = [_event("decide", 0, cid=0, batch_hash="aa"),
                  _event("decide", 100, cid=0, batch_hash="bb"),
                  _event("recovering", 102, replayed=[(0, "bb")]),
                  _event("recovering", 2, replayed=[(0, "aa")])]
        for shard in (0, 1):
            auditor = RecoveryAuditor(scope=lambda node: node // 100,
                                      shard=shard)
            for event in events:
                auditor.on_event(event)
            assert auditor.ok
            assert auditor.recoveries_seen == 1

    def test_strict_mode_raises_immediately(self):
        auditor = RecoveryAuditor(strict=True)
        auditor.on_event(_event("decide", 0, cid=0, batch_hash="aa"))
        with pytest.raises(AuditError):
            auditor.on_event(_event("recovering", 2, replayed=[(0, "xx")]))

    def test_health_tallies(self):
        auditor = audit_recovery_log([
            _event("log-corruption-detected", 2, log="oplog", index=3,
                   reason="checksum", dropped=2),
            _event("snapshot-rejected", 2, key="snap"),
            _event("recovery-fallback", 2, from_cid=3, dropped=2),
            _event("recovery-verified", 2, entries=3, truncated=2, cid=3),
            _event("disk-degraded", 0, latency=0.1, budget=0.01, factor=8.0),
        ])
        summary = auditor.summary()
        assert summary["corruption_detected"] == 1
        assert summary["snapshots_rejected"] == 1
        assert summary["fallbacks"] == 1
        assert summary["disk_degraded"] == 1
        assert auditor.recoveries_verified == 1
        assert auditor.ok


def _recovery_scenario(plan, **overrides):
    kwargs = dict(system="dura", clients=300, duration=3.0, seed=1,
                  observe=True, audit=True, faults=plan)
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestEndToEnd:
    def test_bitrot_recovery_detects_truncates_and_stays_canonical(self):
        result = run(_recovery_scenario("bitrot-recovery"))
        metrics = dict(result.metrics)
        assert metrics["storage.bitrot_detected"] >= 1
        assert metrics["recovery.truncated_entries"] >= 1
        assert metrics["recovery.fallbacks"] >= 1
        assert metrics["recovery.verified_entries"] >= 1
        summary = result.report["recovery"]
        assert summary["corruption_detected"] >= 1
        assert summary["replayed_checked"] >= 1
        assert summary["violations"] == []
        validate_report(result.report)

    def test_torn_write_recovery_stops_at_the_hole(self):
        result = run(_recovery_scenario("torn-write-recovery"))
        metrics = dict(result.metrics)
        assert metrics["recovery.truncated_entries"] >= 1
        assert result.report["recovery"]["violations"] == []

    def test_gray_disk_surfaces_degradation_without_violations(self):
        result = run(_recovery_scenario("gray-disk"))
        metrics = dict(result.metrics)
        assert metrics["storage.gray_periods"] == 1
        summary = result.report["recovery"]
        assert summary["disk_degraded"] >= 1
        assert summary["violations"] == []

    def test_unverified_negative_control_diverges(self):
        """With ``verify_recovery=False`` the corrupted record replays
        blindly and the auditor must catch the divergence — the behavior
        checksummed recovery exists to prevent."""
        with pytest.raises(AuditError) as excinfo:
            run(_recovery_scenario("bitrot-unverified"))
        assert any(v.invariant == "recovery-divergence"
                   for v in excinfo.value.violations)

    def test_fault_free_run_reports_zero_recovery_activity(self):
        result = run(Scenario(system="dura", clients=300, duration=1.0,
                              seed=1, observe=True, audit=True))
        metrics = dict(result.metrics)
        for key in ("recovery.verified_entries", "recovery.truncated_entries",
                    "recovery.fallbacks", "storage.bitrot_detected",
                    "storage.gray_periods"):
            assert metrics[key] == 0, key
        assert result.report["recovery"]["recoveries_seen"] == 0
