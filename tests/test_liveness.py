"""Liveness auditor: request lifecycles, wedge detection, backoff recovery.

Unit tests drive :class:`LivenessAuditor` with synthetic event streams
(deadline edges, GST semantics, wedge episodes); integration tests run the
liveness-attacking fault plans end to end and assert the acceptance pair:
the legacy fixed-timeout synchronizer wedges under ``leader-delay-fixed``
(AuditError, CLI exit 2) while the exponential-backoff synchronizer
survives the identical attack under both consensus engines.
"""

import pytest

from repro.bench.__main__ import main
from repro.bench.harness import Scenario, run
from repro.obs.audit import AuditError
from repro.obs.events import EventLog
from repro.obs.liveness import (
    LIVENESS_INVARIANTS,
    LivenessAuditor,
    audit_liveness_log,
)
from repro.obs.report import validate_report


def _liveness_auditor(result):
    """The single-group run's one liveness auditor."""
    [auditor] = [a for a in result.handle.obs.auditors
                 if isinstance(a, LivenessAuditor)]
    return auditor


def _wired(**kwargs):
    """An auditor subscribed to a fresh log; returns (log, auditor)."""
    auditor = LivenessAuditor(**kwargs)
    log = EventLog()
    log.subscribe(auditor.on_event)
    return log, auditor


def _submit(log, t, client=1, req=1):
    log.emit("request-submitted", 9000, t, client=client, req=req, size=200)


def _reply(log, t, client=1, req=1):
    log.emit("request-replied", 9000, t, client=client, req=req,
             latency=0.0)


def _change(log, regency, t):
    log.emit("leader-change", regency % 4, t, regency=regency,
             leader=regency % 4, timeout=0.5)


class TestBoundedLatency:
    def test_reply_exactly_at_deadline_passes(self):
        log, auditor = _wired(bound=1.0, gst=0.0)
        _submit(log, 0.5)
        _reply(log, 1.5)  # deadline is inclusive
        assert auditor.ok
        assert auditor.summary()["replied"] == 1

    def test_reply_past_deadline_flags(self):
        log, auditor = _wired(bound=1.0, gst=0.0)
        _submit(log, 0.5)
        _reply(log, 1.5001)
        assert not auditor.ok
        violation = auditor.violations[0]
        assert violation.invariant == "bounded-latency"
        assert violation.context["deadline"] == pytest.approx(1.5)

    def test_pre_gst_submission_measured_from_gst(self):
        log, auditor = _wired(bound=1.0, gst=2.0)
        _submit(log, 0.5)       # pre-GST asynchrony is excused
        _reply(log, 2.9)        # deadline is gst + bound = 3.0
        assert auditor.ok
        _submit(log, 0.6, req=2)
        _reply(log, 3.1, req=2)
        assert not auditor.ok

    def test_outstanding_past_deadline_flagged_at_finalize(self):
        log, auditor = _wired(bound=1.0, gst=0.0)
        _submit(log, 0.5)            # deadline 1.5, horizon 5.0: late
        _submit(log, 4.5, req=2)     # deadline 5.5 > horizon: excused
        assert auditor.ok
        auditor.finalize(horizon=5.0)
        assert len(auditor.violations) == 1
        summary = auditor.summary()
        assert summary["late_outstanding"] == 1
        assert summary["outstanding"] == 2

    def test_flag_cap_still_tallies_every_late_reply(self):
        log, auditor = _wired(bound=0.1, gst=0.0, max_flagged=2)
        for req in range(5):
            _submit(log, 0.0, req=req)
            _reply(log, 1.0, req=req)
        assert len(auditor.violations) == 2
        assert auditor.summary()["late_replies"] == 5

    def test_strict_mode_raises_immediately(self):
        log, auditor = _wired(bound=0.1, gst=0.0, strict=True)
        _submit(log, 0.0)
        with pytest.raises(AuditError):
            _reply(log, 1.0)


class TestWedgeDetection:
    def test_k_decisionless_changes_flag_wedge(self):
        log, auditor = _wired(wedge_k=4)
        for regency in range(1, 5):
            _change(log, regency, 0.5 * regency)
        wedges = [v for v in auditor.violations if v.invariant == "no-wedge"]
        assert len(wedges) == 1
        assert wedges[0].context["changes"] == 4

    def test_decide_resets_the_counter(self):
        log, auditor = _wired(wedge_k=4)
        for regency in range(1, 4):
            _change(log, regency, 0.5 * regency)
        log.emit("decide", 0, 2.0, cid=1, batch=3, regency=3)
        for regency in range(4, 7):
            _change(log, regency, 0.5 * regency)
        assert auditor.ok

    def test_duplicate_installs_and_decides_counted_once(self):
        log, auditor = _wired(wedge_k=4)
        for node in range(4):  # four replicas installing the same regency
            log.emit("leader-change", node, 1.0, regency=1, leader=1,
                     timeout=0.5)
        for node in range(4):  # four replicas delivering the same cid
            log.emit("decide", node, 1.5, cid=7, batch=1, regency=1)
        summary = auditor.summary()
        assert summary["regency_changes"] == 1
        assert summary["regency_timeline"][-1]["decisions"] == 1
        assert auditor.ok

    def test_timeline_attributes_latency_to_current_regency(self):
        log, auditor = _wired(bound=10.0)
        _submit(log, 0.1)
        _change(log, 1, 0.5)
        _reply(log, 0.9)
        by_regency = auditor.summary()["latency_by_regency"]
        assert set(by_regency) == {"1"}
        assert by_regency["1"]["count"] == 1
        assert by_regency["1"]["max_s"] == pytest.approx(0.8)


class TestOfflineHelper:
    def test_offline_sweep_matches_online(self):
        log, online = _wired(bound=1.0, wedge_k=4)
        _submit(log, 0.1)
        _change(log, 1, 0.4)
        _reply(log, 0.8)
        _submit(log, 0.2, req=2)
        online.finalize(horizon=6.0)
        offline = audit_liveness_log(log, horizon=6.0, bound=1.0, wedge_k=4)
        assert offline.summary() == online.summary()
        assert offline.summary()["invariants"] == list(LIVENESS_INVARIANTS)


class TestHarnessIntegration:
    def test_fixed_timeout_wedges_under_leader_delay(self):
        # The acceptance negative control: the legacy fixed-timeout
        # synchronizer livelocks — each SYNC is overtaken by the next
        # escalation — and the auditor calls the wedge.
        with pytest.raises(AuditError) as excinfo:
            run(Scenario(system="smartchain", clients=60, duration=4.0,
                         seed=1, faults="leader-delay-fixed",
                         audit_liveness=True))
        assert any(v.invariant == "no-wedge"
                   for v in excinfo.value.violations)

    @pytest.mark.parametrize("engine", ["modsmart", "fastbft"])
    def test_exponential_backoff_survives_leader_delay(self, engine):
        result = run(Scenario(system="smartchain", engine=engine, clients=60,
                              duration=6.0, seed=1, faults="leader-delay",
                              audit_liveness=True, observe=True))
        liveness = result.report["liveness"]
        assert liveness["violations"] == []
        assert liveness["replied"] > 0
        # Recovery required at least one backed-off regency change, and the
        # per-install timeouts grew monotonically within the storm.
        assert liveness["regency_changes"] >= 1
        timeouts = [entry["timeout"]
                    for entry in liveness["regency_timeline"][1:]]
        assert timeouts and timeouts == sorted(timeouts)
        assert timeouts[-1] > 0.25  # backed off beyond the plan's base

    @pytest.mark.parametrize("plan", ["stop-spam", "timeout-jitter"])
    def test_remaining_liveness_plans_pass(self, plan):
        result = run(Scenario(system="smartchain", clients=60, duration=4.0,
                              seed=1, faults=plan, audit_liveness=True))
        assert _liveness_auditor(result).ok

    def test_stop_spam_never_reaches_join_quorum(self):
        # One spammer is below f+1: the group must keep the leader.
        result = run(Scenario(system="smartchain", clients=60, duration=4.0,
                              seed=1, faults="stop-spam",
                              audit_liveness=True))
        assert _liveness_auditor(result).summary()["regency_changes"] == 0
        assert result.metrics["regency_changes"] == 0

    def test_report_carries_liveness_section_and_sync_metrics(self):
        result = run(Scenario(system="smartchain", clients=60, duration=6.0,
                              seed=1, faults="leader-delay",
                              audit_liveness=True, observe=True))
        validate_report(result.report)
        liveness = result.report["liveness"]
        assert liveness["invariants"] == list(LIVENESS_INVARIANTS)
        assert liveness["bound_s"] == 4.0   # from the plan's hints
        assert liveness["gst_s"] == 0.4
        assert liveness["submitted"] >= liveness["replied"] > 0
        assert liveness["latency_by_regency"]
        # Satellite metrics: synchronizer health rolled into run metrics.
        metrics = result.metrics
        assert metrics["regency_changes"] >= 1
        assert metrics["watchdog_fires"] >= 1
        assert metrics["regency_timeouts"]  # str regency -> timeout
        assert all(isinstance(k, str) for k in metrics["regency_timeouts"])

    def test_scenario_overrides_beat_plan_hints(self):
        result = run(Scenario(system="smartchain", clients=60, duration=2.0,
                              seed=1, faults="stop-spam",
                              audit_liveness=True, liveness_bound=9.0,
                              liveness_gst=0.2, wedge_k=7))
        auditor = _liveness_auditor(result)
        assert auditor.bound == 9.0
        assert auditor.gst == 0.2
        assert auditor.wedge_k == 7

    def test_clean_run_passes_with_default_bound(self):
        result = run(Scenario(system="smartchain", clients=60, duration=2.0,
                              seed=1, audit_liveness=True))
        auditor = _liveness_auditor(result)
        assert auditor.ok
        assert auditor.summary()["regency_changes"] == 0


class TestCLI:
    def test_audit_liveness_exit_codes(self, capsys):
        assert main(["smartchain", "--clients", "60", "--duration", "4.0",
                     "--audit-liveness", "--faults",
                     "leader-delay-fixed"]) == 2
        assert "no-wedge" in capsys.readouterr().err
        assert main(["smartchain", "--clients", "60", "--duration", "6.0",
                     "--audit-liveness", "--faults", "leader-delay"]) == 0
        capsys.readouterr()
