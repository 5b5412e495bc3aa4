"""Supervisor: sharded execution, quotas, and crash recovery parity.

The recovery tests are the heart of the serving contract: killing a
worker mid-stream (by injected ``os._exit`` or a real SIGKILL) must not
change the merged findings feed or any tenant's summary relative to the
uninterrupted run.
"""

import json
import os

import pytest

from repro.errors import ProtocolError, ServeError
from repro.serve.frontdoor import replay_sources
from repro.serve.service import run_serve
from repro.serve.shard import ShardOptions
from repro.serve.supervisor import Supervisor, TenantFinding

ANALYSES = ("race-prediction", "deadlock-prediction")
SOURCES = ["racy:threads=3,events=60,seed=1",
           "racy:threads=2,events=40,seed=7",
           "deadlock:threads=4,events=50,seed=3"]


def findings_by_tenant(outcome):
    """Tenant-stable ordering: the parity comparison key."""
    return {tenant: sorted((f.analysis, f.position, f.finding)
                           for f in outcome.findings_for(tenant))
            for tenant in outcome.tenants}


def final_documents(outcome):
    return {tenant: json.dumps(outcome.summaries[tenant]["final"],
                               sort_keys=True)
            for tenant in outcome.tenants}


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted single-process reference run."""
    return run_serve(ANALYSES, sources=SOURCES, workers=0, backend=None)


class TestShardedParity:
    def test_two_workers_match_inline(self, baseline):
        sharded = run_serve(ANALYSES, sources=SOURCES, workers=2,
                            backend=None)
        assert sharded.respawns == 0
        assert findings_by_tenant(sharded) == findings_by_tenant(baseline)
        assert final_documents(sharded) == final_documents(baseline)
        assert sharded.events == baseline.events

    def test_merged_feed_attributes_every_tenant(self, baseline):
        assert sorted({f.tenant for f in baseline.findings}) \
            <= baseline.tenants
        assert len(baseline.tenants) == 3


class TestCrashRecovery:
    def test_injected_crash_preserves_findings_parity(self, baseline,
                                                      tmp_path):
        """ISSUE acceptance: kill a worker mid-stream; merged findings
        match the uninterrupted run after checkpoint recovery."""
        crashed = run_serve(ANALYSES, sources=SOURCES, workers=2,
                            backend=None,
                            checkpoint_dir=str(tmp_path),
                            checkpoint_every=16,
                            crash_worker="0@40")
        assert crashed.respawns >= 1, "fault injection never fired"
        assert findings_by_tenant(crashed) == findings_by_tenant(baseline)
        assert final_documents(crashed) == final_documents(baseline)

    def test_sigkill_mid_replay_preserves_findings_parity(self, baseline,
                                                          tmp_path):
        """Same contract under a real SIGKILL aimed with os.kill."""
        supervisor = Supervisor(
            ShardOptions(analyses=ANALYSES, backend=None,
                         checkpoint_dir=str(tmp_path),
                         checkpoint_every=16),
            workers=2)
        supervisor.start()
        killed = []

        def kill_once(tenant, seq):
            if not killed and seq >= 30:
                victim = supervisor._ring.route(tenant)
                os.kill(supervisor.worker_pids[victim], 9)
                killed.append(victim)

        try:
            replay_sources(supervisor, SOURCES, on_sent=kill_once)
            supervisor.drain(timeout=60.0)
        finally:
            supervisor.stop()
        assert killed, "kill hook never fired"
        assert supervisor.respawns >= 1
        got = {tenant: sorted((f.analysis, f.position, f.finding)
                              for f in supervisor.findings_for(tenant))
               for tenant in sorted(supervisor.summaries)}
        assert got == findings_by_tenant(baseline)

    def test_crash_without_checkpoints_still_recovers(self, baseline):
        """No checkpoint_dir: the journal holds each tenant's WHOLE feed,
        so replay rebuilds engines from scratch -- slower, same answer."""
        crashed = run_serve(ANALYSES, sources=SOURCES, workers=2,
                            backend=None, crash_worker="1@30")
        assert crashed.respawns >= 1
        assert findings_by_tenant(crashed) == findings_by_tenant(baseline)

    def test_respawn_counter_lands_in_telemetry(self, tmp_path):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        with obs_metrics.use_registry(registry):
            with registry.span("serve"):
                outcome = run_serve(
                    ANALYSES, sources=SOURCES, workers=2, backend=None,
                    checkpoint_dir=str(tmp_path), checkpoint_every=16,
                    crash_worker="0@40")
        assert outcome.respawns >= 1
        snapshot = registry.snapshot()
        names = {item["name"] for item in snapshot["counters"]}
        assert "serve_worker_respawn_total" in names
        assert "serve_events_total" in names


def _tenants_total(**kwargs):
    """``serve_tenants_total`` and the respawn count of one telemetry-on
    replay of SOURCES."""
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.MetricsRegistry()
    with obs_metrics.use_registry(registry):
        with registry.span("serve"):
            outcome = run_serve(ANALYSES, sources=SOURCES, backend=None,
                                **kwargs)
    total = sum(item["value"] for item in registry.snapshot()["counters"]
                if item["name"] == "serve_tenants_total")
    return total, outcome.respawns


class TestTenantCount:
    @pytest.mark.parametrize("workers", [0, 1, 2])
    def test_each_tenant_counted_once(self, workers):
        assert _tenants_total(workers=workers) == (len(SOURCES), 0)

    def test_respawn_does_not_recount_tenants(self, tmp_path):
        total, respawns = _tenants_total(
            workers=2, checkpoint_dir=str(tmp_path), checkpoint_every=16,
            crash_worker="0@40")
        assert respawns >= 1, "fault injection never fired"
        assert total == len(SOURCES)


class TestQuotas:
    def test_quota_rejects_excess_events(self):
        with pytest.raises(ProtocolError, match="quota"):
            run_serve(ANALYSES, sources=SOURCES, workers=0, backend=None,
                      quota_events=50)

    def test_quota_rejection_is_counted_and_typed(self):
        supervisor = Supervisor(ShardOptions(analyses=ANALYSES,
                                             backend=None),
                                workers=1, quota_events=3)
        supervisor.start()
        try:
            for seq in range(3):
                supervisor.ingest_event("t", "0|read|variable=str:x")
            with pytest.raises(ProtocolError, match="quota"):
                supervisor.ingest_event("t", "0|read|variable=str:x")
            assert supervisor.rejected == 1
        finally:
            supervisor.stop()


class TestLifecycleValidation:
    def test_ingest_after_end_rejected(self):
        supervisor = Supervisor(ShardOptions(analyses=ANALYSES,
                                             backend=None), workers=1)
        supervisor.start()
        try:
            supervisor.ingest_event("t", "0|read|variable=str:x")
            supervisor.end_tenant("t")
            with pytest.raises(ProtocolError, match="already ended"):
                supervisor.ingest_event("t", "0|read|variable=str:x")
        finally:
            supervisor.stop()

    @pytest.mark.parametrize("spec", ["", "0", "@", "0@", "@5", "x@5",
                                      "0@0", "-1@5", "9@5"])
    def test_malformed_crash_spec_rejected(self, spec):
        with pytest.raises(ServeError):
            Supervisor(ShardOptions(analyses=ANALYSES), workers=2,
                       crash_worker=spec)

    def test_invalid_shape_rejected(self):
        options = ShardOptions(analyses=ANALYSES)
        with pytest.raises(ServeError):
            Supervisor(options, workers=0)
        with pytest.raises(ServeError):
            Supervisor(options, workers=1, queue_size=0)
        with pytest.raises(ServeError):
            Supervisor(options, workers=1, quota_events=0)


class TestTenantFinding:
    def test_watch_line_matches_cli_format(self):
        finding = TenantFinding(tenant="t", analysis="race-prediction",
                                position=42, finding="race on x")
        assert finding.watch_line() == "[    42] race-prediction: race on x"
        assert str(finding) == "t [    42] race-prediction: race on x"
