"""Tests for the sharded gateway and the durable job surface.

Covers: consistent-hash ring determinism and minimal-disruption
rebalancing, the JSONL job journal (replay, torn tails, compaction),
per-tenant admission (allowlist, token bucket, inflight quota), the
normalized error object, the durable ``/v2/jobs`` lifecycle (submit /
poll / results / cancel / list), worker-kill eviction with
byte-identical re-dispatch, journal replay across a gateway restart,
and a client surface that raises no ``DeprecationWarning``.

Like ``test_service.py``, every daemon runs in-process on an ephemeral
port; tests needing deterministic timing inject a canned or gated
engine worker so nothing depends on real simulation latency.
"""

from __future__ import annotations

import json
import threading
import time
import warnings

import pytest

from repro import RunConfig, run_workload
from repro.engine import ArtifactCache, result_to_dict
from repro.service import (
    Client,
    GatewayThread,
    HashRing,
    JobRecord,
    JobStore,
    ServiceError,
    ServiceThread,
    TenancyController,
    TenantQuota,
    controller_from_config,
)
from repro.service import protocol as P
from repro.service.gateway import _GatewayServiceThread


SPEC = {"workload": "vecadd", "mode": "dyser", "scale": "tiny"}
SWEEP = {"workloads": ["vecadd"], "modes": ["dyser", "scalar"],
         "base": {"scale": "tiny"}}


@pytest.fixture(scope="module")
def canned_payload():
    """One real run summary, reused by injected workers (fast tests)."""
    return result_to_dict(run_workload(RunConfig(**SPEC)))


def _canned_worker(payload):
    def worker(spec, cache=None):
        return dict(payload)
    return worker


class GatedWorker:
    """Blocks the next call after each :meth:`arm` until released."""

    def __init__(self, payload: dict):
        self.payload = payload
        self.release = threading.Event()
        self.started = threading.Event()
        self._lock = threading.Lock()
        self._armed = 0

    def arm(self):
        with self._lock:
            self._armed += 1
        self.release.clear()
        self.started.clear()

    def __call__(self, spec, cache=None):
        blocked = False
        with self._lock:
            if self._armed:
                self._armed -= 1
                blocked = True
        if blocked:
            self.started.set()
            assert self.release.wait(timeout=30), "gate never released"
        return dict(self.payload)


def _poll(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------
# Consistent-hash ring (pure)
# ---------------------------------------------------------------------


class TestHashRing:
    NODES = ["10.0.0.1:9001", "10.0.0.2:9001", "10.0.0.3:9001"]
    KEYS = [f"job-{i:04d}" for i in range(200)]

    def test_mapping_is_deterministic(self):
        a = HashRing(self.NODES)
        b = HashRing(list(reversed(self.NODES)))
        assert [a.node_for(k) for k in self.KEYS] \
            == [b.node_for(k) for k in self.KEYS]

    def test_every_node_owns_some_keys(self):
        ring = HashRing(self.NODES)
        owners = {ring.node_for(k) for k in self.KEYS}
        assert owners == set(self.NODES)

    def test_preference_starts_at_owner_and_covers_all(self):
        ring = HashRing(self.NODES)
        for key in self.KEYS[:20]:
            pref = ring.preference(key)
            assert pref[0] == ring.node_for(key)
            assert sorted(pref) == sorted(self.NODES)
            assert len(set(pref)) == len(pref)

    def test_removal_only_remaps_the_dead_nodes_keys(self):
        ring = HashRing(self.NODES)
        before = {k: ring.node_for(k) for k in self.KEYS}
        dead = self.NODES[1]
        ring.remove(dead)
        for key, owner in before.items():
            if owner != dead:
                assert ring.node_for(key) == owner
            else:
                assert ring.node_for(key) != dead

    def test_readding_restores_the_original_mapping(self):
        ring = HashRing(self.NODES)
        before = {k: ring.node_for(k) for k in self.KEYS}
        ring.remove(self.NODES[0])
        ring.add(self.NODES[0])
        assert {k: ring.node_for(k) for k in self.KEYS} == before


# ---------------------------------------------------------------------
# Job journal (pure, tmp_path)
# ---------------------------------------------------------------------


def _record(job_id="j-test-0001", state=P.JOB_QUEUED) -> JobRecord:
    return JobRecord(job_id=job_id, tenant="anonymous",
                     kind=P.JOB_KIND_SWEEP,
                     spec_payloads=[{"workload": "vecadd"},
                                    {"workload": "saxpy"}],
                     state=state)


class TestJobStore:
    def test_round_trips_across_reopen(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        record = _record()
        store.create(record)
        store.record_result(record, 0, {"ok": True, "status": "hit"})
        store.finish(record, P.JOB_SUCCEEDED)
        store.close()

        reopened = JobStore(path)
        back = reopened.jobs[record.job_id]
        assert back.state == P.JOB_SUCCEEDED
        assert back.results[0] == {"ok": True, "status": "hit"}
        assert back.results[1] is None
        assert back.done == 1 and back.total == 2
        reopened.close()

    def test_running_jobs_replay_as_queued(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        record = _record()
        store.create(record)
        store.mark_running(record)
        store.close()

        reopened = JobStore(path)
        assert reopened.jobs[record.job_id].state == P.JOB_QUEUED
        reopened.close()

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.create(_record())
        store.close()
        with path.open("a") as fh:
            fh.write('{"event": "finish", "id": "j-test-0001", "sta')

        reopened = JobStore(path)
        assert reopened.jobs["j-test-0001"].state == P.JOB_QUEUED
        reopened.close()

    def test_compaction_snapshots_one_line_per_job(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        for i in range(3):
            record = _record(job_id=f"j-test-{i:04d}")
            store.create(record)
            store.mark_running(record)
            store.record_result(record, 0, {"ok": True})
            store.finish(record, P.JOB_SUCCEEDED)
        store.compact()
        assert len(path.read_text().splitlines()) == 3

        reopened = JobStore(path)
        assert all(r.state == P.JOB_SUCCEEDED
                   for r in reopened.jobs.values())
        reopened.close()

    def test_in_memory_store_never_touches_disk(self, tmp_path):
        store = JobStore(None)
        record = _record()
        store.create(record)
        store.finish(record, P.JOB_FAILED, error="boom")
        assert store.jobs[record.job_id].error == "boom"
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------
# Tenancy (pure, injected clock)
# ---------------------------------------------------------------------


class TestTenancy:
    def test_allowlist_denies_unknown_tenants(self):
        ctl = TenancyController(allowed={"alice"})
        assert ctl.admit("alice").allowed
        verdict = ctl.admit("bob")
        assert not verdict.allowed
        assert verdict.status == P.STATUS_DENIED

    def test_inflight_quota_throttles_then_releases(self):
        ctl = TenancyController(
            quotas={"ci": TenantQuota(max_inflight=1)})
        assert ctl.admit("ci").allowed
        verdict = ctl.admit("ci")
        assert not verdict.allowed
        assert verdict.status == P.STATUS_THROTTLED
        assert verdict.retry_after_s > 0
        ctl.release("ci", served=True)
        assert ctl.admit("ci").allowed
        assert ctl.stats()["served"] == {"ci": 1}

    def test_token_bucket_refills_with_the_clock(self):
        now = [0.0]
        ctl = TenancyController(
            default=TenantQuota(rate_per_s=1.0, burst=1),
            clock=lambda: now[0])
        assert ctl.admit("t").allowed
        ctl.release("t")
        verdict = ctl.admit("t")
        assert not verdict.allowed
        assert verdict.retry_after_s >= 0.05
        now[0] = 1.1
        assert ctl.admit("t").allowed

    def test_config_parsing_and_disabled_default(self):
        assert not TenancyController().enabled
        assert not controller_from_config(None).enabled
        ctl = controller_from_config({
            "default": {"rate_per_s": 50, "burst": 20},
            "tenants": {"ci": {"max_inflight": 2}},
            "allowed": ["ci", "bench"]})
        assert ctl.enabled
        assert ctl.quota_for("ci").max_inflight == 2
        assert ctl.quota_for("bench").rate_per_s == 50


# ---------------------------------------------------------------------
# The error object (protocol level)
# ---------------------------------------------------------------------


class TestErrorEnvelope:
    def test_error_object_always_carries_all_fields(self):
        err = P.error_object(P.ERR_THROTTLED, "busy",
                             retry_after_s=0.51234)
        assert set(err) == {"code", "message", "diagnostics",
                            "retry_after_s"}
        assert err["retry_after_s"] == 0.512

    def test_error_envelope_maps_codes_to_http(self):
        for code, http in P.ERROR_CODES.items():
            status, body, headers = P.error_response(code, "nope")
            assert status == http
            assert body["ok"] is False
            assert body["error"]["code"] == code
            assert headers is None
        status, _, headers = P.error_response(P.ERR_THROTTLED, "busy",
                                              retry_after_s=0.25)
        assert status == 429
        assert headers == {"Retry-After": "0.250"}

    def test_http_status_covers_v1_and_denied(self):
        # Every run verdict, the original ones and the tenancy denial,
        # answers with the HTTP status its error code fixes.
        for verdict in P.SERVED_STATUSES:
            http, body, _ = P.run_response(verdict, {}, job_hash="h",
                                           latency_ms=0.0)
            assert http == 200
            assert "error" not in body
        for verdict, code in P.STATUS_ERROR_CODES.items():
            http, body, _ = P.run_response(verdict, None, job_hash="h",
                                           latency_ms=0.0)
            assert http == P.ERROR_CODES[code], verdict
            assert body["error"]["code"] == code
        http, body, _ = P.run_response(P.STATUS_DENIED, None,
                                       job_hash="h", latency_ms=0.0)
        assert http == 403
        assert body["error"]["code"] == P.ERR_TENANT_DENIED

    def test_unknown_job_is_v2_not_found(self, canned_payload):
        with ServiceThread(cache=None,
                           worker=_canned_worker(canned_payload)) as srv:
            with Client(port=srv.port, retries=0) as client:
                status, _ = client.request(
                    "GET", "/v2/jobs/j-missing-0000")
                cancel, _ = client.request(
                    "POST", "/v2/jobs/j-missing-0000/cancel")
        assert status == cancel == 404

    def test_ambiguous_submission_is_v2_bad_request(self, canned_payload):
        with ServiceThread(cache=None,
                           worker=_canned_worker(canned_payload)) as srv:
            with Client(port=srv.port, retries=0) as client:
                status, body = client.request(
                    "POST", "/v2/jobs",
                    {"spec": SPEC, "sweep": SWEEP})
        assert status == 400
        assert body["error"]["code"] == P.ERR_BAD_REQUEST


# ---------------------------------------------------------------------
# Durable jobs on a single daemon
# ---------------------------------------------------------------------


class TestV2Jobs:
    def test_run_job_lifecycle_and_result_bytes(self, canned_payload,
                                                tmp_path):
        with ServiceThread(cache=None,
                           journal=tmp_path / "jobs.jsonl",
                           worker=_canned_worker(canned_payload)) as srv:
            with Client(port=srv.port, retries=0) as client:
                handle = client.submit(SPEC, label="one-run")
                assert handle.submitted.state == P.JOB_QUEUED
                final = handle.wait(timeout=30, results=True)
        assert final.succeeded
        assert final.label == "one-run"
        assert final.done == final.total == 1
        assert _canonical(final.results[0]["result"]) \
            == _canonical(canned_payload)

        # The journal survives the daemon: replay shows the same job.
        store = JobStore(tmp_path / "jobs.jsonl")
        assert store.jobs[final.id].state == P.JOB_SUCCEEDED
        store.close()

    def test_sweep_job_expands_and_completes(self, canned_payload):
        with ServiceThread(cache=None,
                           worker=_canned_worker(canned_payload)) as srv:
            with Client(port=srv.port, retries=0) as client:
                final = client.submit(sweep=SWEEP, wait=True,
                                      wait_timeout=30)
                listed = client.jobs(state=P.JOB_SUCCEEDED)
        assert final.succeeded
        assert final.kind == P.JOB_KIND_SWEEP
        assert final.done == final.total == 2
        assert [s.id for s in listed] == [final.id]

    def test_cancel_stops_a_blocked_job(self, canned_payload):
        worker = GatedWorker(canned_payload)
        with ServiceThread(cache=None, batch_max=1,
                           batch_window_s=0.0, worker=worker) as srv:
            with Client(port=srv.port, retries=0) as client:
                worker.arm()
                handle = client.submit(sweep=SWEEP)
                assert worker.started.wait(timeout=10)
                cancelled = client.cancel(handle)
                worker.release.set()
                final = client.wait(handle, timeout=30)
        assert cancelled.state in (P.JOB_QUEUED, P.JOB_RUNNING,
                                   P.JOB_CANCELLED)
        assert final.state == P.JOB_CANCELLED
        assert final.done < final.total


# ---------------------------------------------------------------------
# Tenancy over HTTP
# ---------------------------------------------------------------------


class TestTenancyOverHttp:
    def test_denied_tenant_gets_403_with_detail(self, canned_payload):
        tenancy = TenancyController(allowed={"alice"})
        with ServiceThread(cache=None, tenancy=tenancy,
                           worker=_canned_worker(canned_payload)) as srv:
            with Client(port=srv.port, retries=0,
                        tenant="mallory") as client:
                reply = client.execute(SPEC, raise_on_error=False)
                assert reply["ok"] is False
                assert reply["error"]["code"] == P.ERR_TENANT_DENIED
            with Client(port=srv.port, retries=0,
                        tenant="alice") as client:
                ok = client.execute(SPEC)
        assert ok["status"] == P.STATUS_EXECUTED

    def test_rate_limited_tenant_gets_429_retry_after(self,
                                                      canned_payload):
        tenancy = TenancyController(
            quotas={"greedy": TenantQuota(rate_per_s=0.001, burst=1)})
        with ServiceThread(cache=None, tenancy=tenancy,
                           worker=_canned_worker(canned_payload)) as srv:
            with Client(port=srv.port, retries=0,
                        tenant="greedy") as client:
                first = client.execute(SPEC)
                assert first["status"] == P.STATUS_EXECUTED
                status, headers, data = client._send_once(
                    "POST", "/v2/run",
                    json.dumps({"spec": SPEC}).encode())
        assert status == 429
        payload = json.loads(data)
        retry_after = {k.lower(): v for k, v in headers.items()} \
            .get("retry-after")
        assert retry_after and float(retry_after) > 0
        assert payload["error"]["retry_after_s"] \
            == pytest.approx(float(retry_after), abs=1e-3)

    def test_v2_submission_rejected_with_envelope(self, canned_payload):
        tenancy = TenancyController(allowed={"alice"})
        with ServiceThread(cache=None, tenancy=tenancy,
                           worker=_canned_worker(canned_payload)) as srv:
            with Client(port=srv.port, retries=0,
                        tenant="mallory") as client:
                status, _ = client.request("POST", "/v2/jobs",
                                           {"spec": SPEC})
                jobs = client.jobs()
        assert status == 403
        assert jobs == []


# ---------------------------------------------------------------------
# The gateway fleet
# ---------------------------------------------------------------------


@pytest.fixture()
def fleet(canned_payload, tmp_path):
    with GatewayThread(
            n_workers=2,
            worker_kwargs={"cache": None, "batch_max": 1,
                           "batch_window_s": 0.0,
                           "worker": _canned_worker(canned_payload)},
            cache=None, journal=tmp_path / "gw-jobs.jsonl",
            health_interval_s=0.2) as gw:
        yield gw


class TestGateway:
    def test_health_names_the_fleet(self, fleet):
        with Client(port=fleet.port, retries=0) as client:
            health = client.health()
        assert health["ready"]
        assert health["ring_size"] == 2
        assert sorted(w["addr"] for w in health["workers"]) \
            == sorted(fleet.worker_addrs())

    def test_run_forwards_and_matches_direct_bytes(self, fleet,
                                                   canned_payload):
        with Client(port=fleet.port, retries=0) as client:
            reply = client.execute(SPEC)
        assert reply["ok"]
        assert _canonical(reply["result"]) == _canonical(canned_payload)

    def test_sweep_aggregates_across_shards(self, fleet):
        sweep = dict(SWEEP, axes={"seed": list(range(8))})
        with Client(port=fleet.port, retries=1) as client:
            final = client.sweep(sweep, wait=True, wait_timeout=30)
            health = client.health()
        assert final.succeeded and final.done == final.total == 16
        assert [r["status"] for r in final.results] \
            == [P.STATUS_EXECUTED] * 16
        # The 16 points spread over both shards of the ring.
        assert all(w["forwarded"] > 0 for w in health["workers"])

    def test_gateway_metrics_exposition(self, fleet):
        with Client(port=fleet.port, retries=0) as client:
            client.execute(SPEC)
            text = client.metrics_text()
        assert "repro_service_gateway_forwarded_total" in text
        assert "repro_service_gateway_workers_live 2" in text

    def test_v2_job_through_the_gateway(self, fleet, canned_payload):
        with Client(port=fleet.port, retries=0) as client:
            final = client.submit(sweep=SWEEP, wait=True,
                                  wait_timeout=30)
            with_results = client.job(final.id, results=True)
        assert final.succeeded
        assert all(_canonical(r["result"]) == _canonical(canned_payload)
                   for r in with_results.results)


class TestGatewayFailover:
    def test_worker_kill_evicts_and_redispatches(self, canned_payload,
                                                 tmp_path):
        worker = GatedWorker(canned_payload)
        with GatewayThread(
                n_workers=2,
                worker_kwargs={"cache": None, "batch_max": 1,
                               "batch_window_s": 0.0, "worker": worker},
                cache=None, journal=tmp_path / "gw.jsonl",
                health_interval_s=0.2) as gw:
            client = Client(port=gw.port, retries=0, timeout=30)
            probes = [Client(port=w.port, retries=0, timeout=5)
                      for w in gw.workers]
            worker.arm()
            handle = client.submit(SPEC)
            assert worker.started.wait(timeout=10)

            def busy():
                alive = []
                for i, probe in enumerate(probes):
                    try:
                        if probe.health().get("inflight", 0) > 0:
                            alive.append(i)
                    except ServiceError:
                        pass
                return alive

            assert _poll(lambda: len(busy()) == 1)
            gw.kill_worker(busy()[0])
            worker.release.set()
            final = client.wait(handle, timeout=30, results=True)
            assert final.succeeded
            assert _canonical(final.results[0]["result"]) \
                == _canonical(canned_payload)
            assert _poll(
                lambda: client.health().get("ring_size") == 1)
            client.close()
            for probe in probes:
                probe.close()

    def test_journal_replay_across_gateway_restart(self, canned_payload,
                                                   tmp_path):
        journal = tmp_path / "gw.jsonl"
        worker = GatedWorker(canned_payload)
        with GatewayThread(
                n_workers=1,
                worker_kwargs={"cache": None, "batch_max": 1,
                               "batch_window_s": 0.0, "worker": worker},
                cache=None, journal=journal,
                health_interval_s=0.2) as gw:
            client = Client(port=gw.port, retries=0, timeout=30)
            worker.arm()
            handle = client.submit(sweep=SWEEP)
            assert worker.started.wait(timeout=10)
            gw.gateway.kill()       # crash, no drain: journal keeps it
            client.close()
            worker.release.set()

            reborn = _GatewayServiceThread(
                workers=gw.worker_addrs(), cache=None,
                journal=journal, health_interval_s=0.2)
            reborn.start()
            try:
                with Client(port=reborn.port, retries=0,
                            timeout=30) as client2:
                    final = client2.wait(handle.id, timeout=30,
                                         results=True)
                    assert final.succeeded
                    assert final.done == final.total == 2
            finally:
                reborn.shutdown(timeout=30)
            gw.gateway = None       # already dead; skip its drain


# ---------------------------------------------------------------------
# No deprecated surface left
# ---------------------------------------------------------------------


class TestDeprecatedShims:
    """The client shims are gone; what remains must not warn."""

    def test_new_surface_is_warning_free(self, canned_payload):
        with ServiceThread(cache=None,
                           worker=_canned_worker(canned_payload)) as srv:
            with Client(port=srv.port, retries=0) as client:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", DeprecationWarning)
                    client.execute(SPEC)
                    client.submit(SPEC, wait=True, wait_timeout=30)


# ---------------------------------------------------------------------
# Shared-cache fallback at the gateway
# ---------------------------------------------------------------------


class TestSharedCacheFallback:
    def test_gateway_cache_short_circuits_dead_fleet(self,
                                                     canned_payload,
                                                     tmp_path):
        """A result in the shared cache answers even with no worker."""
        cache = ArtifactCache(tmp_path / "shared")
        with GatewayThread(
                n_workers=1,
                worker_kwargs={"cache": None,
                               "worker": _canned_worker(canned_payload)},
                cache=cache, journal=None,
                health_interval_s=0.2) as gw:
            with Client(port=gw.port, retries=0, timeout=30) as client:
                first = client.execute(SPEC)
                assert first["status"] == P.STATUS_EXECUTED
                gw.kill_worker(0)
                warm = client.execute(SPEC)
        assert warm["status"] == P.STATUS_HIT
        assert _canonical(warm["result"]) == _canonical(canned_payload)
