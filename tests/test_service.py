"""Tests for the simulation service (repro.service).

Covers: startup/readiness, the run pipeline's terminal statuses
(executed / cache hit / coalesced / rejected / throttled / expired),
byte-identical cache-hit parity with the direct run API, backpressure
(429 + Retry-After) under a blocked worker, priority ordering,
drain-on-shutdown completing in-flight jobs, client retry/backoff
against a flapping server, and the Prometheus exposition format.

All tests run the daemon in-process on an ephemeral port via
:class:`repro.service.ServiceThread`.  Tests that need deterministic
timing inject a blocking ``worker`` (the same hook
:func:`repro.engine.pool.run_jobs` exposes) so no test depends on real
simulation latency.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro import RunConfig, run_workload
from repro.engine import ArtifactCache, JobSpec, SweepSpec, result_to_dict
from repro.service import (
    Client,
    ProtocolError,
    ServiceError,
    ServiceThread,
    spec_from_payload,
    spec_to_payload,
)
from repro.service import protocol as P


# ---------------------------------------------------------------------
# Shared fixtures and helpers
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def canned_payload():
    """One real run summary, reused by injected workers (fast tests)."""
    return result_to_dict(run_workload(
        RunConfig(workload="vecadd", mode="dyser", scale="tiny")))


class GatedWorker:
    """Injectable engine worker whose first call blocks on an event.

    Later calls run immediately.  Records the order in which specs
    executed, so tests can assert queue/priority behaviour.
    """

    def __init__(self, payload: dict, *, gate_first: bool = True):
        self.payload = payload
        self.gate_first = gate_first
        self.release = threading.Event()
        self.started = threading.Event()
        self.order: list[str] = []
        self._lock = threading.Lock()
        self._calls = 0

    def __call__(self, spec, cache=None):
        with self._lock:
            self._calls += 1
            first = self._calls == 1
            self.order.append(f"{spec.workload}:{spec.seed}")
        if first and self.gate_first:
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


def _metric(text: str, name: str) -> float:
    """One sample's value from a Prometheus text exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.rpartition(" ")[2])
    return 0.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


SPEC = {"workload": "vecadd", "mode": "dyser", "scale": "tiny"}


# ---------------------------------------------------------------------
# Protocol layer (no server needed)
# ---------------------------------------------------------------------


class TestProtocol:
    def test_spec_payload_round_trip(self):
        spec = JobSpec(workload="mm", mode="dyser", scale="tiny",
                       geometry=(6, 6), unroll=2,
                       energy_overrides=(("dyser_fu_pj", 0.5),))
        rebuilt = spec_from_payload(spec_to_payload(spec))
        assert rebuilt == spec
        assert rebuilt.job_hash == spec.job_hash

    def test_unknown_field_named_in_error(self):
        with pytest.raises(ProtocolError) as err:
            spec_from_payload({"workload": "mm", "unrol": 4})
        assert "unrol" in str(err.value)

    def test_retired_knob_accepted_only_at_its_historic_value(self):
        # Payloads from before the knob's removal echo it at true: the
        # same design point, so test_run_config's golden job hash.
        spec = spec_from_payload({"workload": "mm", "if_convert": True})
        assert spec.job_hash == ("2271a120c34146ac4994f5811385cf2d"
                                 "4952685436b3661ebc355595570c032e")
        with pytest.raises(ProtocolError, match="if_convert") as err:
            spec_from_payload({"workload": "mm", "if_convert": False})
        assert err.value.error_code == P.ERR_BAD_REQUEST

    def test_workload_required(self):
        with pytest.raises(ProtocolError):
            spec_from_payload({"mode": "dyser"})

    def test_geometry_must_be_pair(self):
        with pytest.raises(ProtocolError):
            spec_from_payload({"workload": "mm", "geometry": [4]})

    def test_priority_and_timeout_validation(self):
        with pytest.raises(ProtocolError):
            P.parse_request_body({"spec": SPEC, "priority": "high"})
        with pytest.raises(ProtocolError):
            P.parse_request_body({"spec": SPEC, "timeout_s": -1})

    def test_every_status_has_http_code(self):
        expected = {
            P.STATUS_EXECUTED: 200, P.STATUS_HIT: 200,
            P.STATUS_COALESCED: 200, P.STATUS_REJECTED: 422,
            P.STATUS_THROTTLED: 429, P.STATUS_FAILED: 500,
            P.STATUS_EXPIRED: 504, P.STATUS_DRAINING: 503,
            P.STATUS_DENIED: 403,
        }
        for status, code in expected.items():
            http, body, _ = P.run_response(status, {}, job_hash="h",
                                           latency_ms=0.0)
            assert http == code, status
            assert body["ok"] is (code == 200)
            assert body["status"] == status


# ---------------------------------------------------------------------
# One real service, real engine, warm cache: the happy path
# ---------------------------------------------------------------------


class TestServedRuns:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        cache = ArtifactCache(tmp_path_factory.mktemp("svc-cache"))
        with ServiceThread(cache=cache, batch_window_s=0.001) as srv:
            yield srv

    @pytest.fixture()
    def client(self, service):
        with Client(port=service.port, timeout=120) as client:
            yield client

    def test_health_ready(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["ready"] is True
        assert health["queue_limit"] >= 1

    def test_executed_then_hit_byte_identical(self, client):
        first = client.execute(SPEC)
        assert first["status"] in (P.STATUS_EXECUTED, P.STATUS_HIT)
        assert first["ok"] is True
        again = client.execute(SPEC)
        assert again["status"] == P.STATUS_HIT

        # Acceptance: a served payload is byte-identical to the direct
        # run API's serialization for the same design point.
        config = spec_from_payload(SPEC).to_run_config()
        direct = run_workload(config).to_dict()
        assert json.dumps(again["result"], sort_keys=True) \
            == json.dumps(direct, sort_keys=True)
        assert json.dumps(first["result"], sort_keys=True) \
            == json.dumps(direct, sort_keys=True)

    def test_lint_rejection_payload_shape(self, client):
        reply = client.execute({"workload": "nosuchkernel"},
                               raise_on_error=False)
        assert reply["ok"] is False
        assert reply["status"] == P.STATUS_REJECTED
        diagnostics = reply["error"]["diagnostics"]
        assert "RPR251" in {d["code"] for d in diagnostics}
        assert "error" in {d["severity"] for d in diagnostics}
        assert "nosuchkernel" in reply["error"]["message"]

    def test_lint_rejection_is_422(self, client):
        status, payload = client.request(
            "POST", "/v2/run", {"spec": {"workload": "nosuchkernel"}})
        assert status == 422
        assert payload["status"] == P.STATUS_REJECTED

    def test_unknown_spec_field_is_400(self, client):
        status, payload = client.request(
            "POST", "/v2/run", {"spec": {"workload": "mm", "unrol": 2}})
        assert status == 400
        assert "unrol" in payload["error"]["message"]

    def test_unknown_endpoint_and_method(self, client):
        status, _ = client.request("GET", "/v2/nope")
        assert status == 404
        status, _ = client.request("POST", "/healthz", {})
        assert status == 405

    def test_lint_endpoint(self, client):
        reply = client.lint(SPEC)
        assert reply["ok"] is True
        assert reply["report"]["diagnostics"] == []
        bad = client.lint({"workload": "vecadd", "unroll": 0})
        assert bad["ok"] is False
        codes = {d["code"] for d in bad["report"]["diagnostics"]}
        assert "RPR256" in codes

    def test_sweep_endpoint(self, client):
        sweep = SweepSpec(workloads=("vecadd", "saxpy"),
                          base={"scale": "tiny"})
        final = client.sweep(sweep, wait=True, wait_timeout=120)
        assert final.succeeded
        assert final.done == final.total == 2
        assert all(r["ok"] for r in final.results)
        # Warm repeat: every point answers from the artifact cache.
        again = client.sweep(sweep, wait=True, wait_timeout=120)
        assert [r["status"] for r in again.results] == [P.STATUS_HIT] * 2

    def test_sweep_expansion_limit(self, service, client):
        seeds = tuple(range(service.service.max_sweep_specs + 1))
        sweep = SweepSpec(workloads=("vecadd",), base={"scale": "tiny"},
                          axes=(("seed", seeds),))
        with pytest.raises(ServiceError) as err:
            client.sweep(sweep)
        assert err.value.status == 400

    def test_metrics_exposition_parses(self, client):
        text = client.metrics_text()
        families = set()
        samples = 0
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# TYPE"):
                families.add(line.split()[2])
                continue
            if line.startswith("#"):
                continue
            name_part, _, value = line.rpartition(" ")
            float(value)   # every sample value must parse
            assert name_part.startswith("repro_service_")
            samples += 1
        assert "repro_service_requests_admitted_total" in families
        assert "repro_service_latency_e2e_ms" in families
        assert samples >= len(families)
        # Histogram buckets are cumulative and end at +Inf.
        buckets = [line for line in text.splitlines()
                   if line.startswith("repro_service_latency_e2e_ms_bucket")]
        counts = [float(line.rpartition(" ")[2]) for line in buckets]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in buckets[-1]



# ---------------------------------------------------------------------
# Deterministic scheduling behaviour with an injected worker
# ---------------------------------------------------------------------


class TestBackpressureAndCoalescing:
    def _spec(self, seed: int) -> dict:
        return {"workload": "vecadd", "mode": "dyser", "scale": "tiny",
                "seed": seed}

    def _submit_async(self, port, spec, out, **kwargs):
        def run():
            with Client(port=port, retries=0, timeout=60) as client:
                out.append(client.execute(spec, raise_on_error=False,
                                          **kwargs))
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def test_queue_full_answers_429_with_retry_after(self, canned_payload):
        worker = GatedWorker(canned_payload)
        with ServiceThread(cache=None, queue_limit=2, batch_max=1,
                           batch_window_s=0.0, worker=worker) as srv:
            replies: list[dict] = []
            t1 = self._submit_async(srv.port, self._spec(1), replies)
            assert worker.started.wait(timeout=10)
            t2 = self._submit_async(srv.port, self._spec(2), replies)
            with Client(port=srv.port, retries=0) as probe:
                assert _poll(lambda: probe.health()["inflight"] == 2)
                # Third distinct spec: the bound counts queued AND
                # executing jobs, so this must throttle.
                status, headers, data = probe._send_once(
                    "POST", "/v2/run",
                    json.dumps({"spec": self._spec(3)}).encode())
                payload = json.loads(data)
                assert status == 429
                assert payload["status"] == P.STATUS_THROTTLED
                retry_after = {k.lower(): v for k, v
                               in headers.items()}["retry-after"]
                assert float(retry_after) > 0
            worker.release.set()
            t1.join(timeout=30)
            t2.join(timeout=30)
            assert [r["status"] for r in replies] \
                == [P.STATUS_EXECUTED, P.STATUS_EXECUTED]

    def test_identical_inflight_spec_coalesces(self, canned_payload):
        worker = GatedWorker(canned_payload)
        with ServiceThread(cache=None, queue_limit=8, batch_max=1,
                           batch_window_s=0.0, worker=worker) as srv:
            replies: list[dict] = []
            t1 = self._submit_async(srv.port, self._spec(1), replies)
            assert worker.started.wait(timeout=10)
            t2 = self._submit_async(srv.port, self._spec(1), replies)
            with Client(port=srv.port, retries=0) as probe:
                coalesced = lambda: _metric(  # noqa: E731
                    probe.metrics_text(),
                    "repro_service_requests_coalesced_total") >= 1
                assert _poll(coalesced), "second request never coalesced"
                # Only one engine job exists for the two requests.
                assert probe.health()["inflight"] == 1
            worker.release.set()
            t1.join(timeout=30)
            t2.join(timeout=30)
            statuses = sorted(r["status"] for r in replies)
            assert statuses == [P.STATUS_COALESCED, P.STATUS_EXECUTED]
            payloads = [json.dumps(r["result"], sort_keys=True)
                        for r in replies]
            assert payloads[0] == payloads[1]
            assert worker.order.count("vecadd:1") == 1

    def test_priority_orders_the_queue(self, canned_payload):
        worker = GatedWorker(canned_payload)
        with ServiceThread(cache=None, queue_limit=8, batch_max=1,
                           batch_window_s=0.0, worker=worker) as srv:
            replies: list[dict] = []
            threads = [self._submit_async(srv.port, self._spec(1),
                                          replies)]
            assert worker.started.wait(timeout=10)
            with Client(port=srv.port, retries=0) as probe:
                # Low priority (5) enqueued before high priority (0);
                # the dispatcher must still pop the high one first.
                threads.append(self._submit_async(
                    srv.port, self._spec(2), replies, priority=5))
                assert _poll(
                    lambda: probe.health()["queue_depth"] == 1)
                threads.append(self._submit_async(
                    srv.port, self._spec(3), replies, priority=0))
                assert _poll(
                    lambda: probe.health()["queue_depth"] == 2)
            worker.release.set()
            for thread in threads:
                thread.join(timeout=30)
            assert worker.order == ["vecadd:1", "vecadd:3", "vecadd:2"]

    def test_queued_deadline_expires_as_504(self, canned_payload):
        worker = GatedWorker(canned_payload)
        with ServiceThread(cache=None, queue_limit=8, batch_max=1,
                           batch_window_s=0.0, worker=worker) as srv:
            replies: list[dict] = []
            t1 = self._submit_async(srv.port, self._spec(1), replies)
            assert worker.started.wait(timeout=10)
            expired: list[dict] = []
            t2 = self._submit_async(srv.port, self._spec(2), expired,
                                    timeout_s=0.05)
            with Client(port=srv.port, retries=0) as probe:
                assert _poll(lambda: probe.health()["queue_depth"] == 1)
            time.sleep(0.2)   # let the queued deadline lapse
            worker.release.set()
            t1.join(timeout=30)
            t2.join(timeout=30)
            assert replies[0]["status"] == P.STATUS_EXECUTED
            assert expired[0]["status"] == P.STATUS_EXPIRED
            assert expired[0]["ok"] is False
            # The expired job never burned a worker slot.
            assert worker.order == ["vecadd:1"]


# ---------------------------------------------------------------------
# Lifecycle: graceful drain
# ---------------------------------------------------------------------


class TestDrain:
    def test_shutdown_completes_inflight_jobs(self, canned_payload):
        worker = GatedWorker(canned_payload)
        srv = ServiceThread(cache=None, batch_window_s=0.0,
                            worker=worker).start()
        replies: list[dict] = []

        def submit():
            with Client(port=srv.port, retries=0,
                        timeout=60) as client:
                replies.append(client.execute(
                    {"workload": "vecadd", "scale": "tiny"},
                    raise_on_error=False))

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        assert worker.started.wait(timeout=10)
        # Release the gate shortly *after* the drain begins: shutdown
        # must wait for the in-flight job, not abandon it.
        threading.Timer(0.25, worker.release.set).start()
        srv.shutdown(timeout=60)
        thread.join(timeout=30)
        assert replies and replies[0]["status"] == P.STATUS_EXECUTED
        assert replies[0]["ok"] is True

    def test_new_connections_refused_after_drain(self, canned_payload):
        srv = ServiceThread(cache=None, batch_window_s=0.0,
                            worker=GatedWorker(canned_payload,
                                               gate_first=False)).start()
        port = srv.port
        srv.shutdown(timeout=60)
        with pytest.raises(ServiceError) as err:
            with Client(port=port, retries=1,
                        backoff_s=0.01) as client:
                client.health()
        assert err.value.status == 0   # transport-level, after retries


# ---------------------------------------------------------------------
# Client retry policy
# ---------------------------------------------------------------------


class TestClientRetries:
    def test_retries_until_late_starting_server_is_up(self, canned_payload):
        port = _free_port()
        srv_box: list[ServiceThread] = []

        def start_late():
            time.sleep(0.4)
            srv_box.append(ServiceThread(
                port=port, cache=None, batch_window_s=0.0,
                worker=GatedWorker(canned_payload,
                                   gate_first=False)).start())

        starter = threading.Thread(target=start_late, daemon=True)
        starter.start()
        try:
            with Client(port=port, retries=8,
                        backoff_s=0.1) as client:
                health = client.health()   # racing the bind
            assert health["ready"] is True
        finally:
            starter.join(timeout=10)
            if srv_box:
                srv_box[0].shutdown(timeout=60)

    def test_gives_up_with_transport_error(self):
        client = Client(port=_free_port(), retries=2, backoff_s=0.01)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 0
        assert "3 attempts" in str(err.value)

    def test_backoff_is_capped_exponential(self):
        client = Client(backoff_s=0.1, backoff_cap_s=0.5)
        delays = [client._backoff(i) for i in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_429_honours_retry_after_then_succeeds(self):
        # Fake transport: first response throttles with Retry-After,
        # second succeeds.  Exercises the retry loop without a server.
        sleeps: list[float] = []
        client = Client(retries=3, backoff_s=0.01, sleep=sleeps.append)
        responses = [(429, {"Retry-After": "0.123"}, b'{"ok": false}'),
                     (200, {}, b'{"ok": true}')]
        client._send_once = lambda *a: responses.pop(0)
        status, payload = client.request("GET", "/healthz")
        assert status == 200 and payload["ok"] is True
        assert sleeps == [0.123]
