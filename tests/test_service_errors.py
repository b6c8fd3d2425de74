"""The one error envelope, over both daemons.

Every error class the service can produce is driven against a single
worker (:class:`~repro.service.ServiceThread`) and a sharded gateway
(:class:`~repro.service.GatewayThread`).  Each answer must be
``ok: false`` with an ``error`` object whose ``code`` is a registered
error code, and the HTTP status must be the one that code fixes in
:data:`repro.service.protocol.ERROR_CODES`.  A worker's error must
cross the gateway unchanged.

The framing tests send malformed bytes on a raw socket: each must get
a 400 envelope and a closed connection, and the daemon must go on
serving new connections without logging a traceback.
"""

from __future__ import annotations

import contextlib
import json
import logging
import socket

import pytest

from repro import RunConfig, run_workload
from repro.engine import result_to_dict
from repro.service import (
    Client,
    GatewayThread,
    ServiceThread,
    TenancyController,
    TenantQuota,
)
from repro.service import protocol as P

SPEC = {"workload": "vecadd", "mode": "dyser", "scale": "tiny"}
REJECTED = {"workload": "nosuchkernel", "scale": "tiny"}


def _tenancy() -> TenancyController:
    return TenancyController(
        allowed={P.DEFAULT_TENANT, "greedy"},
        quotas={"greedy": TenantQuota(max_inflight=0)})


@pytest.fixture(scope="module")
def daemons():
    payload = result_to_dict(run_workload(RunConfig(**SPEC)))

    def worker(spec, cache=None):
        return dict(payload)

    with contextlib.ExitStack() as stack:
        service = stack.enter_context(ServiceThread(
            cache=None, tenancy=_tenancy(), worker=worker))
        gateway = stack.enter_context(GatewayThread(
            n_workers=2, worker_kwargs={"cache": None, "worker": worker},
            cache=None, tenancy=_tenancy(), health_interval_s=0.2))
        yield {"service": (service, service.service),
               "gateway": (gateway, gateway.gateway.service)}


def _raw(port: int, data: bytes) -> tuple[int, dict, bytes]:
    """Send raw bytes; read until the server closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


def _post_raw(port: int, body: bytes, length: int) -> tuple[int, dict]:
    status, _, data = _raw(port, (
        f"POST /v2/run HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"
        f"Content-Length: {length}\r\n\r\n").encode() + body)
    return status, json.loads(data)


@contextlib.contextmanager
def _draining(daemon):
    """Hold the daemon in its draining state without shutting it down."""
    daemon._draining = True
    try:
        yield
    finally:
        daemon._draining = False


def _send(case: str, port: int, daemon) -> tuple[int, dict]:
    tenant = {"tenant-denied": "mallory",
              "tenant-throttled": "greedy"}.get(case)
    with Client(port=port, retries=0, tenant=tenant) as client:
        if case == "unknown-path":
            return client.request("GET", "/v2/nope")
        if case == "wrong-method":
            return client.request("POST", "/healthz", {})
        if case == "not-json":
            return _post_raw(port, b"{not json", 9)
        if case == "oversized":
            return _post_raw(port, b"", P.MAX_BODY_BYTES + 1)
        if case == "lint-rejected":
            return client.request("POST", "/v2/run", {"spec": REJECTED})
        if case in ("tenant-denied", "tenant-throttled"):
            return client.request("POST", "/v2/run", {"spec": SPEC})
        if case == "draining":
            with _draining(daemon):
                return client.request("POST", "/v2/jobs", {"spec": SPEC})
        assert case == "bad-job-id"
        return client.request("GET", "/v2/jobs/j-missing-0000")


#: Every error class, with the error code it must carry.
CASES = {
    "unknown-path": P.ERR_NOT_FOUND,
    "wrong-method": P.ERR_METHOD,
    "not-json": P.ERR_BAD_REQUEST,
    "oversized": P.ERR_TOO_LARGE,
    "lint-rejected": P.ERR_LINT_REJECTED,
    "tenant-denied": P.ERR_TENANT_DENIED,
    "tenant-throttled": P.ERR_THROTTLED,
    "draining": P.ERR_UNAVAILABLE,
    "bad-job-id": P.ERR_NOT_FOUND,
}


class TestOneEnvelope:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("kind", ["service", "gateway"])
    def test_every_error_class(self, daemons, kind, case):
        harness, daemon = daemons[kind]
        status, body = _send(case, harness.port, daemon)
        assert body["ok"] is False
        assert body["protocol"] == P.PROTOCOL
        error = body["error"]
        assert set(error) == {"code", "message", "diagnostics",
                              "retry_after_s"}
        assert error["code"] == CASES[case]
        assert status == P.ERROR_CODES[error["code"]]
        # Nothing rides next to the error object but the run fields.
        assert set(body) <= {"protocol", "ok", "error", "status",
                             "job_hash", "latency_ms"}
        if case == "lint-rejected":
            assert "RPR251" in {d["code"] for d in error["diagnostics"]}
        if case == "tenant-throttled":
            assert error["retry_after_s"] > 0

    @pytest.mark.parametrize("memory_bytes", [65537, 1 << 40])
    @pytest.mark.parametrize("kind", ["service", "gateway"])
    def test_memory_size_is_lint_rejected(self, daemons, kind, memory_bytes):
        harness, _ = daemons[kind]
        with Client(port=harness.port, retries=0) as client:
            status, body = client.request(
                "POST", "/v2/run",
                {"spec": dict(SPEC, memory_bytes=memory_bytes)})
        assert status == 422
        assert body["error"]["code"] == P.ERR_LINT_REJECTED
        assert {d["code"] for d in body["error"]["diagnostics"]} == {"RPR255"}

    def test_worker_error_crosses_the_gateway_unchanged(self, daemons):
        gateway, _ = daemons["gateway"]
        worker = gateway.workers[0]
        with Client(port=gateway.port, retries=0) as client:
            via_gateway = client.request("POST", "/v2/run",
                                         {"spec": REJECTED})
        with Client(port=worker.port, retries=0) as client:
            direct = client.request("POST", "/v2/run", {"spec": REJECTED})
        for _, body in (via_gateway, direct):
            body.pop("latency_ms")
        assert via_gateway == direct


#: Malformed framing the transport must answer with a 400 and a close.
FRAMING = {
    "negative-length": (b"POST /v2/run HTTP/1.1\r\nHost: test\r\n"
                        b"Content-Length: -5\r\n\r\n"),
    "oversized-header": (b"GET /healthz HTTP/1.1\r\nX-Big: "
                         + b"a" * 70_000 + b"\r\n\r\n"),
    "too-many-headers": (b"GET /healthz HTTP/1.1\r\n"
                         + b"X-Pad: a\r\n" * (P.MAX_HEADER_LINES + 1)
                         + b"\r\n"),
    "duplicate-length": (b"POST /v2/run HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Length: 2\r\nContent-Length: 40\r\n"
                         b"\r\n{}"),
}


class TestFramingFailsClosed:
    @pytest.mark.parametrize("case", sorted(FRAMING))
    @pytest.mark.parametrize("kind", ["service", "gateway"])
    def test_bad_framing_is_a_400_then_close(self, daemons, kind, case,
                                             caplog):
        harness, _ = daemons[kind]
        with caplog.at_level(logging.ERROR):
            status, headers, data = _raw(harness.port, FRAMING[case])
            with Client(port=harness.port, retries=0) as client:
                health = client.health()
        assert status == 400
        assert headers["connection"] == "close"
        body = json.loads(data)
        assert body["ok"] is False
        assert body["error"]["code"] == P.ERR_BAD_REQUEST
        assert health["ready"] is True
        assert not [r for r in caplog.records
                    if r.levelno >= logging.ERROR], caplog.text
