"""Synchronous client for the simulation service (stdlib ``http.client``).

One :class:`Client` covers the whole service surface:

- :meth:`Client.execute` — the synchronous path (``POST /v2/run``):
  submit one run and block for its envelope (cache hits answer in
  microseconds);
- :meth:`Client.submit` / :meth:`Client.sweep` — the durable async
  path: ``POST /v2/jobs`` returns a typed :class:`JobHandle`
  immediately; the job keeps running if this process goes away;
- :meth:`Client.job` / :meth:`Client.jobs` / :meth:`Client.wait` /
  :meth:`Client.cancel` — poll, list, block on, or stop a job, all
  returning typed :class:`JobStatus` snapshots;
- :meth:`Client.lint`, :meth:`Client.submit_kernel`,
  :meth:`Client.health` and :meth:`Client.metrics_text` for the rest.

One client holds one keep-alive connection (it is not thread-safe —
give each thread its own; the closed-loop benchmark does exactly
that).  The retry policy treats the service's explicit backpressure
signals as *retryable*, everything else as final:

- transport failures (connection refused/reset, truncated response)
  retry with capped exponential backoff — this is what lets
  ``repro submit`` race ``repro serve &`` startup and survive a
  flapping server;
- ``429`` honours the server's ``Retry-After`` hint (capped);
- ``503`` (draining) backs off like a transport failure;
- any other status is returned to the caller immediately.

Retrying a run submission is safe by construction: requests are
content-addressed by ``JobSpec.job_hash``, so a duplicate submission
coalesces onto the original in-flight job or hits the artifact cache —
it can never run the same work twice.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import time
from dataclasses import dataclass, field

from repro.errors import ReproError

from repro.service import protocol as P
from repro.service.protocol import DEFAULT_PORT

#: Transport-level failures worth a retry.
_RETRYABLE_EXC = (ConnectionError, socket.timeout, socket.gaierror,
                  http.client.HTTPException, OSError)


class ServiceError(ReproError):
    """A request that could not be served (after retries).

    Carries ``status`` (HTTP status code, or 0 for transport failures)
    and ``payload`` (the decoded response body, when there was one).
    """

    def __init__(self, message: str, *, status: int = 0,
                 payload: dict | None = None, **context) -> None:
        super().__init__(message, status=status, **context)
        self.status = status
        self.payload = payload or {}


def _error_message(payload: dict, status: int) -> str:
    """Human-readable message of a response's error object."""
    error = payload.get("error") or {}
    return str(error.get("message") or error.get("code")
               or f"HTTP {status}")


@dataclass(frozen=True)
class JobStatus:
    """Immutable snapshot of one async job, as the server reported it."""

    id: str
    kind: str
    state: str
    tenant: str = P.DEFAULT_TENANT
    label: str | None = None
    priority: int = 0
    created: float = 0.0
    updated: float = 0.0
    done: int = 0
    total: int = 0
    error: str | None = None
    #: Per-spec response envelopes; only populated when the status was
    #: fetched with ``results=True``.
    results: tuple = field(default=())

    @property
    def terminal(self) -> bool:
        return self.state in P.TERMINAL_JOB_STATES

    @property
    def succeeded(self) -> bool:
        return self.state == P.JOB_SUCCEEDED

    @classmethod
    def from_payload(cls, doc: dict) -> "JobStatus":
        progress = doc.get("progress") or {}
        return cls(
            id=doc.get("id", ""), kind=doc.get("kind", P.JOB_KIND_RUN),
            state=doc.get("state", P.JOB_QUEUED),
            tenant=doc.get("tenant", P.DEFAULT_TENANT),
            label=doc.get("label"),
            priority=int(doc.get("priority", 0)),
            created=float(doc.get("created", 0.0)),
            updated=float(doc.get("updated", 0.0)),
            done=int(progress.get("done", 0)),
            total=int(progress.get("total", 0)),
            error=doc.get("error"),
            results=tuple(doc.get("results") or ()))


class JobHandle:
    """A submitted job: its id plus the client to poll it with."""

    def __init__(self, client: "Client", job_id: str,
                 status: JobStatus | None = None) -> None:
        self.client = client
        self.id = job_id
        #: The submission-time snapshot (state ``queued``).
        self.submitted = status

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle({self.id!r})"

    def status(self, *, results: bool = False) -> JobStatus:
        return self.client.job(self.id, results=results)

    def wait(self, timeout: float | None = None,
             poll_s: float = 0.05, *,
             results: bool = False) -> JobStatus:
        return self.client.wait(self, timeout=timeout, poll_s=poll_s,
                                results=results)

    def cancel(self) -> JobStatus:
        return self.client.cancel(self.id)


class Client:
    """JSON-over-HTTP client for a repro service or gateway."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, *,
                 timeout: float = 120.0, retries: int = 3,
                 backoff_s: float = 0.1, backoff_cap_s: float = 2.0,
                 tenant: str | None = None,
                 sleep=time.sleep) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        #: Tenant name sent as ``X-Repro-Tenant`` on every request
        #: (None → the server's ``anonymous`` default).
        self.tenant = tenant
        self._sleep = sleep
        self._conn: http.client.HTTPConnection | None = None

    # -- transport -----------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send_once(self, method: str, path: str, body: bytes | None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        headers = {"Content-Type": "application/json"} if body else {}
        if self.tenant:
            headers["X-Repro-Tenant"] = self.tenant
        self._conn.request(method, path, body=body, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        return response.status, dict(response.getheaders()), data

    def request(self, method: str, path: str,
                body: dict | None = None) -> tuple[int, dict]:
        """One request with the retry policy; returns (status, body)."""
        encoded = (json.dumps(body).encode("utf-8")
                   if body is not None else None)
        attempts = self.retries + 1
        last_error: str = "unreachable"
        for attempt in range(attempts):
            try:
                status, headers, data = self._send_once(
                    method, path, encoded)
            except _RETRYABLE_EXC as exc:
                self.close()
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt + 1 < attempts:
                    self._sleep(self._backoff(attempt))
                continue
            payload = P.decode_body(data)
            if status in (429, 503) and attempt + 1 < attempts:
                delay = self._backoff(attempt)
                retry_after = headers.get("Retry-After")
                if retry_after:
                    with contextlib.suppress(ValueError):
                        delay = max(delay,
                                    min(float(retry_after),
                                        self.backoff_cap_s))
                self._sleep(delay)
                continue
            return status, payload
        raise ServiceError(
            f"{method} {path} failed after {attempts} attempt"
            f"{'s' if attempts != 1 else ''}: {last_error}",
            status=0, attempts=attempts)

    def _backoff(self, attempt: int) -> float:
        return min(self.backoff_cap_s, self.backoff_s * (2 ** attempt))

    def _expect_ok(self, method: str, path: str,
                   body: dict | None = None) -> dict:
        status, payload = self.request(method, path, body)
        if not payload.get("ok", status == 200):
            raise ServiceError(_error_message(payload, status),
                               status=status, payload=payload)
        return payload

    # -- service introspection -----------------------------------------

    def health(self) -> dict:
        status, payload = self.request("GET", "/healthz")
        if status != 200:
            raise ServiceError(f"healthz returned {status}",
                               status=status, payload=payload)
        return payload

    def metrics_text(self) -> str:
        status, payload = self.request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"metrics returned {status}",
                               status=status, payload=payload)
        return payload.get("text", "")

    # -- synchronous runs ----------------------------------------------

    def execute(self, spec: dict, *, priority: int = 0,
                timeout_s: float | None = None,
                raise_on_error: bool = True) -> dict:
        """Submit one run and block for its envelope.

        With ``raise_on_error`` (default) a non-served verdict
        (rejected / failed / throttled-after-retries / expired) raises
        :class:`ServiceError` carrying the envelope; pass ``False`` to
        inspect the envelope yourself.
        """
        body: dict = {"spec": spec, "priority": priority}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        status, payload = self.request("POST", "/v2/run", body)
        if raise_on_error and not payload.get("ok"):
            raise ServiceError(_error_message(payload, status),
                               status=status, payload=payload)
        return payload

    def lint(self, spec: dict) -> dict:
        status, payload = self.request("POST", "/v2/lint",
                                       {"spec": spec})
        if status != 200:
            raise ServiceError(_error_message(payload, status),
                               status=status, payload=payload)
        return payload

    # -- durable async jobs --------------------------------------------

    def submit(self, spec: dict | None = None, *,
               sweep=None, priority: int = 0,
               timeout_s: float | None = None,
               label: str | None = None,
               wait: bool = False, poll_s: float = 0.05,
               wait_timeout: float | None = None):
        """Submit a durable job; returns a :class:`JobHandle`.

        Exactly one of ``spec`` (single run) or ``sweep`` (a
        :class:`~repro.engine.sweeps.SweepSpec` or its dict form) must
        be given.  With ``wait=True`` the call polls to completion and
        returns the final :class:`JobStatus` instead.
        """
        if (spec is None) == (sweep is None):
            raise ValueError("pass exactly one of spec= or sweep=")
        body: dict = {"priority": priority}
        if spec is not None:
            body["spec"] = spec
        else:
            body["sweep"] = (sweep.to_dict()
                             if hasattr(sweep, "to_dict")
                             else dict(sweep))
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        if label is not None:
            body["label"] = label
        status, payload = self.request("POST", "/v2/jobs", body)
        if status != 202 or not payload.get("ok"):
            raise ServiceError(_error_message(payload, status),
                               status=status, payload=payload)
        snapshot = JobStatus.from_payload(payload.get("job", {}))
        handle = JobHandle(self, snapshot.id, snapshot)
        if wait:
            return self.wait(handle, timeout=wait_timeout,
                             poll_s=poll_s, results=True)
        return handle

    def sweep(self, sweep, *, priority: int = 0,
              timeout_s: float | None = None,
              label: str | None = None, wait: bool = False,
              poll_s: float = 0.05,
              wait_timeout: float | None = None):
        """Submit a sweep as a durable job (see :meth:`submit`)."""
        return self.submit(sweep=sweep, priority=priority,
                           timeout_s=timeout_s, label=label,
                           wait=wait, poll_s=poll_s,
                           wait_timeout=wait_timeout)

    # -- DSL kernels ---------------------------------------------------

    def submit_kernel(self, source: str,
                      *, raise_on_error: bool = True) -> dict:
        """Register a DSL kernel (``POST /v2/kernels``).

        Returns the response envelope; on success ``payload['kernel']``
        carries ``kernel_hash`` and the content-addressed ``workload``
        name to use in run/sweep/job specs.  A validation rejection
        (422) raises :class:`ServiceError` whose payload carries the
        structured RPR5xx ``diagnostics``; pass ``raise_on_error=False``
        to inspect the envelope yourself.
        """
        status, payload = self.request("POST", "/v2/kernels",
                                       {"source": source})
        if raise_on_error and (status not in (200, 201)
                               or not payload.get("ok")):
            raise ServiceError(_error_message(payload, status),
                               status=status, payload=payload)
        return payload

    def kernels(self) -> list[str]:
        """Workload names of every registered DSL kernel."""
        payload = self._expect_ok("GET", "/v2/kernels")
        return list(payload.get("kernels", []))

    def job(self, job_id: str, *, results: bool = False) -> JobStatus:
        """Fetch one job's current status (404 → ServiceError)."""
        path = f"/v2/jobs/{job_id}"
        if results:
            path += "?results=1"
        payload = self._expect_ok("GET", path)
        return JobStatus.from_payload(payload.get("job", {}))

    def jobs(self, *, state: str | None = None,
             tenant: str | None = None) -> list[JobStatus]:
        path = "/v2/jobs"
        params = []
        if state is not None:
            params.append(f"state={state}")
        if tenant is not None:
            params.append(f"tenant={tenant}")
        if params:
            path += "?" + "&".join(params)
        payload = self._expect_ok("GET", path)
        return [JobStatus.from_payload(doc)
                for doc in payload.get("jobs", [])]

    def wait(self, job, *, timeout: float | None = None,
             poll_s: float = 0.05,
             results: bool = False) -> JobStatus:
        """Poll a job (handle, status, or id) until terminal."""
        job_id = getattr(job, "id", job)
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        poll_s = max(0.005, float(poll_s))
        while True:
            status = self.job(job_id, results=results)
            if status.terminal:
                return status
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status.state} after "
                    f"{timeout:g}s", status=0,
                    payload=status.__dict__)
            self._sleep(poll_s)

    def cancel(self, job) -> JobStatus:
        job_id = getattr(job, "id", job)
        payload = self._expect_ok("POST", f"/v2/jobs/{job_id}/cancel")
        return JobStatus.from_payload(payload.get("job", {}))
