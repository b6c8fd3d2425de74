"""The daemon: asyncio HTTP/1.1 front end, lifecycle, observability.

``repro serve`` runs a :class:`ReproService` — a single-process,
stdlib-only asyncio server that keeps the expensive state warm across
requests: the engine's persistent :class:`~repro.engine.cache.
ArtifactCache`, the in-process compile/decode caches, the lint memo,
and a service-scoped metrics registry.  Request handling is split
across the sibling modules (admission → scheduler → engine); this
module owns the transport and the lifecycle:

- hand-rolled HTTP/1.1 over ``asyncio.start_server`` (keep-alive,
  bounded body size, JSON responses) — no third-party web framework;
- ``/healthz`` readiness and ``/metrics`` Prometheus exposition,
  served from the event loop even while batches execute;
- graceful drain-then-shutdown: SIGTERM/SIGINT stop admission of new
  work (503), flush the queue, wait for in-flight jobs to answer,
  then close the listener and exit.

The transport + lifecycle live in :class:`HttpDaemon`, shared with
the sharding front end (:mod:`repro.service.gateway`): both daemons
speak identical HTTP, map every failure to the one error envelope of
:mod:`repro.service.protocol`, and serve the same durable job API
(``POST /v2/jobs`` → poll ``GET /v2/jobs/{id}``, backed by a JSONL
journal at ``journal=``) behind optional per-tenant admission
(:mod:`repro.service.tenancy`).  They differ in how ``POST /v2/run``
executes a spec: here through admission and the engine, at the
gateway by forwarding it to a worker.

:class:`ServiceThread` runs the same daemon on a background thread for
tests and benchmarks (port 0 → ephemeral port, no signals involved);
``kill()`` simulates a crash — connections reset, no drain — which is
what the shard-failure tests and the chaos harness exercise.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import signal
import threading
import time
import urllib.parse

from repro.engine.cache import ArtifactCache
from repro.analysis.speclint import lint_spec
from repro.lang import KernelStore, set_default_kernel_dir

from repro.service import protocol as P
from repro.service.admission import AdmissionController
from repro.service.instruments import ServiceInstruments
from repro.service.jobstore import JobManager, JobStore
from repro.service.scheduler import Scheduler
from repro.service.tenancy import TenancyController

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: The only parameterized paths: ``/v2/jobs/{id}`` and its ``/cancel``.
_JOB_PATH = re.compile(r"/v2/jobs/([^/]+)(/cancel)?")


class _Request:
    __slots__ = ("method", "path", "headers", "body")

    def __init__(self, method: str, path: str, headers: dict,
                 body: bytes) -> None:
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise P.ProtocolError(f"request body is not JSON: {exc}") \
                from exc

    @property
    def tenant(self) -> str:
        return self.headers.get(P.TENANT_HEADER, P.DEFAULT_TENANT) \
            or P.DEFAULT_TENANT

    def query(self) -> dict:
        _, _, qs = self.path.partition("?")
        return {k: v[-1] for k, v in
                urllib.parse.parse_qs(qs).items()}


async def _readline(reader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:   # LimitOverrunError: no newline within the limit
        raise P.ProtocolError(
            "request line or header exceeds the 64 KiB limit") from None


class HttpDaemon:
    """Transport, lifecycle and the job API shared by worker and gateway.

    Subclasses set ``instruments`` and extend :meth:`_routes` with
    ``/v2/run``, ``/v2/lint`` and ``/v2/kernels``; they implement the
    per-spec ``_job_runner`` the :class:`JobManager` drives and the
    ``_banner``/``_summary`` lines, and may extend ``_health_body`` and
    the lifecycle hooks (``_start_tasks``, ``_drain``,
    ``_abort_tasks``).
    """

    def __init__(self, host: str = "127.0.0.1",
                 port: int = P.DEFAULT_PORT, *,
                 tenancy: TenancyController | None = None,
                 journal=None, max_sweep_specs: int = 1024) -> None:
        self.host = host
        self.port = port
        self.started_at = time.time()
        self.requests_served = 0
        self.tenancy = tenancy or TenancyController()
        self.max_sweep_specs = max(1, int(max_sweep_specs))
        #: Journal path (None → in-memory jobs, no durability).
        self.job_store = JobStore(journal)
        self.job_manager = JobManager(self.job_store, self._job_runner)
        self.jobs_recovered = 0
        #: path → {method: async handler(request, *path_args)}.
        self.routes = self._routes()
        self._server: asyncio.Server | None = None
        self._draining = False
        self._done: asyncio.Event | None = None
        self._shutdown_task: asyncio.Task | None = None
        self._active_requests = 0
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (resolving port 0) and start dispatching."""
        self._done = asyncio.Event()
        await self._start_tasks()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _start_tasks(self) -> None:
        """Launch background tasks (needs the running loop)."""
        self.jobs_recovered = self.job_manager.recover()

    async def wait_done(self) -> None:
        """Block until a shutdown request has fully drained."""
        assert self._done is not None, "start() first"
        await self._done.wait()

    def begin_shutdown(self) -> None:
        """Initiate drain-then-shutdown (idempotent, loop thread)."""
        if self._draining:
            return
        self._draining = True
        self._shutdown_task = asyncio.get_running_loop().create_task(
            self._shutdown())

    async def _drain(self) -> None:
        """Finish running jobs before the listener closes."""
        self.job_manager.stopping = True
        await self.job_manager.quiesce(timeout=10)
        self.job_store.close()

    def _abort_tasks(self) -> None:
        """Hard-cancel internal tasks on :meth:`abort`."""
        self.job_manager.stopping = True
        self.job_manager.abort()
        self.job_store.close()

    async def _shutdown(self) -> None:
        # 1. stop accepting new connections; existing handlers finish.
        if self._server is not None:
            self._server.close()
        # 2. flush the queue, wait for in-flight jobs to answer.
        await self._drain()
        # 3. let responses already being written reach their sockets.
        for _ in range(500):   # bounded: at most ~5s
            if self._active_requests == 0:
                break
            await asyncio.sleep(0.01)
        # 4. hang up on idle keep-alive clients (otherwise 3.12+'s
        #    Server.wait_closed would wait on them forever).
        for writer in list(self._writers):
            with contextlib.suppress(Exception):
                writer.close()
        if self._server is not None:
            with contextlib.suppress(TimeoutError, asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=5)
        if self._done is not None:
            self._done.set()

    def abort(self) -> None:
        """Simulated crash: reset every connection, skip the drain.

        For shard-failure tests and the chaos harness only — clients
        see connection resets exactly as if the process died.  The
        journal is left as-is, so replay-on-restart is exercised for
        real.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        self._abort_tasks()
        for writer in list(self._writers):
            transport = getattr(writer, "transport", None)
            with contextlib.suppress(Exception):
                if transport is not None:
                    transport.abort()
                else:
                    writer.close()
        if self._done is not None:
            self._done.set()

    def run(self) -> int:
        """Blocking entry point for the CLI (installs signal handlers)."""
        return asyncio.run(self._main())

    async def _main(self) -> int:
        await self.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(sig, self.begin_shutdown)
        print(self._banner(), flush=True)
        await self.wait_done()
        print(self._summary(), flush=True)
        return 0

    def _recovered_note(self) -> str:
        if not self.jobs_recovered:
            return ""
        return (f", {self.jobs_recovered} journaled job"
                f"{'s' if self.jobs_recovered != 1 else ''} recovered")

    # -- HTTP transport ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except P.ProtocolError as exc:
                    await self._respond(
                        writer, *P.error_response(exc.error_code,
                                                  str(exc)),
                        keep_alive=False)
                    break
                if request is None:
                    break
                keep_alive = (request.headers.get("connection", "")
                              .lower() != "close")
                self._active_requests += 1
                try:
                    status, body, headers = await self._dispatch(request)
                    self.requests_served += 1
                    # During a drain, finish this response but hang up
                    # afterwards so keep-alive clients release us.
                    if self._draining:
                        keep_alive = False
                    await self._respond(writer, status, body, headers,
                                        keep_alive=keep_alive)
                finally:
                    self._active_requests -= 1
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass   # client went away mid-request
        except asyncio.CancelledError:
            # Loop torn down mid-request (abort / crash simulation).
            # Ending the handler normally keeps the teardown quiet —
            # asyncio's stream callback would otherwise log the
            # cancellation as "Exception in callback".
            pass
        finally:
            self._writers.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(self, reader) -> _Request | None:
        line = await _readline(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) < 2:
            raise P.ProtocolError(f"malformed request line {line!r}")
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for _ in range(P.MAX_HEADER_LINES + 1):
            hline = await _readline(reader)
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length" and name in headers:
                # Two lengths frame the body two ways; trust neither.
                raise P.ProtocolError("duplicate Content-Length header")
            headers[name] = value.strip()
        else:
            raise P.ProtocolError(
                f"more than {P.MAX_HEADER_LINES} header lines")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise P.ProtocolError("bad Content-Length")
        if length > P.MAX_BODY_BYTES:
            raise P.ProtocolError(
                f"body of {length} bytes exceeds the "
                f"{P.MAX_BODY_BYTES}-byte limit",
                error_code=P.ERR_TOO_LARGE)
        body = await reader.readexactly(length) if length else b""
        return _Request(method, path, headers, body)

    async def _respond(self, writer, status: int, body,
                       headers: dict | None = None, *,
                       keep_alive: bool = True) -> None:
        if isinstance(body, (dict, list)):
            payload = (json.dumps(body, sort_keys=True) + "\n") \
                .encode("utf-8")
            ctype = "application/json"
        else:
            payload = str(body).encode("utf-8")
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + payload)
        await writer.drain()

    # -- routing -------------------------------------------------------

    def _routes(self) -> dict:
        """The daemon's route table; subclasses add their endpoints."""
        return {
            "/healthz": {"GET": self._handle_health},
            "/metrics": {"GET": self._handle_metrics},
            "/v2/jobs": {"POST": self._handle_job_submit,
                         "GET": self._handle_job_list},
            "/v2/jobs/{id}": {"GET": self._handle_job_get},
            "/v2/jobs/{id}/cancel": {"POST": self._handle_job_cancel},
        }

    async def _dispatch(self, request: _Request):
        """Route one request to ``(status, body, headers)``; every
        failure becomes the one error envelope."""
        try:
            path = request.path.split("?", 1)[0]
            args: tuple = ()
            match = _JOB_PATH.fullmatch(path)
            if match:
                path = "/v2/jobs/{id}" + (match.group(2) or "")
                args = (match.group(1),)
            methods = self.routes.get(path)
            if methods is None:
                raise P.ProtocolError(
                    f"no such endpoint {request.method} {path}",
                    error_code=P.ERR_NOT_FOUND)
            handler = methods.get(request.method)
            if handler is None:
                raise P.ProtocolError(
                    f"{request.method} not allowed on {path}",
                    error_code=P.ERR_METHOD)
            return await handler(request, *args)
        except P.ProtocolError as exc:
            return P.error_response(
                exc.error_code, str(exc), diagnostics=exc.diagnostics,
                retry_after_s=exc.retry_after_s)
        except Exception as exc:  # noqa: BLE001 — daemon must survive
            return P.error_response(P.ERR_INTERNAL,
                                    f"{type(exc).__name__}: {exc}")

    async def _handle_health(self, request: _Request):
        return 200, self._health_body(), None

    def _health_body(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "ready": not self._draining,
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests_served": self.requests_served,
            "jobs": {
                "live": sum(1 for r in self.job_store.jobs.values()
                            if not r.terminal),
                "total": len(self.job_store.jobs),
            },
        }

    async def _handle_metrics(self, request: _Request):
        return 200, self.instruments.to_prometheus(), None

    # -- admission gates -----------------------------------------------

    def _refuse_if_draining(self) -> None:
        if self._draining:
            raise P.ProtocolError("draining; resubmit elsewhere",
                                  error_code=P.ERR_UNAVAILABLE)

    def _gate(self, verdict) -> None:
        """Raise the error envelope for a refused tenancy verdict."""
        if verdict.allowed:
            return
        self._count_refusal(verdict)
        raise P.ProtocolError(
            verdict.reason,
            error_code=P.STATUS_ERROR_CODES[verdict.status],
            retry_after_s=verdict.retry_after_s)

    def _count_refusal(self, verdict) -> None:
        """Hook: account a tenancy refusal in the daemon's metrics."""

    def _checked_kernel(self, request: _Request):
        """Validate a ``POST /v2/kernels`` body and gate its tenant.

        Rejections fail closed before any work: 422 carries the
        structured RPR5xx diagnostics, 429 a kernel quota with
        ``Retry-After``.  Returns ``(source, spec, report)``.
        """
        from repro.lang import check_source

        self._refuse_if_draining()
        source = P.parse_kernel_submission(request.json())
        spec, report = check_source(source)
        if spec is None:
            raise P.ProtocolError(
                "kernel rejected by DSL validation",
                error_code=P.ERR_LINT_REJECTED,
                diagnostics=report.to_dict()["diagnostics"])
        self._gate(self.tenancy.admit_kernel(request.tenant,
                                             spec.kernel_hash))
        return source, spec, report

    # -- durable jobs --------------------------------------------------

    async def _handle_job_submit(self, request: _Request):
        self._refuse_if_draining()
        kind, payloads, priority, timeout_s, label = \
            P.parse_job_submission(request.json())
        if len(payloads) > self.max_sweep_specs:
            raise P.ProtocolError(
                f"job expands to {len(payloads)} specs, over the "
                f"{self.max_sweep_specs}-spec limit")
        tenant = request.tenant
        self._gate(self.tenancy.admit(tenant))
        # The submission slot is released once the job is journaled;
        # job *execution* is bounded by the scheduler queue.
        self.tenancy.release(tenant, served=True)
        record = self.job_manager.submit(
            kind, payloads, priority=priority, timeout_s=timeout_s,
            tenant=tenant, label=label)
        return 202, P.envelope(True, job=record.status_payload()), None

    async def _handle_job_list(self, request: _Request):
        query = request.query()
        state = query.get("state")
        if state is not None and state not in P.JOB_STATES:
            raise P.ProtocolError(
                f"unknown state {state!r}; expected one of "
                f"{', '.join(P.JOB_STATES)}")
        records = self.job_manager.list_jobs(
            state=state, tenant=query.get("tenant"))
        return 200, P.envelope(
            True, jobs=[r.status_payload() for r in records]), None

    async def _handle_job_get(self, request: _Request, job_id: str):
        record = self._job(self.job_manager.get(job_id), job_id)
        want_results = request.query().get("results", "") \
            in ("1", "true", "yes")
        return 200, P.envelope(
            True, job=record.status_payload(results=want_results)), None

    async def _handle_job_cancel(self, request: _Request, job_id: str):
        record = self._job(self.job_manager.cancel(job_id), job_id)
        return 200, P.envelope(True, job=record.status_payload()), None

    @staticmethod
    def _job(record, job_id: str):
        if record is None:
            raise P.ProtocolError(f"no such job {job_id!r}",
                                  error_code=P.ERR_NOT_FOUND)
        return record


class ReproService(HttpDaemon):
    """Simulation-as-a-service over the engine/analysis/obs stack."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = P.DEFAULT_PORT, *,
                 queue_limit: int = 64, jobs: int = 1,
                 batch_window_s: float = 0.005, batch_max: int = 16,
                 cache: ArtifactCache | None = None,
                 timeout: float | None = None, retries: int = 1,
                 worker=None, events=None,
                 max_sweep_specs: int = 1024,
                 journal=None,
                 tenancy: TenancyController | None = None,
                 kernel_dir=None) -> None:
        if journal is None and cache is not None:
            journal = cache.root / "jobs.jsonl"
        super().__init__(host, port, tenancy=tenancy, journal=journal,
                         max_sweep_specs=max_sweep_specs)
        self.cache = cache
        self.events = events
        #: DSL kernel store (POST /v2/kernels).  Default: next to the
        #: artifact cache so every process that shares the cache also
        #: shares the kernels; pinned via the environment so engine
        #: pool children resolve ``dsl:`` names from the same root.
        if kernel_dir is None and cache is not None:
            kernel_dir = cache.root / "kernels"
        self.kernel_store = KernelStore(kernel_dir)
        set_default_kernel_dir(self.kernel_store.root)
        self.instruments = ServiceInstruments()
        self.scheduler = Scheduler(
            queue_limit=queue_limit, jobs=jobs,
            batch_window_s=batch_window_s, batch_max=batch_max,
            cache=cache, timeout=timeout, retries=retries,
            worker=worker, instruments=self.instruments, events=events)
        self.admission = AdmissionController(
            self.scheduler, cache=cache,
            instruments=self.instruments, events=events)

    # -- lifecycle hooks -----------------------------------------------

    async def _start_tasks(self) -> None:
        self.scheduler.start()
        await super()._start_tasks()

    async def _drain(self) -> None:
        self.job_manager.stopping = True
        await self.scheduler.stop()
        await super()._drain()

    def _abort_tasks(self) -> None:
        super()._abort_tasks()
        self.scheduler.abort()

    def _banner(self) -> str:
        return (f"repro service listening on "
                f"http://{self.host}:{self.port} "
                f"(queue limit {self.scheduler.queue_limit}, "
                f"{self.scheduler.jobs} engine worker"
                f"{'s' if self.scheduler.jobs != 1 else ''}"
                f"{self._recovered_note()})")

    def _summary(self) -> str:
        return (f"repro service drained: {self.requests_served} "
                f"requests served, "
                f"{int(self.instruments.cache_hits.value)} cache hits, "
                f"{int(self.instruments.executed.value)} executed")

    # -- endpoints -----------------------------------------------------

    def _routes(self) -> dict:
        return {
            **super()._routes(),
            "/v2/run": {"POST": self._handle_run},
            "/v2/lint": {"POST": self._handle_lint},
            "/v2/kernels": {"POST": self._handle_kernel_submit,
                            "GET": self._handle_kernel_list},
        }

    def _health_body(self) -> dict:
        return {
            **super()._health_body(),
            "queue_depth": self.scheduler.queue_depth,
            "inflight": self.scheduler.outstanding,
            "queue_limit": self.scheduler.queue_limit,
        }

    async def _run(self, spec, priority: int, timeout_s: float | None):
        """Admit and execute one spec: ``(status, run envelope,
        headers)``.  The sync handler and the job runner share it."""
        started = time.perf_counter()
        outcome = await self.admission.admit_run(
            spec, priority=priority, timeout_s=timeout_s,
            draining=self._draining)
        latency_ms = (time.perf_counter() - started) * 1e3
        retry_after = (self.scheduler.retry_after_s()
                       if outcome.status == P.STATUS_THROTTLED else None)
        return P.run_response(
            outcome.status, outcome.payload, job_hash=spec.job_hash,
            latency_ms=latency_ms, message=outcome.error,
            diagnostics=outcome.diagnostics, retry_after_s=retry_after)

    async def _handle_run(self, request: _Request):
        spec, priority, timeout_s = P.parse_request_body(request.json())
        tenant = request.tenant
        self._gate(self.tenancy.admit(tenant))
        started = time.perf_counter()
        served = False
        try:
            status, body, headers = await self._run(spec, priority,
                                                    timeout_s)
            served = body["ok"]
        finally:
            self.tenancy.release(tenant, served=served)
        self.instruments.latency_ms.observe(body["latency_ms"])
        if self.events is not None:
            self.events.complete(
                "request", "service.request", started * 1e6,
                body["latency_ms"] * 1e3, domain="wall",
                status=body["status"], spec=spec.describe())
        return status, body, headers

    async def _job_runner(self, payload: dict, *, priority: int,
                          timeout_s: float | None,
                          tenant: str) -> tuple[str, dict]:
        """Per-spec execution hook the :class:`JobManager` drives."""
        _, envelope, _ = await self._run(P.spec_from_payload(payload),
                                         priority, timeout_s)
        return envelope["status"], envelope

    async def _handle_lint(self, request: _Request):
        spec, _, _ = P.parse_request_body(request.json())
        report = lint_spec(spec)
        return 200, P.envelope(
            report.ok, status="linted", job_hash=spec.job_hash,
            report=report.to_dict()), None

    async def _handle_kernel_submit(self, request: _Request):
        """``POST /v2/kernels``: validate, persist, register a DSL
        kernel.  201 on first registration, 200 on an idempotent
        re-submit of the same content."""
        from repro.lang import lower_spec
        from repro.workloads.suite import register_workload

        source, spec, report = self._checked_kernel(request)
        created = \
            self.kernel_store.load_source(spec.workload_name) is None
        self.kernel_store.put(source, spec)
        register_workload(lower_spec(spec), replace=True)
        kernel = {
            "kernel_hash": spec.kernel_hash,
            "workload": spec.workload_name,
            "name": spec.name,
            "created": created,
            "warnings": [d.to_dict() for d in report.warnings],
        }
        return (201 if created else 200), \
            P.envelope(True, kernel=kernel), None

    async def _handle_kernel_list(self, request: _Request):
        return 200, P.envelope(
            True, kernels=self.kernel_store.names()), None


class ServiceThread:
    """Run a :class:`ReproService` on a background thread.

    The in-process harness tests and benchmarks use: ``port=0`` binds
    an ephemeral port which is published on ``self.port`` once the
    listener is up.  Entering the context blocks until the service is
    ready; exiting requests a graceful drain and joins the thread.
    ``kill()`` aborts instead — connections reset mid-flight, nothing
    drains — to stand in for a crashed worker.
    """

    #: Daemon class to instantiate (the gateway harness overrides).
    daemon_cls = ReproService

    def __init__(self, **kwargs) -> None:
        kwargs.setdefault("port", 0)
        self._kwargs = kwargs
        self.service = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._killed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True)

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - surfaced below
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self.service = self.daemon_cls(**self._kwargs)
        self.loop = asyncio.get_running_loop()
        await self.service.start()
        self._ready.set()
        await self.service.wait_done()

    def start(self) -> "ServiceThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service thread failed to start in 30s")
        if self._error is not None:
            raise RuntimeError(
                f"service thread died during startup: {self._error}")
        return self

    def shutdown(self, timeout: float = 60) -> None:
        if self._killed:
            self._thread.join(timeout=5)
            return
        if self.loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self.loop.call_soon_threadsafe(
                    self.service.begin_shutdown)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - deadlock guard
            raise RuntimeError("service thread failed to drain")

    def kill(self, timeout: float = 10) -> None:
        """Crash the daemon: no drain, connections reset.

        The thread is a daemon, so a handler stuck on a blocking
        injected worker cannot hang the caller — we join with a
        timeout and move on.
        """
        self._killed = True
        if self.loop is not None and self._thread.is_alive():
            with contextlib.suppress(RuntimeError):
                self.loop.call_soon_threadsafe(self.service.abort)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
