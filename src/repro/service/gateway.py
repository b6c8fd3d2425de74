"""Sharding front end: consistent hashing over N worker daemons.

``repro serve --workers N`` (or ``repro gateway --worker-addr ...``)
runs a :class:`GatewayService` in front of a fleet of single-node
:class:`~repro.service.server.ReproService` workers.  The gateway owns
no engine — it routes:

- **Sharding.**  Every run is forwarded to the ``POST /v2/run`` of
  the worker chosen by a consistent-hash ring over ``JobSpec.job_hash``
  (sweep jobs are expanded at the gateway and each point is sharded
  independently).  The same spec always lands on the same worker, so
  each shard's compile and artifact caches stay hot for *its* slice of
  the design space — the whole fleet behaves like one big cache
  without any coordination.
- **Shared-cache fallback.**  When the gateway is given an
  :class:`~repro.engine.cache.ArtifactCache`, a warm entry answers at
  the gateway without burning a forward; executed results are stored
  back, so a re-sharded spec (after an eviction) still hits.
- **Health + failover.**  A background task probes every worker's
  ``/healthz``; consecutive failures evict the worker from the ring
  (its keys rebalance to the survivors) and recovery re-adds it.  A
  forward that dies mid-request is retried on the next live shard —
  safe because specs are content-addressed and deterministic, so a
  replayed run returns a byte-identical result.
- **Tenancy.**  Per-tenant token buckets / quotas / allowlists
  (:mod:`repro.service.tenancy`) gate admission before any forward,
  answering 429 with a cost-aware ``Retry-After`` or 403.
- **Durable jobs.**  The same job API as the worker
  (``POST /v2/jobs``), journaled at the gateway, with each spec
  forwarded to its shard; a gateway restart replays the journal and
  resumes unfinished jobs.

The ring uses sha1 with 64 virtual nodes per worker, so a 2-worker
fleet splits hot hashes roughly evenly and an eviction moves only the
dead worker's arcs.
"""

from __future__ import annotations

import asyncio
import bisect
import contextlib
import hashlib
import json
import time

from repro.engine.cache import ArtifactCache
from repro.obs.metrics import MetricsRegistry

from repro.service import protocol as P
from repro.service.admission import probe_run
from repro.service.instruments import LATENCY_BUCKETS_MS
from repro.service.server import HttpDaemon, ServiceThread, _Request
from repro.service.tenancy import TenancyController


class HashRing:
    """Consistent-hash ring (sha1, virtual nodes).

    ``node_for(key)`` walks clockwise from the key's point;
    ``preference(key)`` yields every node in walk order — the failover
    sequence a request tries when shards die mid-flight.
    """

    def __init__(self, nodes=(), *, replicas: int = 64) -> None:
        self.replicas = max(1, int(replicas))
        self._points: list[tuple[int, str]] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha1(value.encode("utf-8")).digest()[:8], "big")

    @property
    def nodes(self) -> set[str]:
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            self._points.append((self._hash(f"{node}#{i}"), node))
        self._points.sort()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        self._points = [p for p in self._points if p[1] != node]

    def node_for(self, key: str) -> str | None:
        preference = self.preference(key)
        return preference[0] if preference else None

    def preference(self, key: str) -> list[str]:
        """All nodes in clockwise walk order from ``key`` (deduped)."""
        if not self._points:
            return []
        point = self._hash(key)
        index = bisect.bisect_right(self._points, (point, "￿"))
        seen: list[str] = []
        for offset in range(len(self._points)):
            node = self._points[(index + offset)
                                % len(self._points)][1]
            if node not in seen:
                seen.append(node)
                if len(seen) == len(self._nodes):
                    break
        return seen


class GatewayInstruments:
    """Gateway-scoped metrics, named under ``service.gateway.*``."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        r = self.registry
        self.forwarded = r.counter(
            "service.gateway.forwarded",
            "requests forwarded to a worker shard")
        self.cache_hits = r.counter(
            "service.gateway.cache.hits",
            "requests answered from the gateway's shared cache")
        self.retries = r.counter(
            "service.gateway.retries",
            "forwards retried on another shard after a failure")
        self.evictions = r.counter(
            "service.gateway.evictions",
            "workers evicted from the ring after health failures")
        self.recoveries = r.counter(
            "service.gateway.recoveries",
            "evicted workers re-added after passing health checks")
        self.throttled = r.counter(
            "service.gateway.throttled",
            "requests refused by tenancy rate limits (HTTP 429)")
        self.denied = r.counter(
            "service.gateway.denied",
            "requests refused by the tenant allowlist (HTTP 403)")
        self.unavailable = r.counter(
            "service.gateway.unavailable",
            "requests failed because no live worker remained")
        self.workers_live = r.gauge(
            "service.gateway.workers.live",
            "workers currently in the ring")
        self.latency_ms = r.histogram(
            "service.gateway.latency.e2e_ms",
            "gateway request latency in milliseconds",
            buckets=LATENCY_BUCKETS_MS)

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()


class _WorkerState:
    """Gateway-side view of one worker daemon."""

    __slots__ = ("addr", "healthy", "fails", "forwarded", "errors")

    def __init__(self, addr: str) -> None:
        self.addr = addr
        self.healthy = True
        self.fails = 0
        self.forwarded = 0
        self.errors = 0

    def to_dict(self) -> dict:
        return {"addr": self.addr, "healthy": self.healthy,
                "forwarded": self.forwarded, "errors": self.errors}


class NoLiveWorker(P.ProtocolError):
    """Every shard is evicted (or the fleet never came up): 503."""

    def __init__(self, message: str) -> None:
        super().__init__(message, error_code=P.ERR_UNAVAILABLE)


#: Transport failures that trigger shard failover.
_FORWARD_EXC = (ConnectionError, OSError, asyncio.IncompleteReadError,
                asyncio.TimeoutError, TimeoutError, EOFError)


class GatewayService(HttpDaemon):
    """The sharding front end (no engine of its own)."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = P.DEFAULT_PORT, *,
                 workers: list[str] | tuple[str, ...] = (),
                 cache: ArtifactCache | None = None,
                 tenancy: TenancyController | None = None,
                 journal=None,
                 health_interval_s: float = 0.5,
                 health_fail_threshold: int = 3,
                 forward_timeout_s: float = 120.0,
                 max_sweep_specs: int = 1024,
                 ring_replicas: int = 64) -> None:
        if not workers:
            raise ValueError("a gateway needs at least one worker")
        super().__init__(host, port, tenancy=tenancy, journal=journal,
                         max_sweep_specs=max_sweep_specs)
        self.cache = cache
        self.health_interval_s = max(0.05, float(health_interval_s))
        self.health_fail_threshold = max(1, int(health_fail_threshold))
        self.forward_timeout_s = float(forward_timeout_s)
        self.instruments = GatewayInstruments()
        self.workers: dict[str, _WorkerState] = {
            addr: _WorkerState(addr) for addr in workers}
        self.ring = HashRing(workers, replicas=ring_replicas)
        self.instruments.workers_live.set(len(self.ring))
        self._health_task: asyncio.Task | None = None

    # -- lifecycle hooks -----------------------------------------------

    async def _start_tasks(self) -> None:
        await super()._start_tasks()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop(), name="repro-gateway-health")

    async def _drain(self) -> None:
        self.job_manager.stopping = True
        if self._health_task is not None:
            self._health_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._health_task
            self._health_task = None
        await super()._drain()

    def _abort_tasks(self) -> None:
        super()._abort_tasks()
        if self._health_task is not None:
            self._health_task.cancel()
            self._health_task = None

    def _banner(self) -> str:
        return (f"repro gateway listening on "
                f"http://{self.host}:{self.port} "
                f"({len(self.workers)} worker"
                f"{'s' if len(self.workers) != 1 else ''}: "
                f"{', '.join(sorted(self.workers))}"
                f"{self._recovered_note()})")

    def _summary(self) -> str:
        return (f"repro gateway drained: {self.requests_served} "
                f"requests served, "
                f"{int(self.instruments.forwarded.value)} forwarded, "
                f"{int(self.instruments.evictions.value)} evictions")

    # -- worker health -------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.health_interval_s)
            await asyncio.gather(*[
                self._probe_worker(worker)
                for worker in self.workers.values()],
                return_exceptions=True)

    async def _probe_worker(self, worker: _WorkerState) -> None:
        try:
            status, _, body = await self._forward_raw(
                worker.addr, "GET", "/healthz", None, timeout=5.0)
            ok = status == 200 and json.loads(body).get("ready", False)
        except (_FORWARD_EXC, ValueError):
            ok = False
        if ok:
            worker.fails = 0
            if not worker.healthy:
                worker.healthy = True
                self.ring.add(worker.addr)
                self.instruments.recoveries.inc()
                self.instruments.workers_live.set(len(self.ring))
        else:
            worker.fails += 1
            if worker.healthy \
                    and worker.fails >= self.health_fail_threshold:
                self._evict(worker)

    def _evict(self, worker: _WorkerState) -> None:
        """Drop a worker from the ring; its keys rebalance."""
        if not worker.healthy:
            return
        worker.healthy = False
        self.ring.remove(worker.addr)
        self.instruments.evictions.inc()
        self.instruments.workers_live.set(len(self.ring))

    # -- forwarding ----------------------------------------------------

    async def _forward_raw(self, addr: str, method: str, path: str,
                           body: bytes | None, *,
                           headers: dict | None = None,
                           timeout: float | None = None):
        """One HTTP exchange with a worker (Connection: close)."""
        host, _, port = addr.rpartition(":")
        timeout = timeout if timeout is not None \
            else self.forward_timeout_s
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, int(port)), timeout)
        try:
            head = [f"{method} {path} HTTP/1.1",
                    f"Host: {addr}",
                    "Connection: close"]
            for name, value in (headers or {}).items():
                head.append(f"{name}: {value}")
            if body:
                head.append("Content-Type: application/json")
                head.append(f"Content-Length: {len(body)}")
            writer.write(("\r\n".join(head) + "\r\n\r\n")
                         .encode("latin-1") + (body or b""))
            await writer.drain()
            status_line = await asyncio.wait_for(reader.readline(),
                                                 timeout)
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise EOFError(f"bad status line {status_line!r}")
            status = int(parts[1])
            response_headers: dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(),
                                              timeout)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                response_headers[name.strip().lower()] = value.strip()
            length = int(response_headers.get("content-length", "0")
                         or "0")
            data = await asyncio.wait_for(
                reader.readexactly(length), timeout) if length \
                else await asyncio.wait_for(reader.read(), timeout)
            return status, response_headers, data
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _forward_sharded(self, key: str, method: str, path: str,
                               payload: dict | None, *,
                               tenant: str | None = None):
        """Forward to the key's shard, failing over on dead workers.

        Returns ``(http_status, headers, body_dict)``.
        Raises :class:`NoLiveWorker` when every shard is down.
        """
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        headers = ({P.TENANT_HEADER: tenant}
                   if tenant and tenant != P.DEFAULT_TENANT else None)
        attempted: set[str] = set()
        first = True
        while True:
            candidates = [addr for addr in self.ring.preference(key)
                          if addr not in attempted]
            if not candidates:
                self.instruments.unavailable.inc()
                raise NoLiveWorker(
                    f"no live worker for {key[:12]} "
                    f"({len(attempted)} tried)")
            addr = candidates[0]
            worker = self.workers[addr]
            attempted.add(addr)
            if not first:
                self.instruments.retries.inc()
            first = False
            try:
                status, response_headers, data = \
                    await self._forward_raw(addr, method, path, body,
                                            headers=headers)
            except _FORWARD_EXC:
                # Inline failure: evict now (the health loop would
                # take threshold×interval to notice) and re-dispatch.
                worker.errors += 1
                worker.fails = self.health_fail_threshold
                self._evict(worker)
                continue
            worker.forwarded += 1
            self.instruments.forwarded.inc()
            return status, response_headers, P.decode_body(data)

    # -- routing -------------------------------------------------------

    def _routes(self) -> dict:
        return {
            **super()._routes(),
            "/v2/run": {"POST": self._handle_run},
            "/v2/lint": {"POST": self._handle_lint},
            "/v2/kernels": {"POST": self._handle_kernel_submit,
                            "GET": self._handle_kernel_list},
        }

    async def _dispatch(self, request: _Request):
        started = time.perf_counter()
        response = await super()._dispatch(request)
        self.instruments.latency_ms.observe(
            (time.perf_counter() - started) * 1e3)
        return response

    def _health_body(self) -> dict:
        body = super()._health_body()
        body.update(
            ready=body["ready"] and len(self.ring) > 0, role="gateway",
            workers=[w.to_dict() for w in self.workers.values()],
            ring_size=len(self.ring))
        return body

    def _count_refusal(self, verdict) -> None:
        if verdict.status == P.STATUS_DENIED:
            self.instruments.denied.inc()
        else:
            self.instruments.throttled.inc()

    # -- runs ------------------------------------------------------------

    async def _run_on_shard(self, spec, priority: int,
                            timeout_s: float | None, tenant: str):
        """Answer one run from the shared cache or its shard.

        Returns ``(status, run envelope, headers)`` with the worker's
        envelope passed through unchanged; raises :class:`NoLiveWorker`
        when every shard is down.  The sync handler and the job runner
        share it.
        """
        cached = probe_run(self.cache, spec)
        if cached is not None:
            self.instruments.cache_hits.inc()
            return P.run_response(P.STATUS_HIT, cached,
                                  job_hash=spec.job_hash, latency_ms=0.0)
        body: dict = {"spec": P.spec_to_payload(spec),
                      "priority": priority}
        if timeout_s is not None:
            body["timeout_s"] = timeout_s
        status, headers, envelope = await self._forward_sharded(
            spec.job_hash, "POST", "/v2/run", body, tenant=tenant)
        if status == 200 and self.cache is not None \
                and isinstance(envelope.get("result"), dict):
            self.cache.store_run(spec, envelope["result"])
        passthrough = None
        if "retry-after" in headers:
            passthrough = {"Retry-After": headers["retry-after"]}
        return status, envelope, passthrough

    async def _handle_run(self, request: _Request):
        spec, priority, timeout_s = P.parse_request_body(request.json())
        tenant = request.tenant
        self._gate(self.tenancy.admit(tenant))
        served = False
        try:
            response = await self._run_on_shard(spec, priority,
                                                timeout_s, tenant)
            served = response[0] == 200
            return response
        finally:
            self.tenancy.release(tenant, served=served)

    async def _job_runner(self, payload: dict, *, priority: int,
                          timeout_s: float | None,
                          tenant: str) -> tuple[str, dict]:
        """Per-spec execution hook: forward the run to its shard."""
        spec = P.spec_from_payload(payload)
        try:
            status, envelope, _ = await self._run_on_shard(
                spec, priority, timeout_s, tenant)
        except NoLiveWorker as exc:
            # Not served: the JobManager backs off and retries; the
            # health loop may re-add a recovered worker meanwhile.
            _, envelope, _ = P.run_response(
                P.STATUS_DRAINING, None, job_hash=spec.job_hash,
                latency_ms=0.0, message=str(exc), retry_after_s=0.25)
            return P.STATUS_DRAINING, envelope
        verdict = envelope.get("status") or (
            P.STATUS_EXECUTED if status == 200 else P.STATUS_FAILED)
        return verdict, envelope

    async def _handle_lint(self, request: _Request):
        """Shard ``POST /v2/lint`` by the spec's hash."""
        spec, _, _ = P.parse_request_body(request.json())
        status, _, body = await self._forward_sharded(
            spec.job_hash, "POST", "/v2/lint",
            {"spec": P.spec_to_payload(spec)}, tenant=request.tenant)
        return status, body, None

    # -- DSL kernel registration (broadcast) -----------------------------

    async def _handle_kernel_submit(self, request: _Request):
        """``POST /v2/kernels``: validate at the gateway, then
        broadcast to *every* live worker.

        Sharding would be wrong here: a sweep over a ``dsl:`` workload
        lands its points on arbitrary shards (and re-dispatches to the
        survivors after a crash), so every worker must know the kernel.
        Validation is deterministic, so the gateway's own verdict and
        each worker's agree; the gateway gate rejects bad sources
        without burning a single forward.
        """
        source, _spec, _report = self._checked_kernel(request)
        tenant = request.tenant
        payload = json.dumps({"source": source}).encode("utf-8")
        headers = ({P.TENANT_HEADER: tenant}
                   if tenant != P.DEFAULT_TENANT else None)
        live = [addr for addr in sorted(self.workers)
                if self.workers[addr].healthy]
        results = await asyncio.gather(*[
            self._forward_raw(addr, "POST", "/v2/kernels", payload,
                              headers=headers)
            for addr in live], return_exceptions=True)
        accepted, answer = [], None
        for addr, outcome in zip(live, results, strict=True):
            if isinstance(outcome, BaseException):
                continue
            status, _headers, data = outcome
            self.workers[addr].forwarded += 1
            self.instruments.forwarded.inc()
            if status in (200, 201):
                accepted.append(addr)
                if answer is None or status == 201:
                    answer = (status, data)
            elif answer is None:
                answer = (status, data)
        if not accepted:
            self.instruments.unavailable.inc()
            if answer is None:
                raise P.ProtocolError(
                    f"no live worker accepted the kernel "
                    f"({len(live)} tried)", error_code=P.ERR_UNAVAILABLE)
            status, data = answer
            return status, P.decode_body(data), None
        status, data = answer
        body = P.decode_body(data)
        if isinstance(body.get("kernel"), dict):
            body["kernel"]["workers"] = len(accepted)
        return status, body, None

    async def _handle_kernel_list(self, request: _Request):
        """``GET /v2/kernels``: ask any live worker (they converge)."""
        for addr in sorted(self.workers):
            if not self.workers[addr].healthy:
                continue
            try:
                status, _headers, data = await self._forward_raw(
                    addr, "GET", "/v2/kernels", None)
            except _FORWARD_EXC:
                continue
            return status, P.decode_body(data), None
        raise P.ProtocolError("no live worker to list kernels",
                              error_code=P.ERR_UNAVAILABLE)


class _GatewayServiceThread(ServiceThread):
    daemon_cls = GatewayService


class GatewayThread:
    """In-process harness: N worker threads + one gateway thread.

    Mirrors :class:`~repro.service.server.ServiceThread` for tests and
    benchmarks: everything binds ephemeral ports, entering the context
    blocks until the whole fleet is ready, and exiting drains the
    gateway before the workers.  ``kill_worker(i)`` crashes one worker
    (connection resets, no drain) to exercise eviction + failover.
    """

    def __init__(self, n_workers: int = 2, *,
                 worker_kwargs: dict | None = None,
                 **gateway_kwargs) -> None:
        self.n_workers = max(1, int(n_workers))
        self._worker_kwargs = dict(worker_kwargs or {})
        self._gateway_kwargs = dict(gateway_kwargs)
        self.workers: list[ServiceThread] = []
        self.gateway: _GatewayServiceThread | None = None

    @property
    def host(self) -> str:
        return self.gateway.host

    @property
    def port(self) -> int:
        return self.gateway.port

    def worker_addrs(self) -> list[str]:
        return [f"{w.host}:{w.port}" for w in self.workers]

    def start(self) -> "GatewayThread":
        try:
            for _ in range(self.n_workers):
                worker = ServiceThread(**self._worker_kwargs)
                worker.start()
                self.workers.append(worker)
            self.gateway = _GatewayServiceThread(
                workers=self.worker_addrs(), **self._gateway_kwargs)
            self.gateway.start()
        except BaseException:
            self.shutdown()
            raise
        return self

    def kill_worker(self, index: int) -> str:
        """Crash worker ``index``; returns its address."""
        worker = self.workers[index]
        addr = f"{worker.host}:{worker.port}"
        worker.kill()
        return addr

    def shutdown(self, timeout: float = 60) -> None:
        if self.gateway is not None:
            self.gateway.shutdown(timeout=timeout)
            self.gateway = None
        for worker in self.workers:
            with contextlib.suppress(RuntimeError):
                worker.shutdown(timeout=timeout)
        self.workers = []

    def __enter__(self) -> "GatewayThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
