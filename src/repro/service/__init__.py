"""Simulation-as-a-service: daemons, sharding gateway, durable jobs.

After the engine (PR 1), observability (PR 2), static analysis (PR 3)
and the fast backend (PR 4), every entry point was still a one-shot
CLI process — nothing kept the artifact cache, compile/decode caches
or metrics warm across requests.  :mod:`repro.service` is that missing
layer: a stdlib-only asyncio daemon (``repro serve``) accepting JSON
over HTTP, and a sharding front end (``repro serve --workers N``),
both with a durable async job API.

The pipeline, by module:

- :mod:`repro.service.protocol` — wire format, spec validation,
  the run envelope and the one normalized error envelope, status
  codes, job states;
- :mod:`repro.service.admission` — validate → pre-flight lint (422
  with structured diagnostics) → artifact-cache probe (warm hits are
  answered without touching the pool) → in-flight request coalescing;
- :mod:`repro.service.scheduler` — bounded priority queue with
  backpressure (429 + ``Retry-After``), micro-batching into engine
  :func:`~repro.engine.pool.run_jobs` submissions, queue-wait
  deadlines;
- :mod:`repro.service.server` — asyncio HTTP front end, ``/healthz``,
  ``/metrics`` (Prometheus text exposition of the service registry),
  graceful drain-then-shutdown on SIGTERM, the job routes;
- :mod:`repro.service.gateway` — consistent-hash sharding over N
  worker daemons: health checks, ring eviction/rebalance, failover
  re-dispatch, shared-cache fallback;
- :mod:`repro.service.jobstore` — the append-only JSONL job journal
  and the :class:`JobManager` that drives jobs to completion (and
  replays them across restarts);
- :mod:`repro.service.tenancy` — per-tenant token buckets, inflight
  quotas and allowlists at admission;
- :mod:`repro.service.instruments` — the service-scoped
  :class:`~repro.obs.metrics.MetricsRegistry`;
- :mod:`repro.service.client` — the retrying synchronous
  :class:`Client`.

Quick use::

    from repro.service import ServiceThread, Client

    with ServiceThread() as srv:                # ephemeral port
        client = Client(port=srv.port)
        reply = client.execute({"workload": "mm", "scale": "tiny"})
        print(reply["status"], reply["result"]["stats"]["cycles"])

        handle = client.submit(
            sweep={"workloads": ["mm"], "modes": ["dyser", "scalar"]})
        final = handle.wait()                   # durable async job
        print(final.state, final.done, "/", final.total)
"""

from repro.service.client import (
    Client,
    JobHandle,
    JobStatus,
    ServiceError,
)
from repro.service.gateway import (
    GatewayService,
    GatewayThread,
    HashRing,
)
from repro.service.instruments import ServiceInstruments
from repro.service.jobstore import JobManager, JobRecord, JobStore
from repro.service.protocol import (
    DEFAULT_PORT,
    PROTOCOL,
    ProtocolError,
    spec_from_payload,
    spec_to_payload,
)
from repro.service.scheduler import JobOutcome, QueueFull, Scheduler
from repro.service.server import ReproService, ServiceThread
from repro.service.tenancy import (
    TenancyController,
    TenantQuota,
    controller_from_config,
)

__all__ = [
    "DEFAULT_PORT",
    "Client",
    "GatewayService",
    "GatewayThread",
    "HashRing",
    "JobHandle",
    "JobManager",
    "JobOutcome",
    "JobRecord",
    "JobStatus",
    "JobStore",
    "PROTOCOL",
    "ProtocolError",
    "QueueFull",
    "ReproService",
    "Scheduler",
    "ServiceError",
    "ServiceInstruments",
    "ServiceThread",
    "TenancyController",
    "TenantQuota",
    "controller_from_config",
    "spec_from_payload",
    "spec_to_payload",
]
