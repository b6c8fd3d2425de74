"""Service-scoped metrics: one registry, named once, scraped live.

The daemon owns a single :class:`repro.obs.metrics.MetricsRegistry`
whose instruments cover the admission → schedule → execute pipeline:

- ``service.requests.*`` counters — every admission verdict
  (admitted / rejected / throttled / coalesced) plus cache hits;
- ``service.jobs.*`` counters — engine-side outcomes (executed,
  failed, expired);
- ``service.queue.depth`` / ``service.inflight`` gauges — scheduler
  occupancy, updated on every enqueue/dequeue;
- ``service.latency.e2e_ms`` histogram — admission-to-response wall
  latency, with sub-millisecond buckets so the warm-cache dispatch
  path (the BENCH_service acceptance criterion) is visible;
- ``service.batch.size`` histogram and ``service.batches`` counter —
  micro-batching effectiveness.

``/metrics`` serves the registry through
:meth:`~repro.obs.metrics.MetricsRegistry.to_prometheus`; the
registry's snapshot discipline makes scraping safe while the event
loop and executor threads are updating instruments.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry

#: End-to-end latency buckets (milliseconds).  Extends the registry
#: default downwards so sub-10ms warm-cache dispatch resolves cleanly.
LATENCY_BUCKETS_MS = (0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256,
                      512, 1024, 2048, 4096, 8192)

#: Micro-batch occupancy buckets.
BATCH_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class ServiceInstruments:
    """All service instruments, registered once on one registry."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        r = self.registry
        self.admitted = r.counter(
            "service.requests.admitted",
            "requests accepted into the scheduler queue")
        self.rejected = r.counter(
            "service.requests.rejected",
            "requests rejected by pre-flight lint (HTTP 422)")
        self.throttled = r.counter(
            "service.requests.throttled",
            "requests refused because the queue was full (HTTP 429)")
        self.coalesced = r.counter(
            "service.requests.coalesced",
            "requests that shared an identical in-flight job")
        self.cache_hits = r.counter(
            "service.cache.hits",
            "requests answered from the artifact cache at admission")
        self.executed = r.counter(
            "service.jobs.executed",
            "jobs executed on the engine for this service")
        self.failed = r.counter(
            "service.jobs.failed",
            "jobs that exhausted engine retries")
        self.expired = r.counter(
            "service.jobs.expired",
            "jobs whose deadline passed while queued")
        self.batches = r.counter(
            "service.batches",
            "micro-batches submitted to the engine")
        self.queue_depth = r.gauge(
            "service.queue.depth",
            "jobs waiting in the scheduler queue")
        self.inflight = r.gauge(
            "service.inflight",
            "admitted jobs not yet answered (queued + executing)")
        self.latency_ms = r.histogram(
            "service.latency.e2e_ms",
            "admission-to-response latency in milliseconds",
            buckets=LATENCY_BUCKETS_MS)
        self.batch_size = r.histogram(
            "service.batch.size",
            "specs per engine micro-batch",
            buckets=BATCH_BUCKETS)

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()
