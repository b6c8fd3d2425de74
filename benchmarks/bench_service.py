"""Service latency/throughput: closed-loop load against ``repro serve``.

Two entry points:

- ``python benchmarks/bench_service.py`` runs an in-process service
  (:class:`repro.service.ServiceThread`, ephemeral port) under a
  closed-loop load generator — ``--clients`` threads each with its own
  keep-alive :class:`~repro.service.Client`, issuing the next
  request as soon as the previous one answers — and appends a
  machine-readable entry to ``BENCH_service.json`` (the committed
  history of the latency acceptance criterion);
- ``--check`` validates a fresh measurement against the acceptance
  gates instead of appending (CI's service bench-smoke).

Methodology: the request mix cycles over a few (workload, mode) specs
at the tiny scale.  A warm-up pass first pushes every spec through the
cold path (compile + fast-backend simulation, artifact cache write);
the measured closed-loop run is then served from the artifact cache at
admission, so its latencies isolate *service dispatch* — HTTP parse,
admission gates, cache probe, response serialization.  Acceptance:
zero dropped completed jobs across the run and warm-cache p50 < 10 ms.
Cold-path latency is recorded alongside for context (it rides the
fast backend, PR 4).

``--workers N`` (N > 0) benchmarks the sharded gateway instead: an
in-process :class:`~repro.service.GatewayThread` fleet (gateway with
*no* shared cache, so every request crosses the forwarding hop; N
workers with shard-local caches) under the same closed loop, with the
clients spread across ``--tenants`` tenant identities.  Every response
is compared byte-for-byte against a direct engine run, and per-tenant
served counts feed a no-starvation gate (min/max served ratio).  The
gateway hop relaxes the warm-p50 gate (one forwarded HTTP round trip
per request) but adds gates of its own: zero wrong bytes and no
starved tenant.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import pathlib
import platform
import statistics
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_service.json"

#: Serialization format tag for the benchmark history file.
BENCH_FORMAT = "repro-bench-service-v1"

#: Request mix: small kernels, both modes, tiny scale.
MIX = (
    {"workload": "vecadd", "mode": "dyser", "scale": "tiny"},
    {"workload": "vecadd", "mode": "scalar", "scale": "tiny"},
    {"workload": "saxpy", "mode": "dyser", "scale": "tiny"},
    {"workload": "dotprod", "mode": "dyser", "scale": "tiny"},
)

#: Acceptance gates (see ISSUE 5 / CI bench-smoke).
WARM_P50_LIMIT_MS = 10.0

#: Gateway-mode gates (ISSUE 9): the forwarded hop buys one extra
#: HTTP round trip per request, so the latency gate is looser; in
#: exchange the run must be byte-perfect and starvation-free.
GATEWAY_WARM_P50_LIMIT_MS = 50.0
GATEWAY_MIN_REQUESTS = 2000
TENANT_FAIRNESS_FLOOR = 0.5


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _latency_summary(latencies_ms: list[float],
                     wall_s: float) -> dict:
    return {
        "requests": len(latencies_ms),
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(len(latencies_ms) / wall_s, 1)
        if wall_s else 0.0,
        "p50_ms": round(_percentile(latencies_ms, 0.50), 3),
        "p95_ms": round(_percentile(latencies_ms, 0.95), 3),
        "p99_ms": round(_percentile(latencies_ms, 0.99), 3),
        "mean_ms": round(statistics.fmean(latencies_ms), 3),
        "max_ms": round(max(latencies_ms), 3),
    }


def _spec_key(spec: dict) -> str:
    return f"{spec['workload']}/{spec['mode']}"


def _closed_loop(port: int, requests: int, clients: int, *,
                 tenants: int = 0,
                 expected: dict[str, str] | None = None) -> dict:
    """``clients`` threads issue ``requests`` total, one at a time each.

    With ``tenants`` > 0 client *i* identifies as ``tenant-{i % n}``
    and per-tenant served counts are recorded.  With ``expected``
    (spec key -> canonical result JSON) every OK response is checked
    byte-for-byte and mismatches counted as ``wrong_bytes``.
    """
    from repro.service import Client

    latencies: list[float] = []
    statuses: dict[str, int] = {}
    served_by_tenant: dict[str, int] = {}
    errors: list[str] = []
    wrong_bytes = 0
    lock = threading.Lock()
    counter = iter(range(requests))

    def worker(slot: int) -> None:
        nonlocal wrong_bytes
        tenant = f"tenant-{slot % tenants}" if tenants else None
        client = Client(port=port, timeout=120, retries=3,
                        tenant=tenant)
        with client:
            while True:
                with lock:
                    i = next(counter, None)
                if i is None:
                    return
                spec = MIX[i % len(MIX)]
                t0 = time.perf_counter()
                try:
                    reply = client.execute(spec, raise_on_error=False)
                except Exception as exc:  # noqa: BLE001 - recorded
                    with lock:
                        errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                dt_ms = (time.perf_counter() - t0) * 1e3
                parity_ok = True
                if expected is not None and reply.get("ok"):
                    canon = json.dumps(reply.get("result"),
                                       sort_keys=True)
                    parity_ok = canon == expected[_spec_key(spec)]
                with lock:
                    latencies.append(dt_ms)
                    status = reply.get("status", "no-status")
                    statuses[status] = statuses.get(status, 0) + 1
                    if tenant is not None and reply.get("ok"):
                        served_by_tenant[tenant] = \
                            served_by_tenant.get(tenant, 0) + 1
                    if not parity_ok:
                        wrong_bytes += 1
                    if not reply.get("ok"):
                        errors.append(f"{spec['workload']}: {status} "
                                      f"{reply.get('error')}")

    threads = [threading.Thread(target=worker, args=(slot,),
                                daemon=True)
               for slot in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    summary = _latency_summary(latencies, wall_s)
    summary["statuses"] = {k: statuses[k] for k in sorted(statuses)}
    summary["dropped"] = (requests - len(latencies)) + len(errors)
    summary["errors"] = errors[:10]
    if expected is not None:
        summary["wrong_bytes"] = wrong_bytes
    if tenants:
        summary["served_by_tenant"] = {
            k: served_by_tenant[k] for k in sorted(served_by_tenant)}
    return summary


def measure(requests: int = 200, clients: int = 4) -> dict:
    """One benchmark entry: cold warm-up pass + warm closed-loop run."""
    from repro.engine.cache import ArtifactCache
    from repro.service import Client, ServiceThread

    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
        cache = ArtifactCache(tmp)
        with ServiceThread(cache=cache, queue_limit=max(64, clients * 4),
                           batch_window_s=0.001) as srv:
            # Cold pass: every spec in the mix takes the full path once
            # (compile + fast-backend run + artifact store).
            cold_latencies = []
            with Client(port=srv.port, timeout=300) as client:
                for spec in MIX:
                    t0 = time.perf_counter()
                    reply = client.execute(spec)
                    cold_latencies.append(
                        (time.perf_counter() - t0) * 1e3)
                    assert reply["status"] == "executed", reply
            cold = _latency_summary(cold_latencies, sum(cold_latencies)
                                    / 1e3)
            # Warm closed loop: all answered from the artifact cache.
            warm = _closed_loop(srv.port, requests, clients)
            with Client(port=srv.port) as client:
                metrics_ok = client.metrics_text() \
                    .count("# TYPE repro_service") >= 5
                health = client.health()
    return {
        "date": _dt.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "requests": requests,
        "clients": clients,
        "mix": len(MIX),
        "cold": cold,
        "warm": warm,
        "metrics_exposition_ok": metrics_ok,
        "requests_served": health["requests_served"],
    }


def _expected_results() -> dict[str, str]:
    """Canonical direct-run bytes per spec key (the parity oracle)."""
    from repro import RunConfig, run_workload
    from repro.engine import result_to_dict

    return {
        _spec_key(spec): json.dumps(
            result_to_dict(run_workload(RunConfig(**spec))),
            sort_keys=True)
        for spec in MIX
    }


def measure_gateway(requests: int = 2000, clients: int = 8,
                    workers: int = 2, tenants: int = 4) -> dict:
    """One gateway-mode entry: sharded fleet, tenants, byte parity."""
    import contextlib

    from repro.engine.cache import ArtifactCache
    from repro.service import Client, ServiceThread
    from repro.service.gateway import _GatewayServiceThread

    expected = _expected_results()
    with tempfile.TemporaryDirectory(prefix="repro-bench-gw-") as tmp:
        root = pathlib.Path(tmp)
        # Workers keep shard-local caches; the gateway itself runs
        # cache-less so every measured request crosses the forward hop.
        fleet: list[ServiceThread] = []
        gateway = None
        try:
            for i in range(workers):
                shard = ServiceThread(
                    cache=ArtifactCache(root / f"shard-{i}"),
                    batch_window_s=0.001,
                    queue_limit=max(64, clients * 4))
                shard.start()
                fleet.append(shard)
            gateway = _GatewayServiceThread(
                workers=[f"{w.host}:{w.port}" for w in fleet],
                cache=None, journal=root / "gateway-jobs.jsonl")
            gateway.start()
            cold_latencies = []
            with Client(port=gateway.port, timeout=300) as client:
                for spec in MIX:
                    t0 = time.perf_counter()
                    reply = client.execute(spec)
                    cold_latencies.append(
                        (time.perf_counter() - t0) * 1e3)
                    assert reply["status"] == "executed", reply
            cold = _latency_summary(cold_latencies, sum(cold_latencies)
                                    / 1e3)
            warm = _closed_loop(gateway.port, requests, clients,
                                tenants=tenants, expected=expected)
            with Client(port=gateway.port) as client:
                metrics_ok = client.metrics_text() \
                    .count("# TYPE repro_service") >= 5
                health = client.health()
        finally:
            if gateway is not None:
                gateway.shutdown(timeout=60)
            for shard in fleet:
                with contextlib.suppress(RuntimeError):
                    shard.shutdown(timeout=60)
    served = warm.get("served_by_tenant", {})
    fairness = (min(served.values()) / max(served.values())
                if served and max(served.values()) else 0.0)
    return {
        "date": _dt.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kind": "gateway",
        "requests": requests,
        "clients": clients,
        "workers": workers,
        "tenants": tenants,
        "mix": len(MIX),
        "cold": cold,
        "warm": warm,
        "tenant_fairness": round(fairness, 3),
        "metrics_exposition_ok": metrics_ok,
        "ring_size": health.get("ring_size"),
        "requests_served": health["requests_served"],
    }


def validate(doc: dict) -> None:
    """Acceptance gates for a history document (raises on violation)."""
    assert doc.get("format") == BENCH_FORMAT, \
        f"bad format tag {doc.get('format')!r}"
    entries = doc.get("entries")
    assert entries, "no benchmark entries"
    for entry in entries:
        warm = entry["warm"]
        is_gateway = entry.get("kind") == "gateway"
        p50_limit = (GATEWAY_WARM_P50_LIMIT_MS if is_gateway
                     else WARM_P50_LIMIT_MS)
        assert warm["dropped"] == 0, \
            f"{entry['date']}: {warm['dropped']} dropped requests"
        assert warm["p50_ms"] < p50_limit, \
            (f"{entry['date']}: warm p50 {warm['p50_ms']}ms over the "
             f"{p50_limit}ms gate")
        assert entry.get("metrics_exposition_ok"), \
            f"{entry['date']}: /metrics exposition failed to parse"
        if is_gateway:
            assert entry["requests"] >= GATEWAY_MIN_REQUESTS, \
                (f"{entry['date']}: gateway run of "
                 f"{entry['requests']} requests under the "
                 f"{GATEWAY_MIN_REQUESTS} floor")
            assert warm.get("wrong_bytes") == 0, \
                (f"{entry['date']}: {warm.get('wrong_bytes')} "
                 f"responses differed from the direct run")
            assert entry["tenant_fairness"] >= TENANT_FAIRNESS_FLOOR, \
                (f"{entry['date']}: tenant fairness "
                 f"{entry['tenant_fairness']} under the "
                 f"{TENANT_FAIRNESS_FLOOR} no-starvation floor: "
                 f"{warm.get('served_by_tenant')}")


def _render(entry: dict) -> str:
    warm, cold = entry["warm"], entry["cold"]
    head = (f"service closed loop: {entry['requests']} requests, "
            f"{entry['clients']} clients")
    if entry.get("kind") == "gateway":
        head = (f"gateway closed loop: {entry['requests']} requests, "
                f"{entry['clients']} clients over "
                f"{entry['workers']} workers, "
                f"{entry['tenants']} tenants")
    text = (
        f"{head}\n"
        f"  warm (artifact-cache dispatch): "
        f"p50={warm['p50_ms']}ms p95={warm['p95_ms']}ms "
        f"p99={warm['p99_ms']}ms, {warm['throughput_rps']} req/s, "
        f"{warm['dropped']} dropped\n"
        f"  cold (compile + fast backend):  "
        f"p50={cold['p50_ms']}ms max={cold['max_ms']}ms "
        f"({entry['mix']} specs)\n"
        f"  statuses: {warm['statuses']}"
    )
    if entry.get("kind") == "gateway":
        text += (f"\n  parity: {warm.get('wrong_bytes')} wrong bytes; "
                 f"tenant fairness {entry['tenant_fairness']} "
                 f"{warm.get('served_by_tenant')}")
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=None,
                        help="closed-loop request count "
                             "(default 200; 2000 with --workers)")
    parser.add_argument("--clients", type=int, default=None,
                        help="concurrent closed-loop clients "
                             "(default 4; 8 with --workers)")
    parser.add_argument("--workers", type=int, default=0,
                        help="benchmark a sharded gateway over N "
                             "workers instead of a single daemon")
    parser.add_argument("--tenants", type=int, default=4,
                        help="tenant identities in gateway mode")
    parser.add_argument("--check", action="store_true",
                        help="measure and gate without writing history")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write history here instead of "
                             "BENCH_service.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    if args.workers > 0:
        entry = measure_gateway(
            requests=args.requests or 2000,
            clients=args.clients or 8,
            workers=args.workers, tenants=args.tenants)
    else:
        entry = measure(requests=args.requests or 200,
                        clients=args.clients or 4)
    print(_render(entry))

    if args.check:
        validate({"format": BENCH_FORMAT, "entries": [entry]})
        p50_limit = (GATEWAY_WARM_P50_LIMIT_MS if args.workers
                     else WARM_P50_LIMIT_MS)
        print("service bench gates OK "
              f"(warm p50 {entry['warm']['p50_ms']}ms < "
              f"{p50_limit}ms, 0 dropped)")
        return 0

    path = pathlib.Path(args.output) if args.output else BENCH_PATH
    doc = {"format": BENCH_FORMAT, "entries": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["entries"].append(entry)
    validate(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"appended to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
