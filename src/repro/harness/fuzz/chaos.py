"""Chaos driver for the service layer.

Four fault-injection scenarios, each run against a real in-process
daemon (:class:`repro.service.ServiceThread`) and each asserting the
same two invariants from the service's contract:

1. **never wrong bytes** — any ``ok: true`` response carries exactly
   the payload a direct engine run would produce;
2. **recover or fail closed** — after the fault the daemon either
   serves correct results again or answers with an honest error
   status (500/429/504/503), never a fabricated success.

Scenarios:

- ``worker-crash``      — the engine worker raises mid-batch; the
  poisoned job must fail closed, the next job must execute normally.
- ``queue-overflow``    — fill the queue behind a gated worker; the
  overflow request must get 429 + Retry-After, queued work must
  complete untouched once the gate opens.
- ``cache-corruption``  — truncate, bit-flip and garble the artifact
  cache entry between requests; every subsequent response must still
  be byte-identical to the direct run (miss-and-evict, re-execute).
- ``slow-client-drain`` — a client that stalls mid-request while the
  server drains; shutdown must still complete and the in-flight job
  must be served.
- ``gateway-worker-kill`` — a sharded gateway loses a worker while a
  durable ``/v2`` sweep job is executing on it; the gateway must
  evict the dead shard, re-dispatch to a survivor and finish the job
  byte-identical.  The gateway itself is then crashed mid-job and
  restarted on the same journal; the replayed job must complete.

Violations surface as :class:`~repro.harness.fuzz.oracles.Finding`
objects with ``oracle="chaos"``; an unexpected scenario exception is
itself a finding (``harness-error``), never a crash of the fuzz run.
"""

from __future__ import annotations

import json
import random
import socket
import tempfile
import threading
import time

from repro.errors import stable_error_string
from repro.harness.fuzz.oracles import Finding

#: The one spec every scenario runs (tiny => fast, dyser => exercises
#: the full access/execute path through the engine).
SPEC = {"workload": "vecadd", "mode": "dyser", "scale": "tiny"}


def _canned_payload() -> dict:
    """A direct engine run of :data:`SPEC` — the wrong-bytes oracle."""
    from repro import RunConfig, run_workload
    from repro.engine import result_to_dict

    return result_to_dict(run_workload(RunConfig(**SPEC)))


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _poll(predicate, timeout: float = 10.0,
          interval: float = 0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class _GatedWorker:
    """Engine worker whose first call blocks on an event (the same
    injection hook :func:`repro.engine.pool.run_jobs` exposes)."""

    def __init__(self, payload: dict):
        self.payload = payload
        self.release = threading.Event()
        self.started = threading.Event()
        self._lock = threading.Lock()
        self._calls = 0

    def __call__(self, spec, cache=None):
        with self._lock:
            self._calls += 1
            first = self._calls == 1
        if first:
            self.started.set()
            if not self.release.wait(timeout=30):
                raise RuntimeError("chaos gate never released")
        return dict(self.payload)


def _submit_async(port: int, spec: dict, out: list, **kwargs):
    from repro.service import Client

    def run():
        with Client(port=port, retries=0, timeout=60) as client:
            out.append(client.execute(spec, raise_on_error=False,
                                      **kwargs))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


# ---------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------

def _scenario_worker_crash(rng: random.Random) -> list[Finding]:
    from repro.service import Client, ServiceThread
    from repro.service import protocol as P

    findings: list[Finding] = []
    payload = _canned_payload()

    def worker(spec, cache=None):
        if spec.seed == 1:
            raise RuntimeError("injected worker crash")
        return dict(payload)

    with ServiceThread(cache=None, batch_max=1, batch_window_s=0.0,
                       worker=worker) as srv, \
            Client(port=srv.port, retries=0, timeout=60) as client:
        poisoned = client.execute({**SPEC, "seed": 1},
                                  raise_on_error=False)
        if poisoned.get("ok") or (poisoned.get("status")
                                  != P.STATUS_FAILED):
            findings.append(Finding(
                "chaos", "worker-crash", "not-failed-closed",
                f"poisoned job answered "
                f"{poisoned.get('status')!r} ok="
                f"{poisoned.get('ok')!r} instead of failing"))
        healthy = client.execute({**SPEC, "seed": 2},
                                 raise_on_error=False)
        if healthy.get("status") != P.STATUS_EXECUTED:
            findings.append(Finding(
                "chaos", "worker-crash", "no-recovery",
                f"job after the crash answered "
                f"{healthy.get('status')!r}"))
        elif _canonical(healthy["result"]) != _canonical(payload):
            findings.append(Finding(
                "chaos", "worker-crash", "wrong-bytes",
                "post-crash result differs from the direct run"))
        if not client.health().get("ready"):
            findings.append(Finding(
                "chaos", "worker-crash", "not-ready",
                "daemon not ready after worker crash"))
    return findings


def _scenario_queue_overflow(rng: random.Random) -> list[Finding]:
    from repro.service import Client, ServiceThread
    from repro.service import protocol as P

    findings: list[Finding] = []
    payload = _canned_payload()
    worker = _GatedWorker(payload)
    replies: list[dict] = []
    with ServiceThread(cache=None, queue_limit=2, batch_max=1,
                       batch_window_s=0.0, worker=worker) as srv:
        t1 = _submit_async(srv.port, {**SPEC, "seed": 1}, replies)
        if not worker.started.wait(timeout=10):
            return [Finding("chaos", "queue-overflow", "harness-error",
                            "gated worker never started")]
        t2 = _submit_async(srv.port, {**SPEC, "seed": 2}, replies)
        with Client(port=srv.port, retries=0) as probe:
            if not _poll(lambda: probe.health()["inflight"] == 2):
                findings.append(Finding(
                    "chaos", "queue-overflow", "harness-error",
                    "two jobs never became in-flight"))
            status, headers, data = probe._send_once(
                "POST", "/v2/run",
                json.dumps({"spec": {**SPEC, "seed": 3}}).encode())
            overflow = json.loads(data)
            retry_after = {k.lower(): v
                           for k, v in headers.items()}.get("retry-after")
            if status != 429 or overflow.get("status") != P.STATUS_THROTTLED:
                findings.append(Finding(
                    "chaos", "queue-overflow", "no-backpressure",
                    f"overflow answered HTTP {status} "
                    f"{overflow.get('status')!r}, wanted 429 throttled"))
            elif not retry_after or float(retry_after) <= 0:
                findings.append(Finding(
                    "chaos", "queue-overflow", "no-retry-after",
                    f"throttle without usable Retry-After "
                    f"({retry_after!r})"))
        worker.release.set()
        t1.join(timeout=30)
        t2.join(timeout=30)
    statuses = sorted(r.get("status") for r in replies)
    if statuses != [P.STATUS_EXECUTED, P.STATUS_EXECUTED]:
        findings.append(Finding(
            "chaos", "queue-overflow", "queued-work-lost",
            f"queued jobs finished as {statuses} after the gate opened"))
    elif any(_canonical(r["result"]) != _canonical(payload)
             for r in replies):
        findings.append(Finding(
            "chaos", "queue-overflow", "wrong-bytes",
            "a queued job's result differs from the direct run"))
    return findings


def _corruptions(rng: random.Random):
    """The three corruption styles, as (name, mutate(text) -> text)."""

    def truncate(text: str) -> str:
        return text[: max(1, len(text) // 2)]

    def bit_flip(text: str) -> str:
        digits = [i for i, ch in enumerate(text) if ch.isdigit()]
        pos = rng.choice(digits)
        flipped = str((int(text[pos]) + 1 + rng.randrange(8)) % 10)
        return text[:pos] + flipped + text[pos + 1:]

    def garble(text: str) -> str:
        return "{this is not json" + text[:32]

    return (("truncate", truncate), ("bit-flip", bit_flip),
            ("garble", garble))


def _scenario_cache_corruption(rng: random.Random) -> list[Finding]:
    from repro.engine import ArtifactCache
    from repro.service import (
        Client,
        ServiceThread,
        spec_from_payload,
    )
    from repro.service import protocol as P

    findings: list[Finding] = []
    expected = _canonical(_canned_payload())
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        cache = ArtifactCache(tmp)
        path = cache._path("run", spec_from_payload(SPEC).job_hash)
        with ServiceThread(cache=cache, batch_max=1,
                           batch_window_s=0.0) as srv, \
                Client(port=srv.port, retries=0, timeout=120) as client:
            first = client.execute(SPEC, raise_on_error=False)
            if (first.get("status") != P.STATUS_EXECUTED
                    or _canonical(first["result"]) != expected):
                return [Finding(
                    "chaos", "cache-corruption", "harness-error",
                    f"baseline run answered "
                    f"{first.get('status')!r}")]
            if not path.exists():
                return [Finding(
                    "chaos", "cache-corruption", "harness-error",
                    "run artifact never reached the cache")]
            warm = client.execute(SPEC, raise_on_error=False)
            if warm.get("status") != P.STATUS_HIT:
                findings.append(Finding(
                    "chaos", "cache-corruption", "no-cache-hit",
                    f"warm request answered {warm.get('status')!r}"))
            for name, mutate in _corruptions(rng):
                text = path.read_text()
                path.write_text(mutate(text))
                resp = client.execute(SPEC, raise_on_error=False)
                if not resp.get("ok"):
                    findings.append(Finding(
                        "chaos", "cache-corruption",
                        f"{name}-not-recovered",
                        f"request after {name} answered "
                        f"{resp.get('status')!r}"))
                elif _canonical(resp["result"]) != expected:
                    findings.append(Finding(
                        "chaos", "cache-corruption",
                        f"{name}-wrong-bytes",
                        f"response after {name} corruption "
                        f"differs from the direct run"))
    return findings


def _scenario_slow_client_drain(rng: random.Random) -> list[Finding]:
    from repro.service import ServiceThread
    from repro.service import protocol as P

    findings: list[Finding] = []
    payload = _canned_payload()
    worker = _GatedWorker(payload)
    srv = ServiceThread(cache=None, batch_max=1, batch_window_s=0.0,
                        worker=worker).start()
    replies: list[dict] = []
    slow: dict = {}

    def slow_client():
        body = json.dumps({"spec": {**SPEC, "seed": 9}}).encode()
        head = (f"POST /v2/run HTTP/1.1\r\nHost: chaos\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        try:
            with socket.create_connection(("127.0.0.1", srv.port),
                                          timeout=10) as sock:
                sock.sendall(head + body[: len(body) // 2])
                time.sleep(0.4)  # ... while the server starts draining
                sock.sendall(body[len(body) // 2:])
                sock.settimeout(10)
                slow["outcome"] = "response" if sock.recv(
                    65536) else "closed"
        except OSError as exc:
            slow["outcome"] = f"refused ({type(exc).__name__})"

    t_inflight = _submit_async(srv.port, {**SPEC, "seed": 1}, replies)
    if not worker.started.wait(timeout=10):
        srv.shutdown(timeout=60)
        return [Finding("chaos", "slow-client-drain", "harness-error",
                        "gated worker never started")]
    t_slow = threading.Thread(target=slow_client, daemon=True)
    t_slow.start()
    time.sleep(0.1)  # let the slow client get its half-request in
    threading.Timer(0.3, worker.release.set).start()
    srv.shutdown(timeout=60)  # must complete despite the stalled client
    t_inflight.join(timeout=30)
    t_slow.join(timeout=30)
    if t_slow.is_alive() or "outcome" not in slow:
        findings.append(Finding(
            "chaos", "slow-client-drain", "client-hung",
            "slow client neither answered nor refused within 30s"))
    if not replies or replies[0].get("status") != P.STATUS_EXECUTED:
        findings.append(Finding(
            "chaos", "slow-client-drain", "inflight-abandoned",
            f"in-flight job finished as "
            f"{replies[0].get('status') if replies else None!r}"))
    elif _canonical(replies[0]["result"]) != _canonical(payload):
        findings.append(Finding(
            "chaos", "slow-client-drain", "wrong-bytes",
            "drained job's result differs from the direct run"))
    return findings


class _ArmedGate:
    """Engine worker for the gateway scenario: serves canned payloads
    per mode, and blocks the next call after every :meth:`arm` until
    ``release`` fires (so a fault can land while a spec executes)."""

    def __init__(self, payloads: dict):
        self.payloads = payloads
        self.release = threading.Event()
        self.started = threading.Event()
        self._lock = threading.Lock()
        self._armed = 0

    def arm(self) -> None:
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
            self.release.wait(timeout=30)
        return dict(self.payloads[spec.mode])


def _scenario_gateway_worker_kill(rng: random.Random) -> list[Finding]:
    import pathlib

    from repro import RunConfig, run_workload
    from repro.engine import result_to_dict
    from repro.service import Client, GatewayThread
    from repro.service.gateway import _GatewayServiceThread

    findings: list[Finding] = []
    payloads = {
        mode: result_to_dict(run_workload(RunConfig(**{**SPEC,
                                                       "mode": mode})))
        for mode in ("dyser", "scalar")
    }
    expected = sorted(_canonical(p) for p in payloads.values())
    sweep = {"workloads": [SPEC["workload"]],
             "modes": ["dyser", "scalar"],
             "base": {"scale": SPEC["scale"]}}
    gate = _ArmedGate(payloads)

    def job_bytes(status) -> list[str]:
        return sorted(_canonical(r["result"]) for r in status.results)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        journal = pathlib.Path(tmp) / "journal.jsonl"
        fleet = GatewayThread(
            n_workers=2,
            worker_kwargs={"cache": None, "batch_max": 1,
                           "batch_window_s": 0.0, "worker": gate},
            cache=None, journal=journal, health_interval_s=0.2)
        with fleet:
            client = Client(port=fleet.port, retries=0, timeout=60)
            probes = [Client(port=w.port, retries=0, timeout=10)
                      for w in fleet.workers]

            # -- phase 1: lose the executing worker mid-job ------------
            gate.arm()
            handle = client.submit(sweep=sweep)
            if not gate.started.wait(timeout=10):
                return [Finding("chaos", "gateway-worker-kill",
                                "harness-error",
                                "armed gate never blocked a spec")]

            def busy() -> list[int]:
                out = []
                for i, probe in enumerate(probes):
                    try:
                        if probe.health().get("inflight", 0) > 0:
                            out.append(i)
                    except Exception:  # noqa: BLE001 — dead worker
                        pass
                return out

            if not _poll(lambda: len(busy()) == 1):
                return [Finding("chaos", "gateway-worker-kill",
                                "harness-error",
                                f"expected one busy worker, saw "
                                f"{busy()}")]
            victim = busy()[0]
            fleet.kill_worker(victim)
            gate.release.set()
            final = client.wait(handle, timeout=60, results=True)
            if not final.succeeded:
                findings.append(Finding(
                    "chaos", "gateway-worker-kill", "job-lost",
                    f"job after worker kill finished "
                    f"{final.state!r}: {final.error!r}"))
            elif job_bytes(final) != expected:
                findings.append(Finding(
                    "chaos", "gateway-worker-kill", "wrong-bytes",
                    "re-dispatched sweep differs from direct runs"))
            if not _poll(lambda: client.health().get("ring_size") == 1):
                findings.append(Finding(
                    "chaos", "gateway-worker-kill", "no-eviction",
                    f"dead worker never left the ring "
                    f"(ring_size="
                    f"{client.health().get('ring_size')!r})"))

            # -- phase 2: crash the gateway mid-job, replay journal ----
            gate.arm()
            handle2 = client.submit(sweep=sweep)
            if not gate.started.wait(timeout=10):
                return findings + [Finding(
                    "chaos", "gateway-worker-kill", "harness-error",
                    "armed gate never blocked the second job")]
            fleet.gateway.kill()
            client.close()
            gate.release.set()
            reborn = _GatewayServiceThread(
                workers=fleet.worker_addrs(), cache=None,
                journal=journal, health_interval_s=0.2)
            reborn.start()
            try:
                client2 = Client(port=reborn.port, retries=0,
                                 timeout=60)
                final2 = client2.wait(handle2.id, timeout=60,
                                      results=True)
                if not final2.succeeded:
                    findings.append(Finding(
                        "chaos", "gateway-worker-kill",
                        "journal-replay-lost",
                        f"replayed job finished {final2.state!r}: "
                        f"{final2.error!r}"))
                elif job_bytes(final2) != expected:
                    findings.append(Finding(
                        "chaos", "gateway-worker-kill",
                        "journal-replay-wrong-bytes",
                        "replayed job differs from direct runs"))
                client2.close()
            finally:
                reborn.shutdown(timeout=60)
            for probe in probes:
                probe.close()
            # fleet.__exit__ shuts the (already dead) gateway + workers
            fleet.gateway = None
    return findings


_SCENARIOS = {
    "worker-crash": _scenario_worker_crash,
    "queue-overflow": _scenario_queue_overflow,
    "cache-corruption": _scenario_cache_corruption,
    "slow-client-drain": _scenario_slow_client_drain,
    "gateway-worker-kill": _scenario_gateway_worker_kill,
}


def chaos_scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_SCENARIOS))


def run_chaos(seed: int = 0,
              scenarios: tuple[str, ...] | None = None) -> list[Finding]:
    """Run the chaos scenarios; violations come back as findings.

    A scenario that *itself* blows up is reported as a
    ``harness-error`` finding rather than aborting the fuzz run — the
    chaos oracle failing open would hide exactly the bugs it hunts.
    """
    rng = random.Random(seed ^ 0xC11A05)
    findings: list[Finding] = []
    for name in (scenarios or chaos_scenario_names()):
        if name not in _SCENARIOS:
            raise ValueError(f"unknown chaos scenario {name!r} "
                             f"(have: {', '.join(chaos_scenario_names())})")
        try:
            findings.extend(_SCENARIOS[name](rng))
        except Exception as exc:  # noqa: BLE001 — must not fail open
            findings.append(Finding(
                "chaos", name, "harness-error",
                stable_error_string(exc)))
    return findings
