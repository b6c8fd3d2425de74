"""One benchmark workload in a fresh process: set up, measure, check.

run.py starts this file once per measurement::

    python3 benchmarks/layers/workloads.py '<options as JSON>'

and reads the outcome from the JSON file the options name.  Set-up time
counts from before ``import repro``: the host-speed probe and its clock
come first in this file so that they can time the import too.  The
workloads and why each was chosen are described in README.md.
"""

import json
import os
import signal
import sys
import time

#: Iterations of the host-speed probe (about 10 ms on the development
#: host).
PROBE_LOOPS = 60_000
#: The probe's time on the development host.  A normalised time reads as
#: the wall time the same work takes on a host where the probe takes
#: this long.
PROBE_REFERENCE_S = 0.010
#: Seconds between probes that interrupt a long unit of work.
PROBE_EVERY_S = 0.1


def probe() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    Like the simulator it indexes lists, reads and writes a dict and
    branches on every step.  It allocates no container, so the garbage
    collector never runs inside it.
    """
    regs = [0] * 32
    mem: dict[int, int] = {}
    acc = 0
    started = time.perf_counter()
    for k in range(PROBE_LOOPS):
        op = k & 7
        if op == 0:
            regs[k & 31] = regs[(k >> 3) & 31] + k
        elif op == 1:
            mem[k & 1023] = regs[k & 31]
        elif op == 2:
            acc += mem.get(k & 1023, 0) & 0xFFFF
        elif op == 3:
            regs[(k * 7) & 31] ^= acc
        else:
            regs[op] = (regs[op] * 3 + 1) & 0xFFFFFFFF
    return time.perf_counter() - started


class HostClock:
    """Times units of work in reference-host seconds.

    This host's speed swings by tens of percent within a second and
    drifts for minutes (README, "Host noise").  The probe runs before
    the first unit and after every unit, and with ``interrupt`` also
    every ``PROBE_EVERY_S`` inside a unit, from a SIGALRM handler on
    the measuring thread.  A unit's wall time, and the latency of each
    op in it, is scaled by ``PROBE_REFERENCE_S`` over the mean of the
    probes in and around it.  Probe time is in no unit.

    ``interrupt`` suits a unit that runs on this process's main thread:
    a probe there would hold up a request another thread is waiting
    on, and would add its time to a traced span.
    """

    def __init__(self, interrupt: bool) -> None:
        self.interrupt = interrupt
        self.probes = [probe()]
        #: The ``Op`` of every unit, in order.
        self.ops: list = []
        #: ``(round, wall s, normalised s)`` per unit.
        self.units: list[tuple[int, float, float]] = []
        self._inside: list[float] = []
        self._armed = False
        self._started = 0.0
        if interrupt:
            # Installed for good: a SIGALRM that is already pending when
            # a unit ends must find this handler, not the default one,
            # which ends the process.
            signal.signal(signal.SIGALRM, self._interrupt)

    def _interrupt(self, _signum, _frame) -> None:
        if self._armed:
            self._inside.append(probe())
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def start(self) -> None:
        """Begin a unit."""
        self._inside = []
        self._armed = self.interrupt
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        self._started = time.perf_counter()

    def stop(self, r: int, ops: list) -> tuple[float, float]:
        """End the unit that carried out ``ops``; returns its wall and
        normalised seconds."""
        wall = time.perf_counter() - self._started
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall -= sum(self._inside)
        samples = [self.probes[-1], *self._inside, probe()]
        self.probes += samples[1:]
        scale = PROBE_REFERENCE_S * len(samples) / sum(samples)
        for op in ops:
            if op.wall_s is None:
                op.wall_s = wall
            op.latency_s = op.wall_s * scale
        self.ops += ops
        self.units.append((r, wall, wall * scale))
        return wall, wall * scale

    def run(self, r: int, unit) -> None:
        """Time ``unit()``, which returns the ops it carried out."""
        ops = []
        self.start()
        try:
            ops = unit()
        finally:
            self.stop(r, ops)


if __name__ == "__main__":
    OPTIONS = json.loads(sys.argv[1])
    # One CPU for this process and everything it starts (the service
    # daemon too): the probe then times the CPU the work runs on, and a
    # request never waits for a reply to wake a thread on the other CPU
    # (README, "Host-speed normalisation").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Set-up, ``import repro`` included, is one unit of its own clock.  A
    # traced run's set-up is not interrupted: a probe would land in its
    # spans.
    SETUP_CLOCK = HostClock(interrupt=not OPTIONS["trace"])
    SETUP_CLOCK.start()

import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import repro  # noqa: E402,F401  (set-up includes the import)
import repro.engine.pool as pool  # noqa: E402
import repro.harness.batch as batch  # noqa: E402
from repro import ArtifactCache, JobSpec, RunConfig, SweepSpec  # noqa: E402
from repro.harness.runner import clear_caches  # noqa: E402

#: Cheap-to-compile kernels: their compile is a small share of set-up.
WARM_SIM_KERNELS = (
    "vecadd", "saxpy", "dotprod", "mm", "nbody", "mriq", "spmv", "kmeans",
    "hist_weighted", "newton_lcd", "tpacf_bin", "spmv_csr_dsl",
    "ptr_chase_dsl",
)
SWEEP_KERNELS = ("mm", "nbody", "spmv", "kmeans")
SWEEP_AXES = (
    ("input_fifo_depth", (2, 4, 8)),
    ("initiation_interval", (1, 2)),
    ("vector_port_words_per_cycle", (1, 2, 4)),
)
SERVICE_KERNELS = ("vecadd", "saxpy", "dotprod", "mm", "nbody", "spmv",
                   "kmeans", "hist_weighted")
#: Two client threads and one engine worker: the host has two cores.
SERVICE_CLIENTS = 2
#: Share of service requests that carry a fresh seed (cache misses).  An
#: assumption: no measured request mix of the service exists to take it
#: from, so service-mixed results hold for this synthetic mix only.
MISS_SHARE = 0.10
#: Requests sent between two host-speed probes on service-mixed.
BLOCK_REQUESTS = 32
#: Round-0 jobs re-run on the reference and batched backends.
PARITY_SAMPLES = 2
#: Stall causes charged to the DySER interface.
DYSER_STALLS = ("DYSER_SEND", "DYSER_RECV", "DYSER_CONFIG")


@dataclass
class Op:
    """One measured operation: an engine job, a sweep point or a request.

    Its latency runs from submission until the caller holds the result:
    for a request, the round trip; for a job, its own engine call; for a
    sweep point, the engine call of its lane, which returns every point
    of the lane together.
    """

    round: int
    error: str | None = None
    #: ``RunResult.to_dict()`` form; kept for round 0 only.
    payload: dict | None = None
    #: Instructions simulated for this op during the phase (0 on a hit).
    executed_instructions: int = 0
    #: The op's ``JobSpec``; kept for round 0 only.
    spec: JobSpec | None = None
    #: Service requests: answered from the artifact cache.
    hit: bool = False
    #: Service requests: the spec sent, as canonical JSON.
    key: str = ""
    #: Wall-clock latency in seconds; ``None`` until timed, and then an
    #: engine op takes its unit's wall time.
    wall_s: float | None = None
    #: ``wall_s`` in reference-host seconds (see :class:`HostClock`).
    latency_s: float = 0.0


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1,
                              math.ceil(q * len(ordered)) - 1))]


def exact_counts(payloads: list[dict]) -> dict:
    """Counts that a speed-only change must leave exactly unchanged."""
    regions: dict[tuple, list] = {}
    for p in payloads:
        regions.setdefault((p["workload"], p["mode"]), p["regions"])
    stats = [p["stats"] for p in payloads]
    return {
        "cpu.sim_instructions": sum(s["instructions"] for s in stats),
        "cpu.sim_cycles": sum(s["cycles"] for s in stats),
        "dyser.invocations": sum(s["dyser_invocations"] for s in stats),
        "dyser.config_loads": sum(s["dyser_config_loads"] for s in stats),
        "dyser.config_hits": sum(s["dyser_config_hits"] for s in stats),
        "dyser.stall_cycles": sum(s["stall_cycles"].get(k, 0)
                                  for s in stats for k in DYSER_STALLS),
        "compiler.regions.accepted": sum(
            1 for rs in regions.values() for r in rs if r["accepted"]),
        "compiler.regions.total": sum(len(rs) for rs in regions.values()),
    }


def results_sha256(payloads: list[dict]) -> str:
    blob = "\n".join(sorted(canonical(p) for p in payloads))
    return hashlib.sha256(blob.encode()).hexdigest()


def parity_errors(spec: JobSpec, payload: dict, cache) -> list[str]:
    """Re-run ``spec`` on the reference core and as a two-point lockstep
    lane; every outcome must equal the measured payload."""
    errors = []
    reference = pool.execute_job(replace(spec, backend="reference"), cache)
    if reference.to_dict() != payload:
        errors.append(f"{spec.describe()}: reference backend differs")
    lane = batch.execute_batch_group([spec.to_run_config()] * 2,
                                     compiled=reference.compile_result)
    for outcome in lane:
        got = (outcome.result.to_dict() if outcome.result is not None
               else {"error": str(outcome.error)})
        if got != payload:
            errors.append(f"{spec.describe()}: batched lane differs")
    return errors


class Workload:
    """Set-up, one timed phase of rounds, then output checks.

    Round ``r`` runs the same mix of work on inputs seeded from
    ``(--seed, r)``, so every round costs about the same and the
    phase can stop at any round boundary.  A round is a list of units,
    each timed on its own by a :class:`HostClock`.  Exact counts and
    ``results_sha256`` cover round 0, which every run completes.
    """

    name = ""
    full_scale = "medium"
    smoke_rounds = 2
    #: Units run on the main thread, so probes may interrupt them.
    interruptible = True
    #: Where a traced daemon leaves its spans for this process to merge.
    spans_path: pathlib.Path | None = None

    def __init__(self, seed: int, smoke: bool, work: pathlib.Path,
                 traced: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work = work
        self.traced = traced
        self.scale = "tiny" if smoke else self.full_scale
        self._seeds = random.Random(f"{self.name}/{seed}/rounds")
        self._round_seeds: list[int] = []
        self.cache_dir = work / "cache"

    def round_seed(self, r: int) -> int:
        while len(self._round_seeds) <= r:
            self._round_seeds.append(self._seeds.randrange(1, 2 ** 31))
        return self._round_seeds[r]

    def setup_seed(self) -> int:
        """Inputs of set-up runs, distinct from every round's."""
        return random.Random(f"{self.name}/{self.seed}/setup").randrange(
            2 ** 31, 2 ** 32)

    # -- lifecycle -----------------------------------------------------

    def setup(self) -> None:
        """Work done before the timed phase (counted in ``setup_s``)."""

    def sweep(self, r: int) -> SweepSpec:
        """The jobs of round ``r``."""
        raise NotImplementedError

    def units(self, r: int) -> list:
        """Round ``r``: one engine call per job."""
        cache = ArtifactCache(self.cache_dir)
        return [functools.partial(run_engine, [spec], r, cache)
                for spec in self.sweep(r).jobs()]

    def _fill_cache(self, sweep: SweepSpec) -> None:
        """Set-up: compile into the cache, then forget in-process."""
        report = pool.run_jobs(sweep, jobs=1,
                               cache=ArtifactCache(self.cache_dir))
        report.raise_on_failure()
        clear_caches()

    def phase(self, seconds: float, clock: HostClock) -> None:
        """Whole rounds on ``clock``, stopping at the round boundary
        nearest to ``seconds`` (a fixed count in smoke)."""
        started = time.perf_counter()
        for r in itertools.count():
            for unit in self.units(r):
                clock.run(r, unit)
            if self.smoke:
                if r + 1 >= self.smoke_rounds:
                    return
            elif (time.perf_counter() - started) * (r + 1.5) / (r + 1) \
                    >= seconds:
                return

    def teardown(self) -> None:
        """Stop anything set-up started."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def verify(self, ops: list[Op]) -> tuple[int, list[str]]:
        """Extra output checks after the phase: ``(checks, errors)``."""
        return self._parity(ops, ArtifactCache(self.cache_dir))

    def _parity(self, ops: list[Op], cache) -> tuple[int, list[str]]:
        seen: dict[str, Op] = {}
        for op in ops:
            if op.round == 0 and op.payload:
                seen.setdefault(op.spec.job_hash, op)
        candidates = sorted(
            seen.values(),
            key=lambda op: (op.payload["stats"]["instructions"],
                            op.spec.job_hash))
        cheaper = candidates[:max(PARITY_SAMPLES, len(candidates) // 2)]
        rng = random.Random(f"{self.name}/{self.seed}/parity")
        picked = rng.sample(cheaper, min(PARITY_SAMPLES, len(cheaper)))
        errors = []
        for op in picked:
            errors += parity_errors(op.spec, op.payload, cache)
        # Each pick is compared three times: reference, two lane points.
        return 3 * len(picked), errors

    def cache_bytes(self) -> int:
        return ArtifactCache(self.cache_dir).stats()["bytes"]

    def service_metrics(self) -> dict:
        return {}


def run_engine(specs, r: int, cache: ArtifactCache) -> list[Op]:
    """One engine call; one op per job, its latency the call's."""
    report = pool.run_jobs(specs, jobs=1, cache=cache)
    ops = []
    for rec, result in zip(report.records, report.results, strict=True):
        error = None
        if rec.status != "executed":
            error = f"{rec.spec.describe()}: {rec.status}: {rec.error}"
        elif not result.correct:
            error = f"{rec.spec.describe()}: incorrect output"
        payload = result.to_dict() if result is not None and r == 0 \
            else None
        executed = result.instructions if error is None else 0
        ops.append(Op(r, error, payload, executed, rec.spec))
    return ops


class ColdSuite(Workload):
    """Every suite kernel, both modes, from an empty cache: `repro suite`
    the first time."""

    name = "cold-suite"
    full_scale = "small"
    smoke_rounds = 1

    def sweep(self, r: int) -> SweepSpec:
        seed = self.round_seed(r)
        if self.smoke:
            return SweepSpec.comparison(WARM_SIM_KERNELS, scale=self.scale,
                                        seed=seed)
        return SweepSpec.suite(scale=self.scale, seed=seed)

    def units(self, r: int) -> list:
        """Every round starts from an empty cache and no in-process memo."""
        clear_caches()
        self.cache_dir = self.work / f"cold-{r}"
        return super().units(r)


class WarmSim(Workload):
    """Compiled programs come from the cache; every run misses it."""

    name = "warm-sim"

    def setup(self) -> None:
        self._fill_cache(SweepSpec.comparison(
            WARM_SIM_KERNELS, scale="tiny", seed=self.setup_seed()))

    def sweep(self, r: int) -> SweepSpec:
        return SweepSpec.comparison(WARM_SIM_KERNELS, scale=self.scale,
                                    seed=self.round_seed(r))


class TimingSweep(Workload):
    """A timing-knob sweep on the batched lockstep backend."""

    name = "timing-sweep"

    def setup(self) -> None:
        self._fill_cache(SweepSpec(
            workloads=SWEEP_KERNELS, modes=("dyser",),
            base={"scale": "tiny", "seed": self.setup_seed()}))

    def units(self, r: int) -> list:
        """Round ``r``: one engine call per kernel, which runs its 18
        points as one lockstep lane."""
        cache = ArtifactCache(self.cache_dir)
        return [functools.partial(run_engine, SweepSpec(
            workloads=(kernel,), modes=("dyser",),
            base={"scale": self.scale, "seed": self.round_seed(r),
                  "backend": "batched"},
            axes=SWEEP_AXES), r, cache) for kernel in SWEEP_KERNELS]


def daemon_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024


def _prometheus(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = float(value)
    return values


class ServiceMixed(Workload):
    """Closed-loop clients against `repro serve`: mostly cache hits, a
    tenth fresh seeds that the engine executes."""

    name = "service-mixed"
    full_scale = "tiny"
    interruptible = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Every round sends each spec this often, a tenth of the time with
        # a fresh seed: rounds differ in order and inputs, not in mix.
        # 16 specs x 60 make 960 requests, nine beyond each round's p99.
        self.per_spec = 10 if self.smoke else 60
        warm_seed = random.Random(
            f"{self.name}/{self.seed}/warm").randrange(1, 2 ** 30)
        self.specs = [{"workload": k, "mode": m, "scale": self.scale,
                       "seed": warm_seed}
                      for k in SERVICE_KERNELS for m in ("scalar", "dyser")]
        self._fresh = itertools.count(warm_seed + 1)
        self._mix = random.Random(f"{self.name}/{self.seed}/mix")
        self.clients: list = []
        if self.traced:
            self.spans_path = self.work / "daemon-spans.json"
        self.daemon = None
        self.first_hit: dict[str, dict] = {}
        self.metrics: dict = {}

    def setup(self) -> None:
        from repro.service import Client

        serve = ["serve", "--port", "0", "--jobs", "1",
                 "--cache-dir", str(self.cache_dir)]
        cmd = ([sys.executable, str(HERE / "serve_traced.py"),
                str(self.spans_path), *serve] if self.traced
               else [sys.executable, "-m", "repro", *serve])
        self.daemon_started = time.perf_counter()
        self.daemon = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                       text=True)
        banner = self.daemon.stdout.readline()
        found = re.search(r"http://[^\s:]+:(\d+)", banner)
        if found is None:
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.port = int(found.group(1))
        with Client(port=self.port, timeout=120) as client:
            for spec in self.specs:
                client.execute(spec)

    def _scrape(self) -> dict[str, float]:
        from repro.service import Client

        with Client(port=self.port) as client:
            return _prometheus(client.metrics_text())

    def units(self, r: int) -> list:
        """Round ``r``: each spec ``per_spec`` times, a tenth of them with
        a fresh seed, shuffled, in blocks of ``BLOCK_REQUESTS``."""
        misses = round(self.per_spec * MISS_SHARE)
        requests = [{**spec, "seed": next(self._fresh)} if i < misses
                    else spec
                    for spec in self.specs for i in range(self.per_spec)]
        self._mix.shuffle(requests)
        return [functools.partial(self._block, r,
                                  requests[i:i + BLOCK_REQUESTS])
                for i in range(0, len(requests), BLOCK_REQUESTS)]

    def _block(self, r: int, requests: list[dict]) -> list[Op]:
        """``requests`` sent by the client threads in a closed loop."""
        pending = iter(requests)
        lock = threading.Lock()
        ops: list[Op] = []

        def client_loop(client) -> None:
            while True:
                with lock:
                    spec = next(pending, None)
                if spec is None:
                    return
                started = time.perf_counter()
                try:
                    reply = client.execute(spec, raise_on_error=False)
                except Exception as exc:  # noqa: BLE001 - recorded
                    reply = {"error": f"{type(exc).__name__}: {exc}"}
                op = self._op(r, spec, reply, time.perf_counter() - started)
                with lock:
                    ops.append(op)

        threads = [threading.Thread(target=client_loop, args=(client,))
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if r == 0:
            self.daemon_rss_mb = daemon_peak_rss_mb(self.daemon.pid)
        return ops

    def phase(self, seconds: float, clock: HostClock) -> None:
        from repro.service import Client

        before = self._scrape()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        with contextlib.ExitStack() as stack:
            self.clients = [
                stack.enter_context(Client(port=self.port, timeout=120))
                for _ in range(SERVICE_CLIENTS)]
            super().phase(seconds, clock)
        # The probes run in this process while the daemon idles.
        probing = sum(clock.probes[1:])
        wall = time.perf_counter() - wall0 - probing
        client_cpu = time.process_time() - cpu0 - probing
        after = self._scrape()
        self._summarize(clock.ops, before, after, wall, client_cpu)

    def _op(self, r: int, spec: dict, reply: dict, latency: float) -> Op:
        result = reply.get("result")
        status = reply.get("status")
        key = canonical(spec)
        error = None
        if not reply.get("ok") or result is None:
            error = f"{key}: {status}: {reply.get('error')}"
        elif not result.get("correct"):
            error = f"{key}: incorrect output"
        elif status == "hit":
            reference = self.first_hit.setdefault(key, result)
            if result != reference:
                error = f"{key}: hit differs from an earlier hit"
        executed = (result["stats"]["instructions"]
                    if result is not None and status == "executed" else 0)
        if r != 0:
            return Op(r, error, executed_instructions=executed,
                      hit=status == "hit", wall_s=latency)
        return Op(r, error, result, executed, JobSpec(**spec),
                  status == "hit", key, wall_s=latency)

    def _summarize(self, ops, before, after, wall, client_cpu):
        def delta(name: str) -> float:
            return after.get(name, 0.0) - before.get(name, 0.0)

        hits = [op.latency_s * 1e3 for op in ops if op.hit]
        misses = [op.latency_s * 1e3 for op in ops if not op.hit]
        # Wall time, as the daemon's own latency sum is.
        client_mean = statistics.fmean(op.wall_s * 1e3 for op in ops)
        server_n = delta("repro_service_latency_e2e_ms_count")
        server_mean = (delta("repro_service_latency_e2e_ms_sum") / server_n
                       if server_n else 0.0)
        sizes = delta("repro_service_batch_size_count")
        self.metrics = {
            "service.miss_share": len(misses) / len(ops),
            "service.batches": delta("repro_service_batches_total"),
            "service.batch_size_mean": (
                delta("repro_service_batch_size_sum") / sizes
                if sizes else 0.0),
            "service.cache.hits": delta("repro_service_cache_hits_total"),
            "service.jobs.executed": delta(
                "repro_service_jobs_executed_total"),
            "service.client_busy": client_cpu / wall,
            "service.hit_p50_ms": percentile(hits, 0.5) if hits else 0.0,
            "service.hit_p99_ms": percentile(hits, 0.99) if hits else 0.0,
            "service.miss_p50_ms": (percentile(misses, 0.5)
                                    if misses else 0.0),
            "service.miss_p95_ms": (percentile(misses, 0.95)
                                    if misses else 0.0),
            "service.server_e2e_ms_mean": server_mean,
            "service.transport_ms_mean": client_mean - server_mean,
        }

    def teardown(self) -> None:
        if self.daemon is None:
            return
        daemon, self.daemon = self.daemon, None
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.communicate()
        lifetime = time.perf_counter() - self.daemon_started
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.metrics["service.server_busy"] = (
            (usage.ru_utime + usage.ru_stime) / lifetime)
        if daemon.returncode != 0:
            raise RuntimeError(f"repro serve exited {daemon.returncode}")

    def peak_rss_mb(self) -> float:
        """The daemon's peak after round 0.  It grows with every fresh
        seed served, so a later reading would grow with the number of
        rounds that fit in the phase, that is, with speed."""
        return self.daemon_rss_mb

    def verify(self, ops):
        """Hits must be byte-identical to direct runs of the same spec.

        Every hit was compared to the first hit of its spec during the
        phase; here round-0 hits and those first hits are compared, as
        canonical JSON, to a direct ``run_workload``.
        """
        from repro import run_workload

        expected = {canonical(spec): canonical(
            run_workload(RunConfig(**spec)).to_dict()) for spec in self.specs}
        served = [(op.key, op.payload) for op in ops
                  if op.round == 0 and op.hit]
        served += list(self.first_hit.items())
        errors = [f"{key}: hit bytes differ from a direct run"
                  for key, payload in served
                  if canonical(payload) != expected.get(key)]
        checks, parity = self._parity(ops, ArtifactCache(self.cache_dir))
        return checks + len(served), errors + parity

    def service_metrics(self) -> dict:
        return self.metrics


WORKLOADS = {cls.name: cls for cls in (ColdSuite, WarmSim, TimingSweep,
                                       ServiceMixed)}


def layer_metrics(table: dict, phase_table: dict, ops: list[Op],
                  busy_s: float) -> dict:
    """Per-layer numbers from the span tables (whole run unless noted);
    ``busy_s`` is the phase's wall time outside the probes."""
    from tracer import SITES, backend_sites

    empty = {"n": 0, "self_s": 0.0, "failed": 0, "failed_s": 0.0,
             "info": {}}
    names = ({s.span for s in SITES} | {s for s, _c, _k in backend_sites()}
             | {"workloads.prepare", "workloads.check"})
    metrics = {}
    for name in sorted(names):
        row = table.get(name, empty)
        metrics[f"{name}.n"] = row["n"]
        metrics[f"{name}.s"] = row["self_s"]
    schedule = table.get("compiler.schedule", empty)
    metrics["compiler.schedule.failed"] = schedule["failed"]
    metrics["compiler.schedule.failed_s"] = schedule["failed_s"]
    metrics["compiler.schedule.success_ratio"] = (
        1 - schedule["failed"] / schedule["n"] if schedule["n"] else 0.0)
    lanes = table.get("harness.batch", empty)
    metrics["harness.batch.points_per_lane"] = (
        lanes["info"].get("points", 0) / lanes["n"] if lanes["n"] else 0.0)
    engine = table.get("engine.run_jobs", empty)["info"]
    metrics["engine.jobs.n"] = engine.get("jobs", 0)
    metrics["engine.jobs.failed"] = engine.get("failed", 0)
    loads = table.get("engine.cache.load_compile", empty)
    metrics["engine.cache.compile_hit_ratio"] = (
        loads["info"].get("hit", 0) / loads["n"] if loads["n"] else 0.0)
    simulated = sum(op.executed_instructions for op in ops)
    sim_s = sum(row["self_s"] for name, row in phase_table.items()
                if name.startswith("cpu."))
    metrics["cpu.host_ns_per_instr"] = (sim_s * 1e9 / simulated
                                        if simulated else 0.0)
    covered = sum(row["self_s"] for row in phase_table.values())
    metrics["phase_coverage"] = covered / busy_s
    metrics["schedule_share"] = (phase_table.get("compiler.schedule", empty)
                                 ["self_s"] / busy_s)
    return metrics


def timings(clock: HostClock, wall: bool) -> dict:
    """``ops_per_s``, ``op_p50_ms`` and ``op_p99_ms`` over every op of
    the phase; from wall times or normalised ones.

    The phase is whole rounds of one mix, so p99 is the same rank of the
    same kind of op however many rounds it held.
    """
    busy = sum(wall_s if wall else normalised_s
               for _r, wall_s, normalised_s in clock.units)
    ms = [(op.wall_s if wall else op.latency_s) * 1e3 for op in clock.ops]
    return {
        "ops_per_s": len(ms) / busy,
        "op_p50_ms": statistics.median(ms),
        "op_p99_ms": percentile(ms, 0.99),
    }


def run(opts: dict, setup_clock: HostClock) -> dict:
    """Set up, measure and check one workload; returns its outcome.

    ``setup_clock`` has a unit running since before ``import repro``;
    set-up ends it.
    """
    work = pathlib.Path(opts["work"])
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if opts["trace"]:
        from tracer import Tracer, layer_table

        tracer = Tracer().install()
    workload = WORKLOADS[opts["workload"]](opts["seed"], opts["smoke"],
                                           work, tracer is not None)
    out: dict = {"workload": workload.name, "seed": workload.seed}
    try:
        workload.setup()
        setup_wall_s, out["setup_s"] = setup_clock.stop(0, [])
        if opts["setup_only"]:
            return out
        clock = HostClock(interrupt=workload.interruptible
                          and tracer is None)
        phase_start = time.perf_counter_ns()
        workload.phase(opts["seconds"], clock)
        phase_end = time.perf_counter_ns()
    finally:
        workload.teardown()
    out["peak_rss_mb"] = workload.peak_rss_mb()
    ops = clock.ops
    checks, errors = workload.verify(ops)
    errors = [op.error for op in ops if op.error] + errors
    first = [op.payload for op in ops if op.round == 0 and op.payload]
    rounds = clock.units[-1][0] + 1
    # ``[wall s, normalised s, units]`` per round.
    round_stats = [[0.0, 0.0, 0] for _ in range(rounds)]
    for r, wall, normalised in clock.units:
        round_stats[r][0] += wall
        round_stats[r][1] += normalised
        round_stats[r][2] += 1
    busy_s = sum(wall for wall, _n, _u in round_stats)
    out.update({
        "phase_s": (phase_end - phase_start) / 1e9,
        "busy_s": busy_s,
        "rounds": rounds,
        "round_stats": round_stats,
        "ops": len(ops),
        "attempted": len(ops) + checks,
        "failed": len(errors),
        "errors": errors[:20],
        "metrics": {"setup_s": out["setup_s"],
                    **timings(clock, wall=False),
                    "peak_rss_mb": out["peak_rss_mb"]},
        "wall_metrics": {"setup_s": setup_wall_s,
                         **timings(clock, wall=True)},
        "host_probe_s": [min(clock.probes), statistics.median(clock.probes),
                         max(clock.probes)],
        "exact": exact_counts(first),
        "results_sha256": results_sha256(first),
        "service": workload.service_metrics(),
        "cache_bytes": workload.cache_bytes(),
    })
    if tracer is not None:
        tracer.uninstall()
        if workload.spans_path is not None:
            tracer.merge(json.loads(workload.spans_path.read_text()))
        table, problems = layer_table(tracer.spans)
        phase_table, _ = layer_table(tracer.spans, (phase_start, phase_end))
        out["layers"] = table
        out["violations"] = problems
        out["fired"] = dict(tracer.fired)
        out["layer_metrics"] = layer_metrics(table, phase_table, ops,
                                             busy_s)
        if opts.get("trace_path"):
            tracer.write_chrome_trace(opts["trace_path"], metadata={
                "workload": workload.name, "seed": workload.seed,
                "phase_start_ns": phase_start, "phase_end_ns": phase_end})
    return out


if __name__ == "__main__":
    outcome = run(OPTIONS, SETUP_CLOCK)
    pathlib.Path(OPTIONS["result"]).write_text(json.dumps(outcome))
