"""Job execution: serial fallback and a fault-tolerant process pool.

:func:`run_jobs` takes a list of :class:`JobSpec`, consults the
persistent :class:`~repro.engine.cache.ArtifactCache`, deduplicates
identical specs, and executes the remaining jobs as *lanes* — a lockstep
group of ``batched`` sweep points, or a single job — either in-process
(``jobs=1`` — byte-identical to the historical serial paths) or across
a ``ProcessPoolExecutor`` with per-lane timeout and bounded retry on
worker crashes.  One failed design point never aborts the sweep; it is
recorded in the returned :class:`~repro.engine.report.EngineReport`.

The worker contract is a picklable callable ``worker(spec, cache) ->
payload dict`` (see :func:`result_to_dict`); tests inject failing or
sleeping workers to exercise the retry/timeout machinery.
"""

from __future__ import annotations

import contextlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool

from repro.harness.runner import Comparison, RunResult, run_workload

from repro.engine.cache import ArtifactCache, result_from_dict, result_to_dict
from repro.engine.jobs import JobSpec
from repro.engine.sweeps import SweepSpec
from repro.engine.report import (
    DUPLICATE,
    EXECUTED,
    FAILED,
    HIT,
    REJECTED,
    EngineReport,
    JobRecord,
)


def execute_job(spec: JobSpec, cache: ArtifactCache | None = None,
                trace=None) -> RunResult:
    """Run one job, reusing a cached compiled program when available.

    ``trace`` (a :class:`repro.obs.events.TraceOptions`) enables the
    structured event stream for this execution; tracing bypasses the
    compiled-artifact reuse so compiler passes appear in the timeline.
    """
    traced = trace is not None and trace.enabled
    compiled = (cache.load_compile(spec)
                if cache is not None and not traced else None)
    had_artifact = compiled is not None
    result = run_workload(spec.to_run_config(trace=trace),
                          compiled=compiled)
    if cache is not None and not had_artifact:
        cache.store_compile(spec, result.compile_result)
    return result


def _worker(spec: JobSpec, cache: ArtifactCache | None = None) -> dict:
    """Default worker: execute and return a serialized run summary."""
    return result_to_dict(execute_job(spec, cache))


#: Marker key of a per-point failure inside a lane's payload list; its
#: value is the formatted error string a solo worker raise would have
#: produced.
_LANE_FAILED = "__batch_failed__"


def _lane_worker(specs, cache: ArtifactCache | None = None,
                 worker=_worker) -> list:
    """Run one dispatch unit; returns one payload per spec.

    A lane of one is ``worker(spec, cache)``.  A wider lane of
    ``batched``-backend specs runs in lockstep; each entry is then
    either the serialized run summary — byte-identical to what
    :func:`_worker` produces for the same spec, by the batched parity
    contract — or ``{_LANE_FAILED: "..."}`` carrying the error string
    the solo path would have recorded.  Compiled artifacts are reused
    from / stored into ``cache`` exactly like :func:`execute_job` (one
    compile per lane).
    """
    if len(specs) == 1:
        return [worker(specs[0], cache)]
    from repro.harness.batch import execute_batch_group

    compiled = cache.load_compile(specs[0]) if cache is not None else None
    outcomes = execute_batch_group(
        [spec.to_run_config() for spec in specs], compiled=compiled)
    payloads = []
    for spec, outcome in zip(specs, outcomes, strict=True):
        if outcome.error is not None:
            payloads.append({_LANE_FAILED:
                             f"{type(outcome.error).__name__}: "
                             f"{outcome.error}"})
            continue
        if cache is not None and compiled is None:
            compiled = outcome.result.compile_result
            cache.store_compile(spec, compiled)
        payloads.append(result_to_dict(outcome.result))
    return payloads


def _plan_lanes(specs, pending, costs=None, batching=True):
    """Split pending indices into dispatch units (lists of indices).

    With ``batching``, ``backend="batched"`` specs are grouped by the
    harness's :func:`~repro.harness.batch.plan_batches` over their run
    configs, so engine batching can never group what the harness would
    refuse.  Every other index is a lane of one.

    Wider lanes go first.  ``costs`` (index → predicted cycles, from
    the static perf analyzer) orders each kind longest-first for
    better pool utilization; a lockstep lane's wall time tracks its
    slowest member.  With no (or incomplete) cost data the first-index
    order is kept.
    """
    from repro.harness.batch import plan_batches

    batched = [i for i in pending
               if batching and specs[i].backend == "batched"]
    groups, _ = plan_batches([specs[i].to_run_config() for i in batched])
    lanes = [[batched[k] for k in group] for group in groups]
    grouped = {i for lane in lanes for i in lane}
    lanes += [[i] for i in pending if i not in grouped]
    if costs and all(costs.get(i) is not None for i in pending):
        lanes.sort(key=lambda lane: (len(lane) == 1,
                                     -max(costs[i] for i in lane), lane[0]))
    else:
        lanes.sort(key=lambda lane: (len(lane) == 1, lane[0]))
    return lanes


def _notify(progress, record) -> None:
    """Fire a progress callback; a broken observer never kills a run."""
    if progress is None:
        return
    with contextlib.suppress(Exception):
        progress(record)


def run_jobs(
    specs: list[JobSpec] | SweepSpec,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    timeout: float | None = None,
    retries: int = 1,
    worker=None,
    events=None,
    progress=None,
) -> EngineReport:
    """Execute ``specs``; returns a report with results aligned to them.

    ``specs`` is a list of :class:`JobSpec` or a :class:`SweepSpec`
    (expanded via :meth:`SweepSpec.jobs`, in its documented order).

    ``jobs=1`` runs serially in-process (no pool, fully deterministic);
    ``jobs>1`` fans out over worker processes.  ``timeout`` (seconds,
    per lane) and crash recovery apply to the pooled path; a job is
    retried at most ``retries`` times before being recorded as FAILED.

    Every cache miss is dispatched as a *lane*: cache-miss specs with
    ``backend="batched"`` are grouped (same program, same functional
    knobs) into lanes that run in lockstep, every other job is a lane
    of one.  Lanes share one dispatch loop, pool, timeout and failure
    policy; their cached payloads are byte-identical to solo runs, and
    a lane that fails wholesale falls back to solo jobs transparently.
    Batching only applies with the default worker — an injected
    ``worker`` sees every job individually, as before.

    ``events`` (an :class:`repro.obs.events.EventStream` or None)
    records the job lifecycle — cache hits, dedups, executions and
    failures — as wall-clock events for the timeline exporter.

    ``progress`` (callable or None) fires once per job as it reaches a
    terminal status, with its :class:`~repro.engine.report.JobRecord`
    — the service layer streams these as live progress for async jobs.
    Callback exceptions are swallowed; observation never aborts work.
    """
    from repro.analysis.speclint import lint_spec

    if isinstance(specs, SweepSpec):
        specs = specs.jobs()
    started = time.perf_counter()
    n = len(specs)
    records = [JobRecord(spec=spec) for spec in specs]
    results: list = [None] * n

    def mark(name: str, spec: JobSpec) -> None:
        if events is not None:
            events.instant(name, "engine.job",
                           time.perf_counter() * 1e6, domain="wall",
                           spec=spec.describe())

    # Pre-flight lint (once per unique hash): an illegal spec becomes a
    # REJECTED record carrying its diagnostics instead of burning a
    # worker slot (or a timeout) discovering the problem dynamically.
    lint_by_hash: dict[str, object] = {}

    # Cache probe + dedup (first occurrence of a hash is the primary).
    primary: dict[str, int] = {}
    dup_of: dict[int, int] = {}
    pending: list[int] = []
    for i, spec in enumerate(specs):
        h = spec.job_hash
        lint = lint_by_hash.get(h)
        if lint is None:
            lint = lint_by_hash[h] = lint_spec(spec)
        if lint.diagnostics:
            records[i].diagnostics = list(lint.diagnostics)
        if not lint.ok:
            records[i].status = REJECTED
            records[i].error = "; ".join(
                f"{d.code}: {d.message}" for d in lint.errors)
            mark("job_rejected", spec)
            _notify(progress, records[i])
            continue
        if h in primary:
            dup_of[i] = primary[h]
            records[i].status = DUPLICATE
            mark("job_duplicate", spec)
            _notify(progress, records[i])
            continue
        primary[h] = i
        payload = cache.load_run(spec) if cache is not None else None
        if payload is not None:
            # A stale/unreadable entry falls through as a miss.
            with contextlib.suppress(KeyError, ValueError):
                results[i] = result_from_dict(payload)
                records[i].status = HIT
                mark("job_cache_hit", spec)
                _notify(progress, records[i])
                continue
        pending.append(i)

    # Cost pre-flight: with real parallelism ahead, predict each
    # pending job's cycle cost statically (memoized per hash; the
    # compile is shared with the run via the harness memo) and dispatch
    # longest-first — the classic LPT heuristic.  Serial runs skip it:
    # ordering cannot change their wall time.
    costs: dict[int, int | None] = {}
    if len(pending) > 1 and jobs > 1:
        from repro.analysis.perf import estimate_job_cost

        for i in pending:
            records[i].cost = costs[i] = estimate_job_cost(specs[i])

    _dispatch(specs, _plan_lanes(specs, pending, costs, worker is None),
              records, results, cache, jobs, timeout, retries,
              worker or _worker, events, progress)

    for i, j in dup_of.items():
        results[i] = results[j]

    return EngineReport(
        jobs=max(1, jobs),
        records=records,
        results=results,
        wall_s=time.perf_counter() - started,
    )


def _finish(index: int, payload: dict, specs, records, results,
            cache) -> None:
    """Record one job's payload: a run summary, or a lane's per-point
    failure marker."""
    record = records[index]
    if isinstance(payload, dict) and _LANE_FAILED in payload:
        record.status = FAILED
        record.error = payload[_LANE_FAILED]
        return
    try:
        results[index] = result_from_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        record.status = FAILED
        record.error = f"bad worker payload: {exc}"
        return
    record.status = EXECUTED
    if cache is not None:
        cache.store_run(specs[index], payload)


def _dispatch(specs, lanes, records, results, cache, jobs, timeout,
              retries, worker, events=None, progress=None) -> None:
    """The one dispatch loop: run ``lanes`` in rounds until none is left.

    ``jobs<=1`` runs each round in-process (:func:`_run_serial`), else
    over a process pool (:func:`_run_pooled`).  What fails in a round
    comes back under :func:`_retry_or_fail` for the next one.
    """
    run = _run_serial if jobs <= 1 else _run_pooled
    while lanes:
        round_lanes, lanes = lanes, []
        for lane in round_lanes:
            if len(lane) == 1:
                records[lane[0]].attempts += 1
        for lane, payloads, error, t0, wall_s in run(
                specs, round_lanes, cache, jobs, timeout, worker):
            if events is not None:
                name = specs[lane[0]].describe()
                events.complete(
                    name if len(lane) == 1
                    else f"batch[{len(lane)}] {name}",
                    "engine.job" if len(lane) == 1 else "engine.batch",
                    t0 * 1e6, wall_s * 1e6, domain="wall",
                    attempts=records[lane[0]].attempts,
                    status="failed" if payloads is None else "executed")
            if payloads is None:
                lanes += _retry_or_fail(lane, error, records, wall_s,
                                        retries, progress)
                continue
            for i, payload in zip(lane, payloads, strict=True):
                records[i].wall_s = wall_s
                if len(lane) > 1:
                    # A lane is one attempt for each of its members.
                    records[i].attempts += 1
                _finish(i, payload, specs, records, results, cache)
                _notify(progress, records[i])


def _retry_or_fail(lane, error, records, wall_s, retries,
                   progress) -> list[list[int]]:
    """The one failure policy; returns the lanes to dispatch again.

    A failed wider lane (crash, timeout, an error at the lane level) is
    not retried as a lane: its members come back as lanes of one, which
    are always parity-safe and have their own retry budget.  A lane of
    one retries while it has attempts left, then is recorded FAILED.
    """
    if len(lane) > 1:
        return [[i] for i in lane]
    record = records[lane[0]]
    record.error = error
    record.wall_s = wall_s
    if record.attempts <= retries:
        return [lane]
    record.status = FAILED
    _notify(progress, record)
    return []


def _run_serial(specs, lanes, cache, jobs, timeout, worker):
    """Run each lane in-process, yielding ``(lane, payloads, error,
    start, wall_s)`` as it finishes (``payloads`` None on failure)."""
    for lane in lanes:
        t0 = time.perf_counter()
        try:
            payloads = _lane_worker([specs[i] for i in lane], cache, worker)
            error = None
        except Exception as exc:  # noqa: BLE001 — must survive
            payloads, error = None, f"{type(exc).__name__}: {exc}"
        yield lane, payloads, error, t0, time.perf_counter() - t0


def _run_pooled(specs, lanes, cache, jobs, timeout, worker):
    """Run the lanes over a process pool with a per-lane ``timeout``;
    yields like :func:`_run_serial`, in submission order."""
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(lanes)))
    futures = {}
    for lane in lanes:
        futures[pool.submit(_lane_worker, [specs[i] for i in lane], cache,
                            worker)] = (lane, time.perf_counter())
    timed_out = False
    try:
        for future, (lane, t0) in futures.items():
            payloads = None
            try:
                payloads = future.result(timeout=timeout)
                error = None
            except FutureTimeout:
                timed_out = True
                future.cancel()
                error = f"timed out after {timeout}s"
            except BrokenProcessPool:
                # A worker died (segfault/os._exit); every unfinished
                # future in this round reports broken and is retried
                # in a fresh pool until its attempts run out.
                error = "worker process crashed"
            except Exception as exc:  # noqa: BLE001 — sweep must survive
                error = f"{type(exc).__name__}: {exc}"
            yield lane, payloads, error, t0, time.perf_counter() - t0
    finally:
        pool.shutdown(wait=not timed_out, cancel_futures=True)
        if timed_out:
            # Don't let a hung worker outlive its round.
            for proc in getattr(pool, "_processes", None) or {}:
                with contextlib.suppress(Exception):  # pragma: no cover
                    pool._processes[proc].terminate()


def run_comparisons(
    workloads,
    scale: str = "small",
    seed: int = 7,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    timeout: float | None = None,
    retries: int = 1,
    **knobs,
) -> tuple[dict[str, Comparison], EngineReport]:
    """Scalar-vs-DySER comparisons for ``workloads`` through the engine.

    Returns ``(comparisons by workload name, report)``.  Raises
    :class:`~repro.engine.report.EngineFailure` if any job failed.
    """
    specs = SweepSpec.comparison(workloads, scale=scale, seed=seed,
                                 **knobs).jobs()
    report = run_jobs(specs, jobs=jobs, cache=cache, timeout=timeout,
                      retries=retries)
    report.raise_on_failure()
    comparisons = {}
    for i in range(0, len(specs), 2):
        comparisons[specs[i].workload] = Comparison(
            workload=specs[i].workload,
            scalar=report.results[i],
            dyser=report.results[i + 1],
        )
    return comparisons, report
