"""Command-line interface.

Subcommands::

    python -m repro list                     # the workload suite
    python -m repro run mriq --mode dyser    # run one workload
    python -m repro profile mm --scale tiny --export trace.json
    python -m repro compile mriq --dump-ir   # show compiler output
    python -m repro lint mm fir --json       # static analysis verdicts
    python -m repro suite --scale tiny --jobs 4   # scalar-vs-DySER sweep
    python -m repro sweep saxpy mm --geometry 4x4 8x8 --jobs 4
    python -m repro cache --clear            # artifact-cache maintenance
    python -m repro cache prune --max-age-days 7 --max-bytes 500M
    python -m repro serve --port 8787        # simulation-as-a-service
    python -m repro serve --workers 4        # sharded gateway + workers
    python -m repro gateway --worker-addr 127.0.0.1:9001
    python -m repro submit mm --scale tiny   # client for a running serve
    python -m repro submit mm --no-wait      # durable async /v2 job
    python -m repro jobs watch j-...         # poll a durable job
    python -m repro fpga --width 8 --height 8
    python -m repro fuzz --seed 0 --cases 200 --oracle all
    python -m repro fuzz --replay tests/corpus/

``suite`` and ``sweep`` run through :mod:`repro.engine`: jobs are
deduplicated, served from the persistent artifact cache when warm, and
fanned out over ``--jobs`` worker processes.  Tables on stdout are
byte-identical between ``--jobs 1`` and ``--jobs N``; engine accounting
goes to stderr.  ``profile`` runs one workload with the structured
event stream on and renders/exports the timeline (:mod:`repro.obs`).

The CLI imports exclusively through the :mod:`repro` facade — it is a
consumer of the public API, never of submodule internals.
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    DEFAULT_BACKEND,
    RunConfig,
    SUITE,
    TraceOptions,
    WorkloadError,
    backend_names,
    format_table,
    geomean,
    get_workload,
    run_workload,
)


def _cmd_list(_args) -> int:
    rows = [
        [w.name, w.category, w.flops_per_item, w.description]
        for w in (SUITE[n] for n in sorted(SUITE))
    ]
    print(format_table(
        ["name", "category", "flops/item", "description"], rows,
        title="workload suite"))
    return 0


def _cmd_run(args) -> int:
    result = run_workload(RunConfig(
        workload=args.name, mode=args.mode, scale=args.scale,
        seed=args.seed, backend=args.backend))
    print(f"{args.name} [{args.mode}, {args.scale}]: "
          f"{'OK' if result.correct else 'WRONG RESULT'}")
    print(result.stats.summary())
    print(result.energy.summary())
    if args.mode == "dyser":
        for region in result.compile_result.regions:
            print(f"region {region.loop_header}: {region.reason} "
                  f"(shape={region.shape}, unroll={region.unrolled})")
    return 0 if result.correct else 1


def _cmd_profile(args) -> int:
    from repro import profile_workload

    # ``--backend batched`` is accepted here too: tracing resolves it
    # to the reference core (same cycles, by the parity contract).
    report = profile_workload(RunConfig(
        workload=args.name, mode=args.mode, scale=args.scale,
        seed=args.seed, backend=args.backend,
        trace=TraceOptions(enabled=True, capacity=args.capacity,
                           instructions=args.instructions)))
    print(report.summary(limit=args.limit))
    if args.export:
        path = report.export(args.export)
        print(f"\ntrace written to {path} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0 if report.result.correct else 1


def _cmd_compile(args) -> int:
    from repro import compile_dyser, compile_scalar

    if args.file:
        with open(args.file) as handle:
            source = handle.read()
    else:
        source = get_workload(args.name).source
    result = (compile_scalar(source) if args.scalar
              else compile_dyser(source))
    if args.dump_ir:
        print(result.ir_dump)
        print()
    for region in result.regions:
        print(f"; region {region.loop_header}: {region.reason}")
    print(result.program.listing())
    for config_id, config in result.program.dyser_configs.items():
        print(f"\n; configuration #{config_id}")
        print(config.dfg.describe())
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro import (
        CompilerOptions,
        Fabric,
        FabricGeometry,
        Severity,
        lint_workload,
        perf_report,
    )

    options = None
    if args.geometry is not None:
        options = CompilerOptions(
            fabric=Fabric(FabricGeometry(*args.geometry)))
    names = args.workloads or sorted(SUITE)
    reports = [lint_workload(name, mode=args.mode, options=options)
               for name in names]
    perf_reports = []
    if args.perf:
        perf_reports = [perf_report(RunConfig(workload=name,
                                              mode=args.mode,
                                              options=options))
                        for name in names]
    ok = all(report.ok for report in reports + perf_reports)
    if args.json:
        print(json.dumps({
            "ok": ok,
            "reports": [report.to_dict()
                        for report in reports + perf_reports],
        }, indent=2, sort_keys=True))
        return 0 if ok else 1
    min_severity = (Severity.WARNING if not args.notes
                    else Severity.NOTE)
    for report in reports:
        print(report.render(min_severity=min_severity))
    for report in perf_reports:
        # Perf attributions are notes; hiding them would make --perf
        # a no-op, so they render unconditionally.
        print(report.render(min_severity=Severity.NOTE))
    total_errors = sum(len(r.errors) for r in reports + perf_reports)
    total_warnings = sum(len(r.warnings) for r in reports + perf_reports)
    print(f"\nlint: {len(reports)} workload"
          f"{'s' if len(reports) != 1 else ''}, "
          f"{total_errors} error{'s' if total_errors != 1 else ''}, "
          f"{total_warnings} warning"
          f"{'s' if total_warnings != 1 else ''}")
    return 0 if ok else 1


def _engine_cache(args):
    from repro import ArtifactCache

    if getattr(args, "no_cache", False):
        return None
    return ArtifactCache(getattr(args, "cache_dir", None))


def _cmd_suite(args) -> int:
    from repro import EngineFailure, run_comparisons

    try:
        comps, report = run_comparisons(
            sorted(SUITE), scale=args.scale, seed=args.seed,
            jobs=args.jobs, cache=_engine_cache(args),
            timeout=args.timeout, retries=args.retries,
            backend=args.backend)
    except EngineFailure as exc:
        print(exc, file=sys.stderr)
        return 1
    rows = []
    speedups = []
    for name in sorted(SUITE):
        c = comps[name]
        ok = c.scalar.correct and c.dyser.correct
        rows.append([
            name, c.scalar.cycles, c.dyser.cycles,
            f"{c.speedup:.2f}x", f"{c.energy_ratio:.2f}x",
            "ok" if ok else "WRONG",
        ])
        speedups.append(c.speedup)
    print(format_table(
        ["benchmark", "scalar cycles", "dyser cycles", "speedup",
         "energy gain", "check"],
        rows, title=f"suite @ {args.scale}"))
    print(f"\ngeomean speedup: {geomean(speedups):.2f}x")
    print(report.summary(), file=sys.stderr)
    return 0 if all(r[-1] == "ok" for r in rows) else 1


def _parse_geometry(text: str) -> tuple[int, int]:
    try:
        width, height = text.lower().split("x")
        return (int(width), int(height))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"geometry must look like 8x8, got {text!r}") from None


#: sweep axis flags -> JobSpec field names.
_SWEEP_AXES = (
    ("geometry", "geometry"),
    ("unroll", "unroll"),
    ("vectorize", "vectorize"),
    ("fifo_depth", "input_fifo_depth"),
    ("port_width", "vector_port_words_per_cycle"),
    ("config_cache", "config_cache_capacity"),
)


def _cmd_sweep(args) -> int:
    import itertools

    from repro import SweepSpec, run_jobs

    workloads = args.workloads or sorted(SUITE)
    try:
        for name in workloads:
            get_workload(name)  # validate early, with the library's message
    except WorkloadError as exc:
        print(exc, file=sys.stderr)
        return 2
    axes = {}
    for flag, fieldname in _SWEEP_AXES:
        values = getattr(args, flag)
        if values:
            axes[fieldname] = values

    modes = ("scalar", "dyser") if args.mode == "both" else (args.mode,)
    sweep = SweepSpec(
        workloads=tuple(workloads), modes=modes,
        base={"scale": args.scale, "seed": args.seed,
              "backend": args.backend},
        axes=tuple((name, tuple(values))
                   for name, values in axes.items()))
    specs = sweep.jobs()

    # Rows stay (workload, grid point); map each cell back into the
    # SweepSpec expansion order (workload -> mode -> point).
    grid = list(itertools.product(*axes.values())) or [()]
    axis_names = list(axes)
    npoints = len(grid)
    row_plan = []  # (workload, overrides, spec indices by mode)
    for wi, name in enumerate(workloads):
        for pi, point in enumerate(grid):
            overrides = dict(zip(axis_names, point, strict=True))
            indices = {
                mode: (wi * len(modes) + mi) * npoints + pi
                for mi, mode in enumerate(modes)
            }
            row_plan.append((name, overrides, indices))

    report = run_jobs(specs, jobs=args.jobs, cache=_engine_cache(args),
                      timeout=args.timeout, retries=args.retries)

    axis_titles = [flag.replace("_", " ") for flag, f in _SWEEP_AXES
                   if f in axes]
    headers = ["benchmark", *axis_titles]
    if "scalar" in modes:
        headers.append("scalar cycles")
    if "dyser" in modes:
        headers.append("dyser cycles")
    if len(modes) == 2:
        headers.append("speedup")
    headers.append("check")

    rows = []
    ok = True
    for name, overrides, indices in row_plan:
        row = [name]
        for fieldname in axis_names:
            value = overrides[fieldname]
            row.append("x".join(map(str, value))
                       if isinstance(value, tuple) else value)
        results = {m: report.results[i] for m, i in indices.items()}
        if any(r is None for r in results.values()):
            row += ["-"] * (len(headers) - len(row) - 1) + ["FAILED"]
            ok = False
            rows.append(row)
            continue
        if "scalar" in results:
            row.append(results["scalar"].cycles)
        if "dyser" in results:
            row.append(results["dyser"].cycles)
        if len(modes) == 2:
            row.append(f"{results['scalar'].cycles / results['dyser'].cycles:.2f}x")
        correct = all(r.correct for r in results.values())
        ok = ok and correct
        row.append("ok" if correct else "WRONG")
        rows.append(row)

    print(format_table(headers, rows,
                       title=f"sweep @ {args.scale} ({len(specs)} jobs)"))
    print(f"sweep hash: {sweep.sweep_hash[:16]}", file=sys.stderr)
    print(report.summary(), file=sys.stderr)
    for record in report.failures:
        print(f"FAILED {record.spec.describe()}: {record.error}",
              file=sys.stderr)
    return 0 if ok and not report.failures else 1


def _cmd_cache(args) -> int:
    from repro import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
        return 0
    print(cache.describe())
    return 0


def _parse_bytes(text: str) -> int:
    """Accept plain bytes or K/M/G-suffixed sizes (e.g. ``500M``)."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}
    raw = text.strip().lower().removesuffix("b")
    scale = 1
    if raw and raw[-1] in units:
        scale = units[raw[-1]]
        raw = raw[:-1]
    try:
        return int(float(raw) * scale)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r}; use bytes or e.g. 512K, 100M, 2G"
        ) from None


def _cmd_cache_prune(args) -> int:
    from repro import ArtifactCache

    if args.max_age_days is None and args.max_bytes is None:
        print("cache prune: give --max-age-days and/or --max-bytes",
              file=sys.stderr)
        return 2
    cache = ArtifactCache(args.cache_dir)
    report = cache.prune(max_age_days=args.max_age_days,
                         max_bytes=args.max_bytes)
    print(f"pruned {report['removed']} entries "
          f"({report['freed_bytes'] / 1024:.1f} KiB) from {cache.root}; "
          f"{report['kept']} entries "
          f"({report['kept_bytes'] / 1024:.1f} KiB) kept")
    return 0


def _load_tenancy(args):
    """Per-tenant quota controller from ``--tenancy-config`` (JSON)."""
    path = getattr(args, "tenancy_config", None)
    if not path:
        return None
    import json

    from repro import controller_from_config

    with open(path) as handle:
        return controller_from_config(json.load(handle))


def _free_port(host: str) -> int:
    import socket

    with socket.socket() as sock:
        sock.bind((host, 0))
        return sock.getsockname()[1]


def _cmd_serve(args) -> int:
    if args.workers > 0:
        return _serve_multi(args)
    from repro import ArtifactCache, ReproService, TraceOptions

    cache = (None if args.no_cache
             else ArtifactCache(args.cache_dir))
    events = (TraceOptions(enabled=True).stream()
              if args.trace_export else None)
    service = ReproService(
        host=args.host, port=args.port,
        queue_limit=args.queue_limit, jobs=args.jobs,
        batch_window_s=args.batch_window_ms / 1000.0,
        batch_max=args.batch_max, cache=cache,
        timeout=args.timeout, retries=args.retries, events=events,
        journal=args.journal, tenancy=_load_tenancy(args))
    code = service.run()
    if args.trace_export and events is not None:
        from repro import write_chrome_trace

        path = write_chrome_trace(events, args.trace_export)
        print(f"service trace written to {path}")
    return code


def _serve_multi(args) -> int:
    """``repro serve --workers N``: spawn N shards + run the gateway."""
    import contextlib
    import signal as signal_mod
    import subprocess

    from repro import (
        ArtifactCache,
        Client,
        GatewayService,
        ServiceError,
    )

    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    procs: list[subprocess.Popen] = []
    addrs: list[str] = []
    for i in range(args.workers):
        port = _free_port(args.host)
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", args.host, "--port", str(port),
               "--queue-limit", str(args.queue_limit),
               "--jobs", str(args.jobs),
               "--batch-window-ms", str(args.batch_window_ms),
               "--batch-max", str(args.batch_max),
               "--retries", str(args.retries)]
        if args.timeout is not None:
            cmd += ["--timeout", str(args.timeout)]
        if cache is None:
            cmd += ["--no-cache"]
        else:
            # Shard-local caches stay hot for each worker's slice of
            # the hash space; the gateway keeps the shared fallback.
            cmd += ["--cache-dir", str(cache.root / f"shard-{i}")]
        proc = subprocess.Popen(cmd)
        procs.append(proc)
        addrs.append(f"{args.host}:{port}")
        print(f"repro worker {i} pid={proc.pid} "
              f"addr={args.host}:{port}", flush=True)
    try:
        for addr in addrs:
            host, _, port = addr.rpartition(":")
            probe = Client(host=host, port=int(port), timeout=5,
                           retries=40, backoff_s=0.25)
            try:
                probe.health()
            except ServiceError as exc:
                print(f"worker {addr} failed to come up: {exc}",
                      file=sys.stderr)
                return 1
            finally:
                probe.close()
        journal = args.journal
        if journal is None and cache is not None:
            journal = cache.root / "gateway-jobs.jsonl"
        gateway = GatewayService(
            host=args.host, port=args.port, workers=addrs,
            cache=cache, tenancy=_load_tenancy(args), journal=journal)
        return gateway.run()
    finally:
        for proc in procs:
            with contextlib.suppress(OSError):
                proc.send_signal(signal_mod.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()


def _cmd_gateway(args) -> int:
    from repro import ArtifactCache, GatewayService

    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    journal = args.journal
    if journal is None and cache is not None:
        journal = cache.root / "gateway-jobs.jsonl"
    gateway = GatewayService(
        host=args.host, port=args.port,
        workers=list(args.worker_addr), cache=cache,
        tenancy=_load_tenancy(args), journal=journal,
        health_interval_s=args.health_interval,
        forward_timeout_s=args.forward_timeout)
    return gateway.run()


def _job_row(status) -> list:
    progress = f"{status.done}/{status.total}"
    return [status.id, status.kind, status.state, progress,
            status.tenant, status.label or "-"]


def _cmd_jobs(args) -> int:
    import dataclasses
    import json
    import time as time_mod

    from repro import Client, ServiceError

    client = Client(host=args.host, port=args.port,
                    timeout=args.request_timeout,
                    tenant=getattr(args, "tenant", None))
    try:
        if args.jobs_cmd == "list":
            statuses = client.jobs(state=args.state)
            if args.json:
                print(json.dumps(
                    [dataclasses.asdict(s) for s in statuses],
                    indent=2, sort_keys=True))
                return 0
            if not statuses:
                print("no jobs")
                return 0
            print(format_table(
                ["id", "kind", "state", "progress", "tenant", "label"],
                [_job_row(s) for s in statuses], title="jobs"))
            return 0
        if args.jobs_cmd == "show":
            status = client.job(args.id, results=args.results)
            print(json.dumps(dataclasses.asdict(status), indent=2,
                             sort_keys=True))
            return 0 if status.state != "failed" else 1
        if args.jobs_cmd == "watch":
            last = None
            while True:
                status = client.job(args.id)
                line = (f"{status.id}: {status.state} "
                        f"{status.done}/{status.total}")
                if line != last:
                    print(line, flush=True)
                    last = line
                if status.terminal:
                    if status.error:
                        print(f"error: {status.error}",
                              file=sys.stderr)
                    return 0 if status.succeeded else 1
                time_mod.sleep(args.poll)
        if args.jobs_cmd == "cancel":
            status = client.cancel(args.id)
            print(f"{status.id}: {status.state}")
            return 0
        print("jobs: choose one of list/show/watch/cancel",
              file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"jobs {args.jobs_cmd} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _submit_spec(args) -> dict:
    spec: dict = {"workload": args.workload, "mode": args.mode,
                  "scale": args.scale, "seed": args.seed,
                  "backend": args.backend}
    if args.geometry is not None:
        spec["geometry"] = list(args.geometry)
    if args.unroll is not None:
        spec["unroll"] = args.unroll
    return spec


def _print_error_diagnostics(body: dict) -> None:
    """Print the diagnostics of a service error envelope to stderr."""
    error = body.get("error")
    for diag in (error.get("diagnostics", [])
                 if isinstance(error, dict) else []):
        print(f"  {diag.get('severity')} {diag.get('code')}: "
              f"{diag.get('message')}", file=sys.stderr)


def _cmd_submit(args) -> int:
    import json

    from repro import Client, ServiceError

    client = Client(host=args.host, port=args.port,
                    timeout=args.request_timeout,
                    retries=args.retries, tenant=args.tenant)
    try:
        if args.health:
            payload = client.health()
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0 if payload.get("ready") else 1
        if args.metrics:
            print(client.metrics_text(), end="")
            return 0
        if args.workload is None:
            print("submit: a workload is required "
                  "(or use --health/--metrics)", file=sys.stderr)
            return 2
        spec = _submit_spec(args)
        if args.lint:
            payload = client.lint(spec)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0 if payload.get("ok") else 1
        if not args.wait:
            handle = client.submit(spec, priority=args.priority,
                                   timeout_s=args.timeout_s,
                                   label=args.label)
            snap = handle.submitted
            if args.json:
                import dataclasses

                print(json.dumps(dataclasses.asdict(snap), indent=2,
                                 sort_keys=True))
            else:
                print(f"job {snap.id} {snap.state} "
                      f"({snap.done}/{snap.total}) — "
                      f"poll with: repro jobs watch {snap.id}")
            return 0
        payload = client.execute(spec, priority=args.priority,
                                 timeout_s=args.timeout_s,
                                 raise_on_error=False)
    except ServiceError as exc:
        body = exc.payload or exc.to_dict()
        if args.json:
            print(json.dumps(body, indent=2, sort_keys=True))
        else:
            print(f"submit failed: {exc}", file=sys.stderr)
            _print_error_diagnostics(body)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if payload.get("ok") else 1
    if not payload.get("ok"):
        error = payload.get("error") or {}
        print(f"{args.workload}: {payload.get('status')} — "
              f"{error.get('message', 'no result')}", file=sys.stderr)
        _print_error_diagnostics(payload)
        return 1
    result = payload.get("result", {})
    stats = result.get("stats", {})
    print(f"{args.workload}/{args.mode}@{args.scale}: "
          f"{payload['status']} in {payload['latency_ms']:.1f}ms — "
          f"{'OK' if result.get('correct') else 'WRONG RESULT'}, "
          f"{stats.get('cycles', '?')} cycles, "
          f"{stats.get('instructions', '?')} instructions")
    return 0 if result.get("correct") else 1


def _cmd_fpga(args) -> int:
    from repro import Fabric, FabricGeometry, utilization_table

    print(utilization_table(Fabric(FabricGeometry(args.width,
                                                  args.height))))
    return 0


def _cmd_fuzz(args) -> int:
    import json
    import pathlib

    from repro import FuzzOptions, iter_corpus, replay_entry, run_fuzz

    if args.replay:
        entries = iter_corpus(args.replay)
        if not entries:
            print(f"no corpus entries under {args.replay}",
                  file=sys.stderr)
            return 1
        failures = 0
        for path in entries:
            finding = replay_entry(path)
            if finding is None:
                print(f"ok   {path.name}")
            else:
                failures += 1
                print(f"FAIL {path.name}  {finding.describe()}")
        print(f"replayed {len(entries)} entries, "
              f"{failures} still failing", file=sys.stderr)
        return 1 if failures else 0

    oracles = tuple(args.oracle) if args.oracle else ("all",)
    if "all" in oracles:
        oracles = ("parity", "batched", "lint", "ir", "perfbound",
                   "chaos", "dsl")
    try:
        options = FuzzOptions(
            seed=args.seed,
            cases=args.cases,
            time_budget_s=args.time_budget,
            oracles=oracles,
            irregularity=args.irregularity,
            shrink=not args.no_shrink,
            corpus_dir=args.corpus_dir,
        )
    except ValueError as exc:
        print(f"repro fuzz: error: {exc}", file=sys.stderr)
        return 2
    report = run_fuzz(options)
    payload = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    if args.report:
        pathlib.Path(args.report).write_text(payload + "\n")
    print(payload)
    print(report.summary(), file=sys.stderr)
    return 0 if report.ok else 1


def _read_kernel_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _print_dsl_report(report, *, as_json: bool) -> None:
    import json

    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    for diag in report.to_dict()["diagnostics"]:
        where = diag.get("location") or "-"
        print(f"  {diag['severity']} {diag['code']} @ {where}: "
              f"{diag['message']}", file=sys.stderr)


def _cmd_kernel_check(args) -> int:
    from repro import check_source

    spec, report = check_source(_read_kernel_source(args.file))
    _print_dsl_report(report, as_json=args.json)
    if spec is None:
        if not args.json:
            print(f"{args.file}: rejected "
                  f"({len(report.errors)} error(s))", file=sys.stderr)
        return 1
    if not args.json:
        print(f"{spec.name}: ok — kernel_hash {spec.kernel_hash} "
              f"(workload {spec.workload_name})")
    return 0


def _cmd_kernel_run(args) -> int:
    from repro import check_source, lower_spec, register_workload

    spec, report = check_source(_read_kernel_source(args.file))
    if spec is None:
        _print_dsl_report(report, as_json=args.json)
        print(f"{args.file}: rejected by DSL validation",
              file=sys.stderr)
        return 1
    workload = lower_spec(spec)
    register_workload(workload, replace=True)
    result = run_workload(RunConfig(
        workload=workload.name, mode=args.mode, scale=args.scale,
        seed=args.seed, backend=args.backend))
    print(f"{spec.name} ({workload.name}) [{args.mode}, {args.scale}]: "
          f"{'OK' if result.correct else 'WRONG RESULT'}")
    print(result.stats.summary())
    if args.mode == "dyser":
        for region in result.compile_result.regions:
            print(f"region {region.loop_header}: {region.reason} "
                  f"(shape={region.shape}, unroll={region.unrolled})")
    return 0 if result.correct else 1


def _cmd_kernel_submit(args) -> int:
    import json

    from repro import Client, ServiceError

    source = _read_kernel_source(args.file)
    client = Client(host=args.host, port=args.port,
                    timeout=args.request_timeout,
                    retries=args.retries, tenant=args.tenant)
    try:
        payload = client.submit_kernel(source)
    except ServiceError as exc:
        body = exc.payload or exc.to_dict()
        if args.json:
            print(json.dumps(body, indent=2, sort_keys=True))
        else:
            print(f"kernel submit failed: {exc}", file=sys.stderr)
            _print_error_diagnostics(body)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    kernel = payload.get("kernel", {})
    verb = "registered" if kernel.get("created") else "already registered"
    print(f"{kernel.get('name')}: {verb} as {kernel.get('workload')} "
          f"(kernel_hash {kernel.get('kernel_hash')})")
    for diag in kernel.get("warnings", []):
        print(f"  {diag.get('severity')} {diag.get('code')}: "
              f"{diag.get('message')}", file=sys.stderr)
    print(f"run it with: repro submit {kernel.get('workload')} "
          f"--host {args.host} --port {args.port}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SPARC-DySER prototype reproduction (ISPASS 2015)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the workload suite") \
        .set_defaults(func=_cmd_list)

    def add_backend_flag(p) -> None:
        p.add_argument("--backend", choices=backend_names(),
                       default=DEFAULT_BACKEND,
                       help="simulation backend (cycle-exact-equal; "
                            f"default: {DEFAULT_BACKEND})")

    run_p = sub.add_parser("run", help="run one workload")
    run_p.add_argument("name", choices=sorted(SUITE))
    run_p.add_argument("--mode", choices=("scalar", "dyser"),
                       default="dyser")
    run_p.add_argument("--scale", default="small",
                       choices=("tiny", "small", "medium"))
    run_p.add_argument("--seed", type=int, default=7)
    add_backend_flag(run_p)
    run_p.set_defaults(func=_cmd_run)

    profile_p = sub.add_parser(
        "profile",
        help="run one workload with tracing on and render the timeline",
        description="Trace one workload through the structured event "
                    "stream, print the cycle-attribution tables, and "
                    "optionally export a Chrome/Perfetto trace, e.g.: "
                    "repro profile mm --scale tiny --export trace.json")
    profile_p.add_argument("name", choices=sorted(SUITE))
    profile_p.add_argument("--mode", choices=("scalar", "dyser"),
                           default="dyser")
    profile_p.add_argument("--scale", default="tiny",
                           choices=("tiny", "small", "medium"))
    profile_p.add_argument("--seed", type=int, default=7)
    profile_p.add_argument("--export", default=None, metavar="PATH",
                           help="write Chrome trace_event JSON here "
                                "(open in chrome://tracing or "
                                "ui.perfetto.dev)")
    profile_p.add_argument("--capacity", type=int, default=1_000_000,
                           help="event ring-buffer capacity")
    profile_p.add_argument("--instructions", action="store_true",
                           help="also record one event per retired "
                                "instruction (large traces)")
    profile_p.add_argument("--limit", type=int, default=40,
                           help="max rows in the per-invocation table")
    add_backend_flag(profile_p)
    profile_p.set_defaults(func=_cmd_profile)

    compile_p = sub.add_parser("compile", help="compile and disassemble")
    group = compile_p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", dest="name", choices=sorted(SUITE))
    group.add_argument("--file", dest="file")
    compile_p.add_argument("--scalar", action="store_true",
                           help="baseline build instead of DySER")
    compile_p.add_argument("--dump-ir", action="store_true")
    compile_p.set_defaults(func=_cmd_compile)

    lint_p = sub.add_parser(
        "lint",
        help="static analysis: IR verifier + configuration linter",
        description="Compile the named workloads and report every "
                    "static finding (stable RPRnnn codes): IR "
                    "verification, DFG/configuration lint, and the "
                    "control-flow shape advisories behind the paper's "
                    "E7 result, e.g.: repro lint mm fir --json")
    lint_p.add_argument("workloads", nargs="*", metavar="workload",
                        help="workloads to lint (default: whole suite)")
    lint_p.add_argument("--mode", choices=("dyser", "scalar"),
                        default="dyser")
    lint_p.add_argument("--geometry", type=_parse_geometry, default=None,
                        metavar="WxH", help="fabric geometry, e.g. 4x4")
    lint_p.add_argument("--json", action="store_true",
                        help="machine-readable diagnostics on stdout")
    lint_p.add_argument("--notes", action="store_true",
                        help="also show note-severity advisories "
                             "(offload decisions)")
    lint_p.add_argument("--perf", action="store_true",
                        help="also run the static performance-bound "
                             "analyzer (RPR4xx): predicted cycles, "
                             "sound lower bound, and per-region "
                             "bottleneck attribution, no simulation")
    lint_p.set_defaults(func=_cmd_lint)

    def add_engine_flags(p) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial, in-process)")
        p.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent artifact cache")
        p.add_argument("--cache-dir", default=None,
                       help="artifact cache root (default: "
                            "$REPRO_CACHE_DIR or .repro-cache/)")
        p.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds (pooled runs)")
        p.add_argument("--retries", type=int, default=1,
                       help="retries per failed/crashed job")
        add_backend_flag(p)

    suite_p = sub.add_parser(
        "suite", help="scalar-vs-DySER sweep (engine-backed)")
    suite_p.add_argument("--scale", default="tiny",
                         choices=("tiny", "small", "medium"))
    suite_p.add_argument("--seed", type=int, default=7)
    add_engine_flags(suite_p)
    suite_p.set_defaults(func=_cmd_suite)

    sweep_p = sub.add_parser(
        "sweep", help="design-space sweep over compiler/fabric knobs",
        description="Cartesian sweep through the parallel engine, e.g.: "
                    "repro sweep saxpy mm --geometry 4x4 8x8 "
                    "--unroll 1 8 --jobs 4 --scale tiny")
    sweep_p.add_argument("workloads", nargs="*", metavar="workload",
                         help="workloads to sweep (default: whole suite)")
    sweep_p.add_argument("--mode", choices=("both", "dyser", "scalar"),
                         default="both")
    sweep_p.add_argument("--scale", default="tiny",
                         choices=("tiny", "small", "medium"))
    sweep_p.add_argument("--seed", type=int, default=7)
    sweep_p.add_argument("--geometry", nargs="+", type=_parse_geometry,
                         metavar="WxH", help="fabric geometries, e.g. 4x4")
    sweep_p.add_argument("--unroll", nargs="+", type=int)
    sweep_p.add_argument("--vectorize", nargs="+", type=int,
                         choices=(0, 1), help="wide port transfers on/off")
    sweep_p.add_argument("--fifo-depth", nargs="+", type=int,
                         help="input port FIFO depth")
    sweep_p.add_argument("--port-width", nargs="+", type=int,
                         help="vector port words per cycle")
    sweep_p.add_argument("--config-cache", nargs="+", type=int,
                         help="configuration cache capacity")
    add_engine_flags(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    cache_p = sub.add_parser(
        "cache", help="inspect/clear/prune the artifact cache",
        description="Without a subcommand, print byte-accounted cache "
                    "stats.  'repro cache prune --max-age-days 7 "
                    "--max-bytes 500M' evicts LRU entries so a "
                    "long-running service node stays bounded.")
    cache_p.add_argument("--cache-dir", default=None)
    cache_p.add_argument("--clear", action="store_true")
    cache_p.set_defaults(func=_cmd_cache)
    cache_sub = cache_p.add_subparsers(dest="cache_cmd")
    prune_p = cache_sub.add_parser(
        "prune", help="evict cache entries (LRU by mtime)")
    prune_p.add_argument("--cache-dir", default=None)
    prune_p.add_argument("--max-age-days", type=float, default=None,
                         help="evict entries older than this many days")
    prune_p.add_argument("--max-bytes", type=_parse_bytes, default=None,
                         metavar="SIZE",
                         help="evict oldest entries until the cache "
                              "fits (accepts 512K/100M/2G suffixes)")
    prune_p.set_defaults(func=_cmd_cache_prune)

    serve_p = sub.add_parser(
        "serve", help="run the simulation service daemon",
        description="Long-lived JSON-over-HTTP daemon over the engine: "
                    "admission control (pre-flight lint, cache dedup, "
                    "request coalescing), a bounded priority queue with "
                    "backpressure, micro-batched execution, /healthz "
                    "and Prometheus /metrics.  SIGTERM drains in-flight "
                    "work before exiting.")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8787,
                         help="TCP port (0 = ephemeral; default 8787)")
    serve_p.add_argument("--queue-limit", type=int, default=64,
                         help="max admitted-but-unanswered jobs before "
                              "backpressure (429) kicks in")
    serve_p.add_argument("--jobs", type=int, default=1,
                         help="engine worker processes per batch")
    serve_p.add_argument("--batch-window-ms", type=float, default=5.0,
                         help="micro-batching window in milliseconds")
    serve_p.add_argument("--batch-max", type=int, default=16,
                         help="max specs per engine submission")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent artifact cache")
    serve_p.add_argument("--cache-dir", default=None)
    serve_p.add_argument("--timeout", type=float, default=None,
                         help="per-job engine timeout (pooled runs)")
    serve_p.add_argument("--retries", type=int, default=1)
    serve_p.add_argument("--trace-export", default=None, metavar="PATH",
                         help="write a Chrome trace of request/job "
                              "lifecycle events here on shutdown")
    serve_p.add_argument("--workers", type=int, default=0,
                         help="spawn N worker shards and serve as a "
                              "sharding gateway in front of them "
                              "(0 = single-node daemon; default)")
    serve_p.add_argument("--journal", default=None, metavar="PATH",
                         help="durable job journal (default: "
                              "<cache>/jobs.jsonl)")
    serve_p.add_argument("--tenancy-config", default=None,
                         metavar="PATH",
                         help="JSON per-tenant quota config "
                              "({'default': {...}, 'tenants': {...}})")
    serve_p.set_defaults(func=_cmd_serve)

    gateway_p = sub.add_parser(
        "gateway", help="shard requests across running workers",
        description="Sharding front end over already-running 'repro "
                    "serve' workers: consistent-hash routing on "
                    "job/sweep hashes, /healthz-driven ring eviction "
                    "and failover, shared artifact-cache fallback, "
                    "per-tenant quotas, and the durable /v2/jobs API.")
    gateway_p.add_argument("--host", default="127.0.0.1")
    gateway_p.add_argument("--port", type=int, default=8787,
                           help="TCP port (0 = ephemeral; default 8787)")
    gateway_p.add_argument("--worker-addr", action="append",
                           required=True, metavar="HOST:PORT",
                           help="worker daemon address; repeatable")
    gateway_p.add_argument("--no-cache", action="store_true",
                           help="no shared artifact-cache fallback")
    gateway_p.add_argument("--cache-dir", default=None)
    gateway_p.add_argument("--journal", default=None, metavar="PATH",
                           help="durable job journal (default: "
                                "<cache>/gateway-jobs.jsonl)")
    gateway_p.add_argument("--tenancy-config", default=None,
                           metavar="PATH",
                           help="JSON per-tenant quota config")
    gateway_p.add_argument("--health-interval", type=float,
                           default=0.5, metavar="S",
                           help="worker health-probe period (seconds)")
    gateway_p.add_argument("--forward-timeout", type=float,
                           default=120.0, metavar="S",
                           help="per-request forward timeout (seconds)")
    gateway_p.set_defaults(func=_cmd_gateway)

    jobs_p = sub.add_parser(
        "jobs", help="inspect durable jobs on a running service",
        description="Client for the /v2/jobs API: repro jobs list; "
                    "repro jobs show <id>; repro jobs watch <id>; "
                    "repro jobs cancel <id>.")
    jobs_sub = jobs_p.add_subparsers(dest="jobs_cmd", required=True)

    def _jobs_common(p) -> None:
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8787)
        p.add_argument("--request-timeout", type=float, default=60.0,
                       help="client-side HTTP timeout in seconds")
        p.add_argument("--tenant", default=None,
                       help="tenant name (X-Repro-Tenant header)")

    jobs_list_p = jobs_sub.add_parser("list", help="list known jobs")
    jobs_list_p.add_argument("--state", default=None,
                             choices=("queued", "running", "succeeded",
                                      "failed", "cancelled"),
                             help="only jobs in this state")
    jobs_list_p.add_argument("--json", action="store_true",
                             help="print raw job status JSON")
    _jobs_common(jobs_list_p)

    jobs_show_p = jobs_sub.add_parser("show", help="show one job")
    jobs_show_p.add_argument("id", help="job id (j-...)")
    jobs_show_p.add_argument("--results", action="store_true",
                             help="include per-spec result payloads")
    _jobs_common(jobs_show_p)

    jobs_watch_p = jobs_sub.add_parser(
        "watch", help="poll a job until it finishes")
    jobs_watch_p.add_argument("id", help="job id (j-...)")
    jobs_watch_p.add_argument("--poll", type=float, default=0.5,
                              metavar="S",
                              help="poll period (default: 0.5s)")
    _jobs_common(jobs_watch_p)

    jobs_cancel_p = jobs_sub.add_parser(
        "cancel", help="cancel a queued or running job")
    jobs_cancel_p.add_argument("id", help="job id (j-...)")
    _jobs_common(jobs_cancel_p)
    jobs_p.set_defaults(func=_cmd_jobs)

    submit_p = sub.add_parser(
        "submit", help="submit one request to a running service",
        description="Client for 'repro serve', e.g.: repro submit mm "
                    "--scale tiny --json; repro submit --health; "
                    "repro submit --metrics.  Retries with backoff "
                    "while the server is starting or sheds load (429).")
    submit_p.add_argument("workload", nargs="?", default=None,
                          help="workload to run (see 'repro list')")
    submit_p.add_argument("--mode", choices=("scalar", "dyser"),
                          default="dyser")
    submit_p.add_argument("--scale", default="small",
                          choices=("tiny", "small", "medium"))
    submit_p.add_argument("--seed", type=int, default=7)
    submit_p.add_argument("--geometry", type=_parse_geometry,
                          default=None, metavar="WxH")
    submit_p.add_argument("--unroll", type=int, default=None)
    add_backend_flag(submit_p)
    submit_p.add_argument("--priority", type=int, default=0,
                          help="queue priority (lower runs first)")
    submit_p.add_argument("--timeout-s", dest="timeout_s", type=float,
                          default=None,
                          help="server-side queue-wait deadline")
    submit_p.add_argument("--host", default="127.0.0.1")
    submit_p.add_argument("--port", type=int, default=8787)
    submit_p.add_argument("--request-timeout", type=float, default=300.0,
                          help="client-side HTTP timeout in seconds")
    submit_p.add_argument("--retries", type=int, default=5,
                          help="client retry budget (connection "
                               "failures, 429, 503)")
    submit_p.add_argument("--lint", action="store_true",
                          help="pre-flight lint only, don't execute")
    submit_p.add_argument("--health", action="store_true",
                          help="print /healthz and exit")
    submit_p.add_argument("--metrics", action="store_true",
                          help="print the Prometheus /metrics dump")
    submit_p.add_argument("--json", action="store_true",
                          help="print the raw response envelope")
    submit_p.add_argument("--wait", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="--wait (default) runs synchronously; "
                               "--no-wait submits a durable /v2 job "
                               "and prints its id")
    submit_p.add_argument("--label", default=None,
                          help="label for --no-wait job submissions")
    submit_p.add_argument("--tenant", default=None,
                          help="tenant name (X-Repro-Tenant header)")
    submit_p.set_defaults(func=_cmd_submit)

    fpga_p = sub.add_parser("fpga", help="FPGA utilization table")
    fpga_p.add_argument("--width", type=int, default=8)
    fpga_p.add_argument("--height", type=int, default=8)
    fpga_p.set_defaults(func=_cmd_fpga)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="differential fuzzing + chaos (JSON findings report)",
        description="Generate seeded random programs against the "
                    "DySER interface contract and cross-examine the "
                    "simulator with differential oracles; findings "
                    "are shrunk and saved as a replayable corpus. "
                    "Exit status 1 when anything was found.")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="campaign seed; any finding reproduces "
                             "from (seed, index) alone (default: 0)")
    fuzz_p.add_argument("--cases", type=int, default=200,
                        help="generated cases (default: 200)")
    fuzz_p.add_argument("--time-budget", type=float, default=None,
                        metavar="S",
                        help="stop generating after S seconds "
                             "(report marked truncated)")
    fuzz_p.add_argument("--oracle", action="append",
                        choices=("parity", "batched", "lint", "ir",
                                 "perfbound", "chaos", "dsl", "all"),
                        help="oracle(s) to run; repeatable "
                             "(default: all)")
    fuzz_p.add_argument("--irregularity", type=float, default=0.35,
                        help="bias toward adversarial shapes, 0..1 "
                             "(default: 0.35)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="skip greedy minimization of findings")
    fuzz_p.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="persist shrunk findings as corpus "
                             "entries under DIR")
    fuzz_p.add_argument("--replay", default=None, metavar="DIR",
                        help="replay corpus entries under DIR instead "
                             "of generating (e.g. tests/corpus/)")
    fuzz_p.add_argument("--report", default=None, metavar="PATH",
                        help="also write the JSON report to PATH")
    fuzz_p.set_defaults(func=_cmd_fuzz)

    kernel_p = sub.add_parser(
        "kernel",
        help="validate, run, or submit a DSL kernel (repro.lang)",
        description="Work with kernels written in the repro.lang DSL: "
                    "'check' validates a source file and prints the "
                    "RPR5xx diagnostics, 'run' registers it locally "
                    "and simulates it, 'submit' registers it with a "
                    "running service (POST /v2/kernels).")
    kernel_sub = kernel_p.add_subparsers(dest="kernel_command",
                                         required=True)

    kcheck_p = kernel_sub.add_parser(
        "check", help="validate a kernel source file")
    kcheck_p.add_argument("file", help="DSL source path ('-' for stdin)")
    kcheck_p.add_argument("--json", action="store_true",
                          help="print the full diagnostic report")
    kcheck_p.set_defaults(func=_cmd_kernel_check)

    krun_p = kernel_sub.add_parser(
        "run", help="validate, register, and simulate a kernel locally")
    krun_p.add_argument("file", help="DSL source path ('-' for stdin)")
    krun_p.add_argument("--mode", choices=("scalar", "dyser"),
                        default="dyser")
    krun_p.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"))
    krun_p.add_argument("--seed", type=int, default=7)
    krun_p.add_argument("--json", action="store_true",
                        help="print rejection diagnostics as JSON")
    add_backend_flag(krun_p)
    krun_p.set_defaults(func=_cmd_kernel_run)

    ksubmit_p = kernel_sub.add_parser(
        "submit", help="register a kernel with a running service")
    ksubmit_p.add_argument("file", help="DSL source path ('-' for stdin)")
    ksubmit_p.add_argument("--host", default="127.0.0.1")
    ksubmit_p.add_argument("--port", type=int, default=8787)
    ksubmit_p.add_argument("--request-timeout", type=float,
                           default=300.0,
                           help="client-side HTTP timeout in seconds")
    ksubmit_p.add_argument("--retries", type=int, default=5,
                           help="client retry budget (connection "
                                "failures, 429, 503)")
    ksubmit_p.add_argument("--tenant", default=None,
                           help="tenant name (X-Repro-Tenant header)")
    ksubmit_p.add_argument("--json", action="store_true",
                           help="print the raw response envelope")
    ksubmit_p.set_defaults(func=_cmd_kernel_submit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
