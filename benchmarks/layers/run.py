"""Layer-by-layer benchmark of the repro stack (see README.md).

    python3 benchmarks/layers/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json OUT]
        [--smoke]

Each workload runs in fresh Python processes (``workloads.py``), one at
a time: set-up alone twice more, so ``setup_s`` is a median of three,
then one measured run.  ``--trace 1`` instead runs the workload
untraced and then again under the benchmark's tracer, and reports the
per-layer metrics with the tracing overhead between the two.

Every metric is printed as ``name unit value``; timings are in
reference-host time (``workloads.HostClock``), and their wall-clock
values are printed as ``wall.<name>``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when any operation
failed or any output was wrong, and 2 when the repro sources are
missing.

Metric names, units and directions come from ``BENCHMARK.json`` at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Set-ups per workload whose median is ``setup_s``.
SETUP_RUNS = 3
#: Wall-clock budget of one workload, inside the 180 s a run may take.
BUDGET_S = 170.0

_SEQ = itertools.count()


class ChildFailed(RuntimeError):
    """A workload process crashed, timed out or left no result."""


def run_child(name: str, args, deadline: float, *, trace: bool = False,
              setup_only: bool = False, trace_path=None) -> dict:
    """One fresh workload process; returns its outcome dict.

    The child leads its own process group, so anything it started (the
    service daemon) is killed with it if it dies or overruns.
    """
    work = HERE / "out" / "work" / f"{name}-{os.getpid()}-{next(_SEQ)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    options = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": trace, "setup_only": setup_only,
        "work": str(work), "result": str(result),
        "trace_path": str(trace_path) if trace_path else None,
    }
    # One malloc arena: otherwise every executor thread the service
    # daemon happens to start adds an arena, and its peak memory follows
    # thread timing (8 MB a thread) rather than the code.
    env = dict(os.environ, TMPDIR=str(work), MALLOC_ARENA_MAX="1",
               REPRO_CACHE_DIR=str(work / "repro-cache"),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"),
                               os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), json.dumps(options)],
        env=env, stdout=sys.stderr, start_new_session=True)
    code = None
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    try:
        if code != 0 or not result.exists():
            raise ChildFailed(f"{name}: workload process "
                              f"{'timed out' if code is None else 'exited'}"
                              f" {'' if code is None else code}".rstrip())
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_spec() -> dict:
    """The benchmark definition at the root of the checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _layer_value(name: str, traced: dict, overhead: float) -> float:
    if name == "trace_overhead":
        return overhead
    if name == "engine.cache.bytes":
        return traced["cache_bytes"]
    for source in (traced["layer_metrics"], traced["exact"],
                   traced["service"]):
        if name in source:
            return source[name]
    if name.startswith("service."):
        return 0.0   # the service layer runs only in service-mixed
    raise KeyError(f"per-layer metric {name!r} is not measured")


def measure(spec: dict, name: str, args) -> dict:
    """All runs of one workload, folded into one record."""
    deadline = time.monotonic() + BUDGET_S
    traced = None
    if args.trace:
        plain = run_child(name, args, deadline)
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        traced = run_child(name, args, deadline, trace=True,
                           trace_path=args.trace_dir / f"{name}.json")
        setups = [plain["setup_s"]]
    else:
        setups = [] if args.smoke else [
            run_child(name, args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_RUNS - 1)]
        plain = run_child(name, args, deadline)
        setups.append(plain["setup_s"])
    metrics = dict(plain["metrics"], setup_s=statistics.median(setups))
    errors = list(plain["errors"])
    attempted, failed = plain["attempted"], plain["failed"]
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": int(args.trace),
        "metrics": metrics, "setup_runs": setups,
        "wall_metrics": plain["wall_metrics"],
        "exact": plain["exact"], "results_sha256": plain["results_sha256"],
        "rounds": plain["rounds"], "ops": plain["ops"],
        "round_stats": plain["round_stats"], "phase_s": plain["phase_s"],
        "busy_s": plain["busy_s"], "service": plain["service"],
        "host_probe_s": plain["host_probe_s"],
    }
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        errors += traced["errors"]
        if (traced["exact"], traced["results_sha256"]) != \
                (plain["exact"], plain["results_sha256"]):
            failed += 1
            errors.append(f"{name}: tracing changed the results")
        overhead = (plain["metrics"]["ops_per_s"]
                    / traced["metrics"]["ops_per_s"])
        record.update({
            "per_layer": {m["name"]: _layer_value(m["name"], traced,
                                                  overhead)
                          for m in spec["per_layer"]},
            "layers": traced["layers"], "violations": traced["violations"],
            "fired": traced["fired"], "traced_exact": traced["exact"],
            "traced_results_sha256": traced["results_sha256"],
            "phase_coverage": traced["layer_metrics"]["phase_coverage"],
            "schedule_share": traced["layer_metrics"]["schedule_share"],
            "traced_phase_s": traced["phase_s"],
        })
    record.update(attempted=attempted, failed=failed, errors=errors[:20],
                  correct=failed == 0)
    return record


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def report(spec: dict, record: dict) -> None:
    """Human-readable lines: every metric as ``name unit value``."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['rounds']} rounds, {record['ops']} ops in "
          f"{record['busy_s']:.2f} s of a {record['phase_s']:.2f} s phase)")
    for m in spec["end_to_end"]:
        print(f"{m['name']} {m['unit']} {_fmt(record['metrics'][m['name']])}")
    for key, value in record["wall_metrics"].items():
        print(f"wall.{key} {units[key]} {_fmt(value)}")
    print(f"attempted count {record['attempted']}")
    print(f"failed count {record['failed']}")
    print(f"failed_share ratio {record['failed'] / record['attempted']!r}")
    low, median, high = record["host_probe_s"]
    print(f"host_probe_s s {low!r} {median!r} {high!r}")
    for key, value in record["service"].items():
        print(f"{key} {units[key]} {_fmt(value)}")
    for key, value in record["exact"].items():
        print(f"{key} count {value}")
    print(f"results_sha256 sha256 {record['results_sha256']}")
    for error in record["errors"]:
        print(f"error: {error}")
    if "per_layer" not in record:
        return
    print("layer self times (traced run, set-up and checks included):")
    rows = sorted(record["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for span, row in rows:
        print(f"  {span:28s} n={row['n']:<7d} self {row['self_s']:10.4f} s"
              f"  total {row['total_s']:10.4f} s")
    print(f"phase_coverage ratio {record['phase_coverage']!r}")
    print(f"schedule_share ratio {record['schedule_share']!r}")
    for m in spec["per_layer"]:
        print(f"{m['name']} {m['unit']} "
              f"{_fmt(record['per_layer'][m['name']])}")


def _terminated(signum, _frame):
    # As an exception, so that run_child's cleanup kills the workload's
    # process group on this path out too.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=pathlib.Path,
                        default=HERE / "out" / "traces",
                        help="where --trace 1 writes <workload>.json "
                             "Perfetto traces")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="append one JSON record per workload here "
                             "(input of compare.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and fixed round counts "
                             "(the self-test size)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    records = []
    for name in args.workload or names:
        try:
            record = measure(spec, name, args)
        except ChildFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        report(spec, record)
        records.append(record)
        if args.json is not None:
            with args.json.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = {}
    for record in records:
        source = record["per_layer"] if args.trace else record["metrics"]
        for m in declared:
            key = (m["name"] if len(records) == 1
                   else f"{record['workload']}/{m['name']}")
            values[key] = {"value": source[m["name"]], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": values,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
