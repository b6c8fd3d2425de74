"""Simulator speed: solo runs on the default backend vs the reference core.

Two entry points:

- ``pytest benchmarks/bench_sim_speed.py --benchmark-only`` measures the
  suite on both backends and archives the table under ``results/``;
- ``python benchmarks/bench_sim_speed.py`` runs the same measurement
  from the command line and appends a machine-readable entry to
  ``BENCH_sim_speed.json`` (the committed history of the speedup
  acceptance criterion); ``--batched`` measures the batched lockstep
  backend on a timing-knob sweep instead (reference vs solo vs
  batched, recorded under ``batched_entries`` and gated at
  :data:`BATCHED_MIN_SPEEDUP` by :func:`validate_batched_gate`);
  ``--check`` runs the differential parity harnesses instead — solo
  and batched — with no timing (CI's bench-smoke gate).

Solo runs go to the default backend (``repro.DEFAULT_BACKEND``, where a
solo run is a lane of one).  Entries keep the ``fast_s`` key for that time: entries
recorded before solo runs moved there timed the fast core, which has
since been removed.

Methodology: every (workload, mode) config is executed once per backend
after a compile warm-up pass, so the numbers compare *simulation* time,
not compilation.  Parity is asserted on the exact configs measured —
a timing table for a backend that disagrees with the oracle would be
meaningless.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_sim_speed.json"

#: Serialization format tag for the benchmark history file.
BENCH_FORMAT = "repro-bench-sim-speed-v1"

#: CI smoke pair: one regular kernel, one with control flow.
SMOKE_WORKLOADS = ("mm", "fir")

#: The batched-sweep measurement: per workload, a lane of timing-knob
#: points (FIFO depth x initiation interval x vector port rate) — the
#: shape ``repro sweep --backend batched`` produces, and exactly what
#: the lockstep backend exists to accelerate.
BATCH_WORKLOADS = ("mm", "fir", "conv2d", "spmv")
BATCH_DEPTHS = (2, 4, 8)
BATCH_INTERVALS = (1, 2)
BATCH_RATES = (1, 2, 4)

#: Acceptance floor for the committed batched entry (vs reference).
BATCHED_MIN_SPEEDUP = 10.0


def _configs(workloads, scale):
    from repro.harness import RunConfig

    return [RunConfig(workload=w, mode=m, scale=scale)
            for w in workloads for m in ("scalar", "dyser")]


def _batched_configs(workloads, scale):
    from repro.cpu import CoreConfig
    from repro.dyser import DyserTimingParams
    from repro.harness import RunConfig

    return [
        RunConfig(
            workload=w, mode="dyser", scale=scale, backend="batched",
            timing=DyserTimingParams(input_fifo_depth=depth,
                                     output_fifo_depth=depth,
                                     initiation_interval=interval),
            core_config=CoreConfig(vector_port_words_per_cycle=rate),
        )
        for w in workloads
        for depth in BATCH_DEPTHS
        for interval in BATCH_INTERVALS
        for rate in BATCH_RATES
    ]


def _time_backend(configs, backend: str) -> float:
    from repro.harness import run_workload

    started = time.perf_counter()
    for config in configs:
        result = run_workload(config.with_(backend=backend))
        assert result.correct, config.describe()
    return time.perf_counter() - started


def measure(workloads=None, scale: str = "small") -> dict:
    """One benchmark entry: parity check + wall time per backend."""
    from repro import DEFAULT_BACKEND
    from repro.harness import verify_parity
    from repro.workloads import names

    workloads = tuple(workloads or names())
    configs = _configs(workloads, scale)

    report = verify_parity(configs)
    if not report.ok:
        raise AssertionError(report.summary())

    # Warm the compile cache so both timings measure simulation only.
    _time_backend(_configs(workloads, "tiny"), DEFAULT_BACKEND)

    reference_s = _time_backend(configs, "reference")
    fast_s = _time_backend(configs, DEFAULT_BACKEND)
    return {
        "date": _dt.date.today().isoformat(),
        "scale": scale,
        "workloads": len(workloads),
        "runs": len(configs),
        "parity_checked": report.checked,
        "reference_s": round(reference_s, 3),
        "fast_s": round(fast_s, 3),
        "speedup": round(reference_s / fast_s, 2),
        "python": platform.python_version(),
    }


def measure_batched(workloads=None, scale: str = "small") -> dict:
    """One batched-sweep entry: the same config grid through all three
    backends, with every batched payload asserted byte-identical to
    its solo reference run before any timing is trusted."""
    from repro import DEFAULT_BACKEND
    from repro.harness import run_workload
    from repro.harness.batch import execute_batch

    workloads = tuple(workloads or BATCH_WORKLOADS)
    configs = _batched_configs(workloads, scale)

    # Warm the compile cache so the timings measure simulation only.
    for config in _batched_configs(workloads, "tiny"):
        run_workload(config.with_(backend=DEFAULT_BACKEND))

    def timed_solo(backend):
        started = time.perf_counter()
        results = [run_workload(c.with_(backend=backend)) for c in configs]
        return time.perf_counter() - started, results

    reference_s, reference = timed_solo("reference")
    fast_s, _ = timed_solo(DEFAULT_BACKEND)
    started = time.perf_counter()
    outcomes = execute_batch(configs)
    batched_s = time.perf_counter() - started

    for config, ref, outcome in zip(configs, reference, outcomes):
        assert outcome.result is not None, config.describe()
        assert outcome.result.to_dict() == ref.to_dict(), (
            f"batched diverges from reference: {config.describe()}")

    return {
        "date": _dt.date.today().isoformat(),
        "scale": scale,
        "workloads": len(workloads),
        "runs": len(configs),
        "parity_checked": len(configs),
        "reference_s": round(reference_s, 3),
        "fast_s": round(fast_s, 3),
        "batched_s": round(batched_s, 3),
        "speedup_vs_reference": round(reference_s / batched_s, 2),
        "speedup_vs_fast": round(fast_s / batched_s, 2),
        "python": platform.python_version(),
    }


def validate(document: dict) -> None:
    """Schema check for a BENCH_sim_speed.json document."""
    assert document.get("format") == BENCH_FORMAT, document.get("format")
    entries = document["entries"]
    assert entries, "no benchmark entries"
    for entry in entries:
        for key in ("date", "scale", "workloads", "runs",
                    "parity_checked", "reference_s", "fast_s", "speedup"):
            assert key in entry, f"entry missing {key!r}: {entry}"
        assert entry["fast_s"] > 0 and entry["reference_s"] > 0
        assert entry["parity_checked"] == entry["runs"]
        assert entry["speedup"] > 1.0, (
            f"solo runs slower than reference: {entry}")
    for entry in document.get("batched_entries", ()):
        for key in ("date", "scale", "workloads", "runs",
                    "parity_checked", "reference_s", "fast_s",
                    "batched_s", "speedup_vs_reference",
                    "speedup_vs_fast"):
            assert key in entry, f"batched entry missing {key!r}: {entry}"
        assert entry["batched_s"] > 0
        assert entry["parity_checked"] == entry["runs"]
        assert entry["speedup_vs_reference"] > 1.0, (
            f"batched backend slower than reference: {entry}")


def validate_batched_gate(document: dict,
                          minimum: float = BATCHED_MIN_SPEEDUP) -> None:
    """The committed-history acceptance gate: a batched-sweep entry
    must exist and hold the >=10x speedup over the reference core."""
    validate(document)
    entries = document.get("batched_entries")
    assert entries, "no batched-sweep entry in the committed history"
    latest = entries[-1]
    assert latest["speedup_vs_reference"] >= minimum, (
        f"batched sweep speedup {latest['speedup_vs_reference']}x "
        f"is below the {minimum}x acceptance floor: {latest}")


def _render(entry: dict) -> str:
    from repro.harness import format_table

    rows = [
        ["reference", f"{entry['reference_s']:.3f}", "1.00x"],
        ["solo", f"{entry['fast_s']:.3f}", f"{entry['speedup']:.2f}x"],
    ]
    return format_table(
        ["backend", "wall s", "speedup"], rows,
        title=(f"simulator speed @ {entry['scale']} "
               f"({entry['runs']} runs, parity-checked)"))


def _render_batched(entry: dict) -> str:
    from repro.harness import format_table

    rows = [
        ["reference", f"{entry['reference_s']:.3f}", "1.00x"],
        ["solo", f"{entry['fast_s']:.3f}",
         f"{entry['reference_s'] / entry['fast_s']:.2f}x"],
        ["batched", f"{entry['batched_s']:.3f}",
         f"{entry['speedup_vs_reference']:.2f}x"],
    ]
    return format_table(
        ["backend", "wall s", "speedup"], rows,
        title=(f"batched sweep @ {entry['scale']} "
               f"({entry['runs']} points, parity-checked)"))


def test_sim_speed(benchmark):
    """E-series style wrapper: measure once, archive the table."""
    from common import emit, once

    entry = once(benchmark, lambda: measure(scale="small"))
    emit("SIM_SPEED: solo runs vs reference", _render(entry))
    assert entry["speedup"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", nargs="*",
                        help="workloads to measure (default: whole suite)")
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"))
    parser.add_argument("--check", action="store_true",
                        help="run the parity harnesses only (no "
                             "timing): solo-vs-reference plus a "
                             "batched sweep; defaults to the CI smoke "
                             "pair")
    parser.add_argument("--batched", action="store_true",
                        help="measure the batched-sweep entry instead "
                             "of the solo backend comparison")
    parser.add_argument("--output", default=str(BENCH_PATH),
                        help="benchmark history JSON to append to")
    args = parser.parse_args(argv)

    if args.check:
        from repro.harness import verify_batch_parity, verify_parity

        workloads = tuple(args.workloads) or SMOKE_WORKLOADS
        report = verify_parity(_configs(workloads, args.scale))
        print(report.summary())
        batch_report = verify_batch_parity(
            _batched_configs(workloads, args.scale))
        print(batch_report.summary())
        return 0 if report.ok and batch_report.ok else 1

    if args.batched:
        entry = measure_batched(args.workloads or None,
                                scale=args.scale)
        print(_render_batched(entry))
    else:
        entry = measure(args.workloads or None, scale=args.scale)
        print(_render(entry))

    path = pathlib.Path(args.output)
    if path.exists():
        document = json.loads(path.read_text())
        validate(document)
    else:
        document = {"format": BENCH_FORMAT, "entries": []}
    key = "batched_entries" if args.batched else "entries"
    document.setdefault(key, []).append(entry)
    validate(document)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nrecorded in {path}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
