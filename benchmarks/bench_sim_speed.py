"""Simulator speed: solo runs on the default backend vs the reference core.

Two entry points:

- ``pytest benchmarks/bench_sim_speed.py --benchmark-only`` measures the
  suite on both backends and archives the table under ``results/``;
- ``python benchmarks/bench_sim_speed.py`` runs the same measurement
  from the command line and appends a machine-readable entry to
  ``BENCH_sim_speed.json`` (the committed history of the speedup
  acceptance criterion); ``--batched`` measures the batched lockstep
  backend on a timing-knob sweep instead (reference vs solo vs
  batched, recorded under ``batched_entries``; the lane must beat solo
  runs of the same points, and the committed history is gated at
  :data:`BATCHED_MIN_SPEEDUP_VS_SOLO` by :func:`validate_batched_gate`);
  ``--check`` runs the differential parity harnesses instead — solo
  and batched — with no timing (CI's bench-smoke gate).  It prints how
  many blocks ran as fused functions (:func:`repro.cpu.
  fused_block_count`) and fails when none did, so the smoke covers the
  fused code as well as the per-instruction handlers.

Solo runs go to the default backend (``repro.DEFAULT_BACKEND``, where a
solo run is a lane of one).  Entries keep the ``fast_s`` key for that time: entries
recorded before solo runs moved there timed the fast core, which has
since been removed.

Methodology: every (workload, mode) config is executed once per pass
and backend after a compile warm-up pass, so the numbers compare
*simulation* time, not compilation; each backend's time is the median of
:data:`PASSES` passes (entries recorded before that are single passes,
which spread by about 8% on one host).  Parity is asserted on the exact
configs measured — a timing table for a backend that disagrees with the
oracle would be meaningless.  Entries also record ``dyser_fires``, the
DySER invocations of the solo dyser-mode runs, and ``solo_ns_per_fire``,
the wall time of those runs divided by their fires (whole runs, not the
fabric alone), and ``solo_ns_per_insn``, the solo wall time divided by
the simulated instructions; entries recorded before these keys existed
lack them.
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

#: CI smoke set: one regular kernel, one with control flow, and the
#: other send-heavy wide-port kernel next to mm.
SMOKE_WORKLOADS = ("mm", "fir", "nbody")

#: The batched-sweep measurement: per workload, a lane of timing-knob
#: points (FIFO depth x initiation interval x vector port rate) — the
#: shape ``repro sweep --backend batched`` produces, and exactly what
#: the lockstep backend exists to accelerate.
BATCH_WORKLOADS = ("mm", "fir", "conv2d", "spmv")
BATCH_DEPTHS = (2, 4, 8)
BATCH_INTERVALS = (1, 2)
BATCH_RATES = (1, 2, 4)

#: Acceptance floor for the committed batched entry: batched lanes
#: against solo runs of the same points in the same process
#: (``speedup_vs_fast``), the comparison the lockstep backend exists
#: for.  A ratio of two backends timed together tracks the code, where
#: a ratio against the reference core also moves whenever the
#: reference core gets faster.
BATCHED_MIN_SPEEDUP_VS_SOLO = 3.0

#: Timed passes per backend; an entry records the median.
PASSES = 3


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


def _solo_pass(configs, backend: str) -> tuple[float, int, int]:
    """Run ``configs`` once: the wall seconds of the dyser-mode runs,
    their DySER fires, and the simulated instructions of every run."""
    from repro.harness import run_workload

    fires, dyser_s, insns = 0, 0.0, 0
    for config in configs:
        run_started = time.perf_counter()
        result = run_workload(config.with_(backend=backend))
        assert result.correct, config.describe()
        insns += result.stats.instructions
        if config.mode == "dyser":
            dyser_s += time.perf_counter() - run_started
            fires += result.stats.dyser_invocations
    return dyser_s, fires, insns


def _median_pass(run) -> tuple[float, object]:
    """Call ``run()`` :data:`PASSES` times; the wall seconds and the
    outcome of the median pass by wall time."""
    passes = []
    for _ in range(PASSES):
        started = time.perf_counter()
        outcome = run()
        passes.append((time.perf_counter() - started, outcome))
    passes.sort(key=lambda p: p[0])
    return passes[len(passes) // 2]


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
    _solo_pass(_configs(workloads, "tiny"), DEFAULT_BACKEND)

    reference_s, _ = _median_pass(lambda: _solo_pass(configs, "reference"))
    fast_s, (dyser_s, fires, insns) = _median_pass(
        lambda: _solo_pass(configs, DEFAULT_BACKEND))
    return {
        "date": _dt.date.today().isoformat(),
        "scale": scale,
        "workloads": len(workloads),
        "runs": len(configs),
        "parity_checked": report.checked,
        "reference_s": round(reference_s, 3),
        "fast_s": round(fast_s, 3),
        "speedup": round(reference_s / fast_s, 2),
        "dyser_fires": fires,
        "solo_ns_per_fire": round(dyser_s * 1e9 / max(fires, 1)),
        "instructions": insns,
        "solo_ns_per_insn": round(fast_s * 1e9 / max(insns, 1), 1),
        "passes": PASSES,
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

    def solo(backend):
        return lambda: [run_workload(c.with_(backend=backend))
                        for c in configs]

    reference_s, reference = _median_pass(solo("reference"))
    fast_s, _ = _median_pass(solo(DEFAULT_BACKEND))
    batched_s, outcomes = _median_pass(lambda: execute_batch(configs))

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
        "passes": PASSES,
        "python": platform.python_version(),
    }


def validate(document: dict) -> None:
    """Schema check for a BENCH_sim_speed.json document: solo entries,
    batched-sweep entries, or both."""
    assert document.get("format") == BENCH_FORMAT, document.get("format")
    entries = document.get("entries", [])
    assert entries or document.get("batched_entries"), \
        "no benchmark entries"
    for entry in entries:
        for key in ("date", "scale", "workloads", "runs",
                    "parity_checked", "reference_s", "fast_s", "speedup"):
            assert key in entry, f"entry missing {key!r}: {entry}"
        assert entry["fast_s"] > 0 and entry["reference_s"] > 0
        assert entry["parity_checked"] == entry["runs"]
        assert entry["speedup"] > 1.0, (
            f"solo runs slower than reference: {entry}")
        # Entries before fires were counted carry neither key.
        if "dyser_fires" in entry:
            assert entry["dyser_fires"] >= 0
            assert entry["solo_ns_per_fire"] >= 0
        # Entries before median-of-passes timing carry none of these.
        if "solo_ns_per_insn" in entry:
            assert entry["instructions"] > 0
            assert entry["solo_ns_per_insn"] > 0
            assert entry["passes"] >= 1
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
        assert entry["speedup_vs_fast"] > 1.0, (
            f"batched sweep slower than solo runs: {entry}")


def validate_batched_gate(document: dict,
                          minimum: float = BATCHED_MIN_SPEEDUP_VS_SOLO
                          ) -> None:
    """The committed-history acceptance gate: a batched-sweep entry
    must exist, and its lanes must beat solo runs of the same points by
    at least ``minimum``."""
    validate(document)
    entries = document.get("batched_entries")
    assert entries, "no batched-sweep entry in the committed history"
    latest = entries[-1]
    assert latest["speedup_vs_fast"] >= minimum, (
        f"batched sweep speedup over solo {latest['speedup_vs_fast']}x "
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
               f"({entry['runs']} runs, parity-checked)")) + (
        f"\nsolo dyser-mode runs: {entry['dyser_fires']} DySER fires, "
        f"{entry['solo_ns_per_fire']} host ns per fire"
        f"\nsolo runs: {entry['instructions']} instructions, "
        f"{entry['solo_ns_per_insn']} host ns per instruction "
        f"(median of {entry['passes']} passes)")


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
               f"({entry['runs']} points, parity-checked)")) + (
        f"\nbatched vs solo: {entry['speedup_vs_fast']:.2f}x")


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
                             "set")
    parser.add_argument("--batched", action="store_true",
                        help="measure the batched-sweep entry instead "
                             "of the solo backend comparison")
    parser.add_argument("--output", default=str(BENCH_PATH),
                        help="benchmark history JSON to append to")
    args = parser.parse_args(argv)

    if args.check:
        from repro.cpu import fused_block_count
        from repro.harness import verify_batch_parity, verify_parity

        workloads = tuple(args.workloads) or SMOKE_WORKLOADS
        report = verify_parity(_configs(workloads, args.scale))
        print(report.summary())
        batch_report = verify_batch_parity(
            _batched_configs(workloads, args.scale))
        print(batch_report.summary())
        fused = fused_block_count()
        print(f"fused blocks: {fused}"
              + ("" if fused else " (the smoke never reached fused code)"))
        return 0 if report.ok and batch_report.ok and fused else 1

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
        document = {"format": BENCH_FORMAT}
    key = "batched_entries" if args.batched else "entries"
    document.setdefault(key, []).append(entry)
    validate(document)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nrecorded in {path}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.exit(main())
