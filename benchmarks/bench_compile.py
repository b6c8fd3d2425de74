"""Cold DySER compile time of the suite: placement, routing and failed
region attempts.

    PYTHONPATH=src python benchmarks/bench_compile.py --passes 5
    PYTHONPATH=src python benchmarks/bench_compile.py --passes 1 --check

Each pass compiles every shipped suite kernel in dyser mode at default
``CompilerOptions`` (8x8 fabric), cold: ``compile_dyser`` is called
directly, past the harness compile memo.  The scheduler's ``_place``
and ``_route`` run under wall-clock timers, so a pass reports the time
spent placing (refinement included), routing (the cut check included)
and compiling in total.  Each region attempt (one rung of the unroll
ladder, ``region._attempt``) is counted and timed too: ``attempts``,
``failed`` and ``failed_s``, the wall time of the failed ones;
``place_calls`` counts the calls of ``_place``.  ``congestion_s`` is
the wall time of the ``_route`` calls that fail with ``RPR217``
(negotiations abandoned as stalled or out of rounds), which
``failed_s`` misses when a re-placement of the same attempt routes;
``searches`` counts the router's tree searches
(``_grow_tree_negotiated`` calls), a deterministic count.  The entry
records the median of each over the passes and is appended to
``BENCH_compile.json``, the committed history.

``--check`` writes nothing.  It recomputes the schedule digest of every
case in ``GOLDEN_DIGESTS`` (``tests/test_schedule.py``): the 8x8 ones
from the first timed pass, the non-square ones from one more compile
each.  It prints the attempt and search counts and the congestion
time, and exits 1 when any digest
differs or when an attempt that a check reading no placement rejected
(``PLACEMENT_FREE_CODES``) called ``_place``.  Wall time is never
gated: it is recorded, and only the deterministic digests and counts
decide the exit status.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import pathlib
import platform
import statistics
import sys
import time
from collections import defaultdict

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_compile.json"

#: Serialization format tag for the benchmark history file.
BENCH_FORMAT = "repro-bench-compile-v1"

sys.path.insert(0, str(REPO_ROOT / "tests"))

from test_schedule import (  # noqa: E402
    GOLDEN_DIGESTS, PLACEMENT_FREE_CODES, golden_cases, schedule_digest)

from repro.compiler import CompilerOptions, compile_dyser  # noqa: E402
from repro.compiler import region  # noqa: E402
from repro.compiler import schedule as sched  # noqa: E402
from repro.dyser import Fabric, FabricGeometry  # noqa: E402
from repro.errors import CompilerError, SchedulingError  # noqa: E402
from repro.workloads import SUITE  # noqa: E402


def _timed(fn, totals: dict[str, float], key: str):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        totals["calls:" + key] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - start
    return wrapper


def _congestion_timed(route, totals: dict[str, float]):
    """``_route`` that adds the wall time of its ``RPR217`` failures to
    ``congestion_s``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return route(*args, **kwargs)
        except SchedulingError as exc:
            if exc.code == "RPR217":
                totals["congestion_s"] += time.perf_counter() - start
            raise
    return wrapper


def _counted(fn, totals: dict[str, float], key: str):
    def wrapper(*args):
        totals[key] += 1
        return fn(*args)
    return wrapper


def _counted_attempt(attempt, totals: dict[str, float],
                     misplaced: list[str]):
    """``region._attempt`` that counts attempts and times failures.

    A failure with a code in ``PLACEMENT_FREE_CODES`` that called
    ``_place`` is appended to ``misplaced``.
    """
    def wrapper(work, header, options, config_id, factor):
        start = time.perf_counter()
        placed = totals["calls:place_s"]
        totals["attempts"] += 1
        try:
            return attempt(work, header, options, config_id, factor)
        except CompilerError as exc:
            totals["failed"] += 1
            totals["failed_s"] += time.perf_counter() - start
            if exc.code in PLACEMENT_FREE_CODES \
                    and totals["calls:place_s"] > placed:
                misplaced.append(f"{work.name} {header} unroll {factor}: "
                                 f"{exc.code} {exc}")
            raise
    return wrapper


def _compile(name: str, width: int = 8, height: int = 8):
    options = CompilerOptions(fabric=Fabric(FabricGeometry(width, height)))
    return compile_dyser(SUITE[name].source, options)


def measure(passes: int
            ) -> tuple[dict, dict[tuple[str, int, int], str], list[str]]:
    """``(entry, digests, misplaced)``: medians over ``passes`` cold
    passes, the schedule digest of every kernel from the first pass,
    and every placement-free rejection that placed (each pass)."""
    kernels = sorted({name for name, _, _ in golden_cases()})
    place, route, attempt = sched._place, sched._route, region._attempt
    search = sched._grow_tree_negotiated
    per_pass: list[dict[str, float]] = []
    digests: dict[tuple[str, int, int], str] = {}
    misplaced: list[str] = []
    try:
        for _ in range(passes):
            totals: dict[str, float] = defaultdict(float)
            sched._place = _timed(place, totals, "place_s")
            sched._route = _timed(_congestion_timed(route, totals), totals,
                                  "route_s")
            sched._grow_tree_negotiated = _counted(search, totals,
                                                   "searches")
            region._attempt = _counted_attempt(attempt, totals, misplaced)
            start = time.perf_counter()
            for name in kernels:
                result = _compile(name)
                digests.setdefault((name, 8, 8), schedule_digest(result))
            totals["total_s"] = time.perf_counter() - start
            per_pass.append(totals)
    finally:
        sched._place, sched._route = place, route
        sched._grow_tree_negotiated = search
        region._attempt = attempt
    entry = {
        "date": _dt.date.today().isoformat(),
        "python": platform.python_version(),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "kernels": len(kernels),
        "passes": passes,
    }
    for key in ("place_s", "route_s", "total_s", "failed_s",
                "congestion_s"):
        entry[key] = round(statistics.median(p[key] for p in per_pass), 3)
    for key, counter in (("attempts", "attempts"), ("failed", "failed"),
                         ("place_calls", "calls:place_s"),
                         ("searches", "searches")):
        entry[key] = int(statistics.median(p[counter] for p in per_pass))
    return entry, digests, misplaced


def check(digests: dict[tuple[str, int, int], str]) -> list[str]:
    """Every golden case whose digest differs, as printable lines."""
    bad = []
    for case in golden_cases():
        digest = digests.get(case) or schedule_digest(_compile(*case))
        if digest != GOLDEN_DIGESTS[case]:
            bad.append(f"{case}: {digest} != {GOLDEN_DIGESTS[case]}")
    return bad


def validate(document: dict) -> None:
    assert document["format"] == BENCH_FORMAT, document["format"]
    assert document["entries"], "no benchmark entries"
    for entry in document["entries"]:
        assert entry["kernels"] > 0 and entry["passes"] > 0, entry
        assert 0 < entry["place_s"] + entry["route_s"] <= entry["total_s"], \
            entry
        if "attempts" in entry:  # entries before attempt accounting
            assert 0 <= entry["failed"] <= entry["attempts"], entry
            assert 0 <= entry["failed_s"] <= entry["total_s"], entry
            assert (entry["failed_s"] > 0) == (entry["failed"] > 0), entry
        if "searches" in entry:  # entries before congestion accounting
            assert entry["searches"] > 0, entry
            assert 0 <= entry["congestion_s"] <= entry["route_s"], entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--passes", type=int, default=5,
                        help="cold passes over the suite (default 5)")
    parser.add_argument("--label", default="",
                        help="free text recorded with the entry")
    parser.add_argument("--check", action="store_true",
                        help="gate on GOLDEN_DIGESTS; write nothing")
    parser.add_argument("--output", type=pathlib.Path, default=BENCH_PATH,
                        help="history file to append to")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    entry, digests, misplaced = measure(args.passes)
    if args.label:
        entry["label"] = args.label
    print(json.dumps(entry, sort_keys=True))
    if args.check:
        bad = check(digests)
        for line in bad:
            print("digest mismatch:", line, file=sys.stderr)
        print(f"{len(GOLDEN_DIGESTS) - len(bad)}/{len(GOLDEN_DIGESTS)} "
              "schedule digests match GOLDEN_DIGESTS")
        for line in misplaced:
            print("placement-free rejection placed:", line, file=sys.stderr)
        print(f"{entry['attempts']} region attempts, {entry['failed']} "
              f"failed, {entry['place_calls']} _place calls, "
              f"{len(misplaced)} placement-free rejections placed")
        print(f"{entry['searches']} route searches, "
              f"{entry['congestion_s']:.3f} s in RPR217 negotiations")
        return 1 if bad or misplaced else 0
    document = (json.loads(args.output.read_text())
                if args.output.exists()
                else {"format": BENCH_FORMAT, "entries": []})
    document["entries"].append(entry)
    validate(document)
    args.output.write_text(json.dumps(document, indent=1, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
