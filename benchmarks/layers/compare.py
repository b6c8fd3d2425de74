"""Compare a change against its parent on the layer benchmark.

    python3 benchmarks/layers/compare.py PARENT.json CHANGE.json

Each file holds the records ``run.py --json`` appended, one JSON object
per line: runs of the parent tree and of the change with identical
settings, made in pairs that alternate which side goes first.  The
i-th run of a workload in one file pairs with the i-th in the other.

For each workload and end-to-end metric it prints both sides' median
and quartiles, the share of pairs the change wins (ties count for
neither side), and a verdict:

- ``improved``: at least ten pairs, the change wins at least 9/10 of
  them, and the medians differ by more than the parent's interquartile
  range;
- ``unresolved``: the parent's own spread (IQR / median) exceeds the
  metric's bound and neither side beats the other in every run;
- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound from ``BENCHMARK.json``;
- ``unchanged``: otherwise.

Every run is compared: its timings are already scaled by the host's
measured speed (README, "Host-speed normalisation").  Exact counts and
``results_sha256`` must match between runs of the same workload and
seed; any difference is flagged.  A change run with a failed operation
or a wrong output is flagged too, and its workload cannot read
``improved``: the bound on failures is zero.  Exit status 1 on any
``worse`` verdict or flagged run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10
#: Share of pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def load(path: pathlib.Path) -> dict[str, list[dict]]:
    """Records by workload, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, change's win share)`` for one metric on one workload."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change, strict=False))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0) / len(pairs)
    q1, median_a, q3 = quartiles(parent)
    median_b = statistics.median(change)
    gain = sign * (median_b - median_a)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE and gain > q3 - q1:
        return "improved", wins
    all_better = min(sign * b for b in change) > max(sign * a for a in parent)
    all_worse = max(sign * b for b in change) < min(sign * a for a in parent)
    if (q3 - q1) / median_a > bound and not (all_better or all_worse):
        return "unresolved", wins
    if -gain > bound * median_a:
        return "worse", wins
    return "unchanged", wins


def exact_differences(parent: dict, change: dict) -> list[str]:
    """Exact counts or result hashes that differ at the same seed."""
    flagged = []
    for workload in sorted(set(parent) & set(change)):
        first = {}
        for record in parent[workload]:
            first.setdefault(record["seed"], record)
        for record in change[workload]:
            base = first.get(record["seed"])
            if base is None:
                continue
            for key in sorted(set(base["exact"]) | set(record["exact"])):
                if base["exact"].get(key) != record["exact"].get(key):
                    flagged.append(
                        f"{workload} seed {record['seed']}: {key} "
                        f"{base['exact'].get(key)} -> "
                        f"{record['exact'].get(key)}")
            if base["results_sha256"] != record["results_sha256"]:
                flagged.append(f"{workload} seed {record['seed']}: "
                               f"results_sha256 changed")
    return flagged


def failing_runs(change: dict) -> list[dict]:
    """Change runs with a failed operation or a wrong output."""
    return [record for records in change.values() for record in records
            if record["failed"] or not record["correct"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    failed = failing_runs(change)
    failing = {record["workload"] for record in failed}
    worse = 0
    print(f"{'workload':14s} {'metric':12s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'wins':>5s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = list(zip(parent.get(workload, []), change.get(workload, []),
                         strict=False))
        if not pairs:
            continue
        if len(pairs) < MIN_PAIRS:
            print(f"warning: {workload}: {len(pairs)} pairs; a gain needs "
                  f"{MIN_PAIRS}")
        for m in spec["end_to_end"]:
            a = [pa["metrics"][m["name"]] for pa, _pb in pairs]
            b = [pb["metrics"][m["name"]] for _pa, pb in pairs]
            result, wins = verdict(a, b, m["better"], m["bound"])
            if result == "improved" and workload in failing:
                result = "unresolved"
            worse += result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:14s} {m['name']:12s} "
                  f"{qa[1]:14.4f} [{qa[0]:.4f}, {qa[2]:.4f}] "
                  f"{qb[1]:14.4f} [{qb[0]:.4f}, {qb[2]:.4f}] "
                  f"{wins:5.2f}  {result}")
    flagged = exact_differences(parent, change)
    for line in flagged:
        print(f"EXACT CHANGED {line}")
    for record in failed:
        print(f"FAILED {record['workload']} seed {record['seed']}: "
              f"{record['failed']} failed of {record['attempted']}")
    return 1 if worse or flagged or failed else 0


if __name__ == "__main__":
    sys.exit(main())
