"""E7 — Control-flow shape study (paper finding ii).

For non-computationally-intense irregular code, two control-flow shapes
curtail the compiler's effectiveness.  As reconstructed (DESIGN.md):

1. LOOP_CARRIED_CONTROL — the loop's continue condition consumes data
   the loop body just produced: invocations serialize, so speedup stays
   near 1x (newton_lcd, kmeans' argmin loop).
2. DEEP_DIAMONDS — long chains of data-dependent diamonds: if-conversion
   executes every path, so the fabric's *useful-op density* collapses
   even when wall-clock still improves (collatz_diamonds); and when the
   computation exists only to form an address, no execute slice survives
   at all (tpacf_bin).

The table reports, per shape, the classification, speedup, and the
fraction of fabric work that is architecturally useful.
"""

from common import SCALE, emit, once

import numpy as np

from repro.harness import RunConfig, compare, format_table
from repro.workloads import get

CASES = ("saxpy", "mriq", "kmeans", "newton_lcd", "collatz_diamonds",
         "tpacf_bin")

#: Architecturally useful ops per work item (hand-counted from each
#: kernel's semantics: ops on the taken path only).
USEFUL_OPS_PER_ITEM = {
    "saxpy": 2.0,
    "mriq": 16.0,
    "kmeans": 5.0,
    "newton_lcd": 6.0,
    # Collatz: one side of each diamond is real work; the other half plus
    # the predicate network is waste.
    "collatz_diamonds": 2.0 * 4,
    "tpacf_bin": 3.0,
}


def measure():
    rows = []
    stats = {}
    for name in CASES:
        c = compare(RunConfig(workload=name, scale=SCALE))
        assert c.scalar.correct and c.dyser.correct, name
        region = c.dyser.compile_result.regions[0]
        fu_ops = c.dyser.stats.dyser_fu_ops
        items = c.dyser.work_items
        useful = USEFUL_OPS_PER_ITEM[name] * items
        density = min(1.0, useful / fu_ops) if fu_ops else 0.0
        stats[name] = (c.speedup, density, region)
        rows.append([
            name, get(name).category, region.shape,
            "yes" if region.accepted else "no",
            f"{c.speedup:.2f}x",
            f"{density:.0%}" if fu_ops else "-",
            region.reason[:40],
        ])
    return rows, stats


def test_e7_control_shapes(benchmark):
    rows, stats = once(benchmark, measure)
    table = format_table(
        ["benchmark", "category", "shape", "offloaded", "speedup",
         "useful-op density", "note"],
        rows,
        title="E7: control-flow shapes that curtail the compiler",
    )
    emit("E7: control shapes", table)

    speedup = {name: s for name, (s, _d, _r) in stats.items()}
    density = {name: d for name, (_s, d, _r) in stats.items()}
    shapes = {name: r.shape for name, (_s, _d, r) in stats.items()}

    assert shapes["newton_lcd"] == "loop_carried_control"
    assert shapes["collatz_diamonds"] == "deep_diamonds"
    # Shape 1: carried control caps the win far below regular kernels.
    assert speedup["newton_lcd"] < speedup["saxpy"] / 3
    # Shape 2a: deep diamonds waste most fabric work.
    assert density["collatz_diamonds"] < 0.7 < density["saxpy"]
    # Shape 2b: address-forming computation leaves nothing to offload.
    assert speedup["tpacf_bin"] == 1.0
