"""E2 — Headline speedup figure.

Per-benchmark SPARC-DySER speedup over the OpenSPARC scalar build, plus
the geometric means the abstract summarizes ("DySER's performance
improvement to OpenSPARC is 6X").  Absolute factors come from our
simulator calibration; the shape that must hold: every regular kernel
wins clearly, irregular-compute kernels win modestly, the curtailing
shapes sit near 1x, and the compute-kernel geomean lands in the
mid-single digits.
"""

from common import SCALE, emit, engine_kwargs, once

from repro.engine import run_comparisons
from repro.harness import format_series, geomean
from repro.workloads import IRREGULAR_COMPUTE, REGULAR, SUITE, get
from repro.workloads.base import CATEGORIES


def sweep():
    comparisons, _report = run_comparisons(
        sorted(SUITE), scale=SCALE, **engine_kwargs())
    results = {}
    for name, c in comparisons.items():
        assert c.scalar.correct and c.dyser.correct, name
        results[name] = c.speedup
    return results


def test_e2_speedup(benchmark):
    speedups = once(benchmark, sweep)
    names = sorted(speedups, key=lambda n: -speedups[n])
    text = format_series(
        "E2: SPARC-DySER speedup over OpenSPARC (per benchmark)",
        names, [speedups[n] for n in names])
    # One geomean row per suite category, the DSL tier included.
    categories = {cat: [] for cat in CATEGORIES}
    for name, s in speedups.items():
        categories[get(name).category].append(s)
    summary = "\n".join(
        f"geomean {cat:<18} {geomean(vals):5.2f}x"
        for cat, vals in categories.items()
    ) + f"\ngeomean {'all':<18} {geomean(list(speedups.values())):5.2f}x"
    emit("E2: speedup", text + "\n\n" + summary)

    regular = geomean(categories[REGULAR])
    irregular_compute = geomean(categories[IRREGULAR_COMPUTE])
    # Paper shape: compute-intense kernels dominate and the mid-single-
    # digit geomean holds; irregular-but-computational code still wins.
    assert regular > 3.5
    assert regular > irregular_compute > 1.0
    # Finding ii's two curtailing shapes sit near 1x (collatz_diamonds,
    # the third IRREGULAR_CONTROL kernel, wins wall-clock but wastes
    # fabric work — E7 quantifies that separately).
    assert geomean([speedups["newton_lcd"], speedups["tpacf_bin"]]) < 1.5
    # Every regular kernel individually wins.
    assert all(speedups[n] > 1.5 for n in SUITE
               if get(n).category == REGULAR)
