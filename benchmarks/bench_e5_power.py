"""E5 — Power and energy table.

Abstract anchor: DySER delivers its speedup "consuming only 200mW".  Per
benchmark we report the DySER block's average power, total system power,
and the scalar-vs-DySER energy and energy-delay-product ratios.  Shape:
the DySER block sits in the ~200 mW band on offloaded kernels, and
energy efficiency improves because runtime shrinks far more than power
grows.
"""

from common import SCALE, emit, once

from repro.harness import RunConfig, compare, format_table, geomean
from repro.workloads import REGULAR, SUITE, get


def sweep():
    rows = []
    offloaded_power = []
    energy_ratios = []
    for name in sorted(SUITE):
        c = compare(RunConfig(workload=name, scale=SCALE))
        assert c.scalar.correct and c.dyser.correct, name
        dyser_mw = c.dyser.energy.dyser_power_mw
        accepted = any(
            r.accepted for r in c.dyser.compile_result.regions)
        if accepted:
            offloaded_power.append(dyser_mw)
        energy_ratios.append(c.energy_ratio)
        rows.append([
            name,
            f"{c.scalar.energy.avg_power_mw:.0f}",
            f"{c.dyser.energy.avg_power_mw:.0f}",
            f"{dyser_mw:.0f}",
            f"{c.energy_ratio:.2f}",
            f"{c.edp_ratio:.2f}",
        ])
    return rows, offloaded_power, energy_ratios


def test_e5_power(benchmark):
    rows, offloaded_power, energy_ratios = once(benchmark, sweep)
    table = format_table(
        ["benchmark", "scalar mW", "sparc-dyser mW", "dyser block mW",
         "energy gain", "EDP gain"],
        rows,
        title="E5: power and energy (DySER block anchored at ~200 mW)",
    )
    emit("E5: power", table)
    # The DySER block's power on offloaded kernels sits near the paper's
    # 200 mW headline (150-250 band for the busiest kernels).
    assert offloaded_power, "nothing offloaded?"
    assert 120 <= max(offloaded_power) <= 300
    assert min(offloaded_power) >= 100
    # Energy efficiency improves on the suite overall.
    assert geomean(energy_ratios) > 1.2
