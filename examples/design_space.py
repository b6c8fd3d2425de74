#!/usr/bin/env python
"""Design-space walk: fabric geometry vs performance, power and area.

For a compute-heavy kernel (the MRI-Q-style accumulation), sweeps the
fabric from 2x2 to 8x8 and reports speedup, DySER block power, and the
FPGA resource bill — the trade study an architect would run before
committing to a configuration.
"""

from repro.compiler import CompilerOptions
from repro.dyser import Fabric, FabricGeometry
from repro.fpga import dyser_resources
from repro.harness import RunConfig, compare, format_table


def main() -> None:
    rows = []
    for width, height in ((2, 2), (4, 4), (6, 6), (8, 8)):
        fabric = Fabric(FabricGeometry(width, height))
        options = CompilerOptions(fabric=fabric)
        comparison = compare(RunConfig(workload="mriq", scale="small",
                                       options=options))
        assert comparison.scalar.correct and comparison.dyser.correct
        block = dyser_resources(fabric)
        region = comparison.dyser.compile_result.regions[0]
        rows.append([
            f"{width}x{height}",
            "yes" if region.accepted else "no",
            region.unrolled,
            f"{comparison.speedup:.2f}x",
            f"{comparison.dyser.energy.dyser_power_mw:.0f}",
            block.resources.luts,
            block.resources.dsps,
            f"{comparison.edp_ratio:.1f}x",
        ])
    print(format_table(
        ["fabric", "offloaded", "unroll", "speedup", "dyser mW",
         "LUTs", "DSPs", "EDP gain"],
        rows,
        title="mriq across DySER fabric sizes",
    ))
    print()
    print("Reading: the polynomial region does not fit the small fabrics"
          " at all; once it fits, extra area buys unrolling headroom"
          " until the port interface saturates.")


if __name__ == "__main__":
    main()
