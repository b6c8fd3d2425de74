"""E1 — Benchmark characterization table.

Reconstructs the methodology table: per benchmark, its category, the
compiler's region decision (accepted / rejection reason), region size in
execute ops, interface width, unroll factor, and the fraction of dynamic
instructions the DySER build eliminates relative to scalar.
"""

from common import SCALE, emit, once

from repro.harness import RunConfig, compare, format_table
from repro.workloads import SUITE, get


def characterize():
    rows = []
    for name in sorted(SUITE):
        c = compare(RunConfig(workload=name, scale=SCALE))
        assert c.scalar.correct and c.dyser.correct, name
        regions = c.dyser.compile_result.regions
        accepted = [r for r in regions if r.accepted]
        insn_reduction = 1.0 - (
            c.dyser.instructions / c.scalar.instructions)
        if accepted:
            region = accepted[0]
            detail = (region.execute_ops, region.input_ports,
                      region.output_ports, region.unrolled)
        else:
            detail = (0, 0, 0, 0)
        reason = regions[0].reason if regions else "no loops"
        rows.append([
            name, get(name).category, regions[0].shape if regions else "-",
            *detail, f"{insn_reduction:.0%}",
            ("yes" if accepted else f"no: {reason[:36]}"),
        ])
    return rows


def test_e1_characterization(benchmark):
    rows = once(benchmark, characterize)
    table = format_table(
        ["benchmark", "category", "shape", "exec_ops", "in", "out",
         "unroll", "insn_redux", "offloaded"],
        rows,
        title="E1: benchmark characterization (cf. paper methodology table)",
    )
    emit("E1: characterization", table)
    by_name = {r[0]: r for r in rows}
    # Shape checks: regular kernels offload with large regions; the
    # curtailing-shape kernels do not offload (or barely).
    assert by_name["mm"][8] == "yes"
    assert by_name["nbody"][3] >= 10          # big compound region
    assert by_name["tpacf_bin"][8].startswith("no")
    # Offloaded builds execute far fewer host instructions.
    assert int(by_name["vecadd"][7].rstrip("%")) > 50
