"""E12 — Sparse/irregular DSL tier (beyond-the-paper extension).

The paper's suite is dominated by regular streaming kernels; its
finding ii (E7) shows *why* — two control-flow shapes curtail the
compiler.  The ``irregular-dsl`` tier probes the same territory from
the other side: four kernels written in the user-facing ``repro.lang``
DSL whose memory access or control structure is data-dependent
(CSR SpMV, pointer chasing, an irregular-DAG reduction, a branchy
histogram).  Because they arrive through the untrusted-kernel
pipeline, this table also demonstrates that validated DSL kernels are
first-class: compiled, advised by the static linter, and measured by
exactly the machinery the built-ins use.

The table reports, per kernel, the offload verdict, speedup over
scalar, and the RPR30x advisory codes the static shape analysis
raises — the acceptance bar is that the tier's shapes are visible
*statically*, not only in the dynamic numbers.
"""

from common import SCALE, emit, once

from repro.analysis import lint_workload
from repro.harness import RunConfig, compare, format_table
from repro.workloads import get
from repro.workloads.dsl_kernels import DSL_SOURCES

CASES = tuple(sorted(DSL_SOURCES))


def measure():
    rows = []
    stats = {}
    for name in CASES:
        c = compare(RunConfig(workload=name, scale=SCALE))
        assert c.scalar.correct and c.dyser.correct, name
        region = c.dyser.compile_result.regions[0]
        advisories = sorted({
            d.code for d in lint_workload(name).diagnostics
            if d.code.startswith("RPR30")})
        stats[name] = (c.speedup, region, advisories)
        rows.append([
            name, get(name).category, region.shape,
            "yes" if region.accepted else "no",
            f"{c.speedup:.2f}x",
            ",".join(advisories) or "-",
        ])
    return rows, stats


def test_e12_irregular_dsl(benchmark):
    rows, stats = once(benchmark, measure)
    table = format_table(
        ["kernel", "category", "shape", "offloaded", "speedup",
         "static advisories"],
        rows,
        title="E12: sparse/irregular kernels via the repro.lang DSL",
    )
    emit("E12: irregular DSL tier", table)

    for name in CASES:
        assert get(name).category == "irregular-dsl"

    advisories = {name: adv for name, (_s, _r, adv) in stats.items()}
    # at least one tier kernel must trip a curtailing-shape advisory
    # statically (the ISSUE 10 acceptance bar)
    assert any(advisories.values()), advisories
