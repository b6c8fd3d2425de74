"""Design-choice ablation tests (the list DESIGN.md calls out).

E9/E10 benchmark the geometry, config-cache and vectorization knobs;
these tests cover the remaining ones — port FIFO depth, initiation
interval, port fill rate, and the placement refiner — asserting the
*directions* the microarchitecture predicts.
"""

import pytest

from repro.compiler import CompilerOptions
from repro.compiler.schedule import schedule
from repro.cpu import CoreConfig
from repro.dyser import (
    Dfg,
    DyserTimingParams,
    Fabric,
    FabricGeometry,
    FuOp,
    PortRef,
    uniform_capabilities,
)
from repro.harness import RunConfig, run_workload


def cycles_with(name, scale="tiny", timing=None, core=None, options=None):
    result = run_workload(RunConfig(
        workload=name, mode="dyser", scale=scale, timing=timing,
        core_config=core, options=options))
    assert result.correct
    return result.stats.cycles


class TestFifoDepth:
    def test_deeper_input_fifos_never_hurt(self):
        shallow = cycles_with(
            "saxpy", timing=DyserTimingParams(input_fifo_depth=1,
                                              output_fifo_depth=1))
        deep = cycles_with(
            "saxpy", timing=DyserTimingParams(input_fifo_depth=8,
                                              output_fifo_depth=8))
        assert deep <= shallow

    def test_depth_one_throttles_wide_transfers(self):
        """An 8-wide kernel with depth-1 FIFOs must stall on sends."""
        shallow = run_workload(RunConfig(
            workload="vecadd", mode="dyser", scale="tiny",
            timing=DyserTimingParams(input_fifo_depth=1,
                                     output_fifo_depth=8)))
        deep = run_workload(RunConfig(
            workload="vecadd", mode="dyser", scale="tiny",
            timing=DyserTimingParams(input_fifo_depth=8,
                                     output_fifo_depth=8)))
        assert shallow.correct and deep.correct
        assert deep.cycles <= shallow.cycles


class TestInitiationInterval:
    def test_slower_fabric_pipelining_costs_cycles(self):
        # Compiled loops launch one invocation per trip (~a dozen
        # cycles), so a small II hides behind the issue rate; an II
        # beyond the trip length must back-pressure the whole loop.
        # The II must exceed the ~35-cycle (memory-bound) trip time
        # before the fire backlog reaches the input FIFOs and the core;
        # it also needs enough trips for the backlog to build.
        fast = cycles_with("vecadd", scale="small",
                           timing=DyserTimingParams(initiation_interval=1))
        slow = cycles_with("vecadd", scale="small",
                           timing=DyserTimingParams(initiation_interval=64))
        assert slow > fast

    def test_small_ii_hides_behind_issue_rate(self):
        fast = cycles_with("vecadd",
                           timing=DyserTimingParams(initiation_interval=1))
        modest = cycles_with("vecadd",
                             timing=DyserTimingParams(initiation_interval=4))
        assert modest == fast


class TestPortFillRate:
    def test_wider_port_bus_helps_streaming(self):
        narrow = cycles_with(
            "vecadd", core=CoreConfig(vector_port_words_per_cycle=1))
        wide = cycles_with(
            "vecadd", core=CoreConfig(vector_port_words_per_cycle=4))
        assert wide <= narrow


class TestPlacementRefiner:
    def chain(self, n=12):
        dfg = Dfg("chain")
        acc = PortRef(0)
        for k in range(1, n + 1):
            acc = dfg.add_node(FuOp.ADD, [acc, PortRef(k % 4)])
        dfg.set_output(0, acc)
        return dfg

    def total_wirelength(self, config):
        return sum(
            len(path) - 1 for path in config.routes.values())

    def test_refined_placement_not_worse(self):
        geometry = FabricGeometry(6, 6)
        fabric = Fabric(geometry, uniform_capabilities(geometry))
        dfg1, dfg2 = self.chain(), self.chain()
        refined = schedule(0, dfg1, fabric, refine=True)
        greedy = schedule(0, dfg2, fabric, refine=False)
        assert (self.total_wirelength(refined)
                <= self.total_wirelength(greedy) * 1.2)
        # Refinement must never break legality.
        refined.validate()
        greedy.validate()

    def test_refined_delay_reasonable(self):
        geometry = FabricGeometry(6, 6)
        fabric = Fabric(geometry, uniform_capabilities(geometry))
        config = schedule(0, self.chain(), fabric)
        # A 12-op chain: delay at least 12 (op latencies) and within a
        # small multiple once switch hops are added.
        assert 12 <= config.critical_delay() <= 12 * 4


class TestUnrollFactorKnob:
    def test_factor_ladder_respected(self):
        from repro.harness import compare

        for unroll, expect in ((1, 1), (2, 2), (4, 4)):
            options = CompilerOptions(
                fabric=Fabric(FabricGeometry(8, 8)), unroll=unroll)
            c = compare(RunConfig(workload="vecadd", scale="tiny",
                                  options=options))
            (region,) = c.dyser.compile_result.regions
            assert region.unrolled == expect
