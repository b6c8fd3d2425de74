"""Tests for the DySER fabric model: topology, DFG, functional eval."""

import pytest

from repro.dyser import (
    ConstRef,
    Dfg,
    DyserConfig,
    Fabric,
    FabricGeometry,
    FuCapability,
    FuOp,
    FunctionalEvaluator,
    PortRef,
    default_capabilities,
    uniform_capabilities,
)
from repro.dyser.ops import FU_OP_INFO, capability_of, evaluate, latency_of
from repro.errors import ConfigurationError, DyserError


class TestGeometry:
    def test_counts(self):
        g = FabricGeometry(4, 4)
        assert g.num_fus == 16
        assert g.num_switches == 25
        # (north + west edge switches) x ports_per_edge_switch (2).
        assert g.num_input_ports == (5 + 4) * 2
        assert g.num_output_ports == (5 + 4) * 2

    def test_single_port_per_switch(self):
        g = FabricGeometry(4, 4, ports_per_edge_switch=1)
        assert g.num_input_ports == 9
        switches = g.input_port_switches()
        assert len(switches) == len(set(switches))

    def test_fu_corner_switches(self):
        g = FabricGeometry(4, 4)
        assert g.fu_input_switches((1, 2)) == [(1, 2), (2, 2), (1, 3)]
        assert g.fu_output_switch((1, 2)) == (2, 3)

    def test_switch_neighbors_interior(self):
        g = FabricGeometry(4, 4)
        assert set(g.switch_neighbors((2, 2))) == {
            (1, 2), (3, 2), (2, 1), (2, 3)}

    def test_switch_neighbors_corner(self):
        g = FabricGeometry(4, 4)
        assert set(g.switch_neighbors((0, 0))) == {(1, 0), (0, 1)}

    def test_tiny_fabric_rejected(self):
        with pytest.raises(ConfigurationError):
            FabricGeometry(0, 4)

    def test_port_switches_are_on_edges(self):
        g = FabricGeometry(3, 2)
        assert all(s[1] == 0 or s[0] == 0 for s in g.input_port_switches())
        assert all(
            s[1] == g.height or s[0] == g.width
            for s in g.output_port_switches()
        )


class TestCapabilities:
    def test_default_profile_covers_all_capabilities(self):
        fabric = Fabric(FabricGeometry(8, 8))
        for cap in FuCapability:
            assert fabric.fus_with(cap), f"no FU with {cap}"

    def test_every_fu_has_alu(self):
        fabric = Fabric(FabricGeometry(8, 8))
        assert len(fabric.fus_with(FuCapability.ALU)) == 64

    def test_heterogeneous_mix(self):
        fabric = Fabric(FabricGeometry(8, 8))
        assert len(fabric.fus_with(FuCapability.MUL)) == 32
        # FP covers 3/4 of the grid; divide/sqrt units are scarce.
        assert len(fabric.fus_with(FuCapability.FP)) == 48
        fpdiv = len(fabric.fus_with(FuCapability.FPDIV))
        assert 0 < fpdiv <= 8
        assert fpdiv < len(fabric.fus_with(FuCapability.FP))

    def test_tiny_fabric_still_covers_everything(self):
        fabric = Fabric(FabricGeometry(1, 1))
        for cap in FuCapability:
            assert fabric.fus_with(cap)

    def test_uniform_profile(self):
        g = FabricGeometry(2, 2)
        caps = uniform_capabilities(g)
        assert all(c == set(FuCapability) for c in caps.values())

    def test_describe_mentions_size(self):
        assert "8x8" in Fabric(FabricGeometry(8, 8)).describe()


class TestOps:
    def test_every_op_has_info(self):
        for op in FuOp:
            info = FU_OP_INFO[op]
            assert info.arity in (1, 2, 3)
            assert info.latency >= 1

    def test_semantics_match_host(self):
        assert evaluate(FuOp.ADD, 3, 4) == 7
        assert evaluate(FuOp.DIV, -7, 3) == -2
        assert evaluate(FuOp.SRL, -1, 60) == 15
        assert evaluate(FuOp.SEL, 0, 10, 20) == 20
        assert evaluate(FuOp.FMUL, 1.5, 2.0) == 3.0
        assert evaluate(FuOp.FSQRT, 9.0) == 3.0
        assert evaluate(FuOp.FLT, 1.0, 2.0) == 1

    def test_divide_by_zero_does_not_raise(self):
        assert evaluate(FuOp.DIV, 5, 0) == -1
        assert evaluate(FuOp.FDIV, 1.0, 0.0) > 1e300

    def test_capability_mapping(self):
        assert capability_of(FuOp.ADD) is FuCapability.ALU
        assert capability_of(FuOp.MUL) is FuCapability.MUL
        assert capability_of(FuOp.FADD) is FuCapability.FP
        assert capability_of(FuOp.FSQRT) is FuCapability.FPDIV

    def test_latencies_ordered(self):
        assert latency_of(FuOp.ADD) < latency_of(FuOp.FMUL)
        assert latency_of(FuOp.FMUL) < latency_of(FuOp.FDIV)


def simple_mac_dfg() -> Dfg:
    """out = p0 * p1 + p2 — the canonical multiply-accumulate DFG."""
    dfg = Dfg("mac")
    prod = dfg.add_node(FuOp.FMUL, [PortRef(0), PortRef(1)])
    acc = dfg.add_node(FuOp.FADD, [prod, PortRef(2)])
    dfg.set_output(0, acc)
    return dfg


class TestDfg:
    def test_ports_discovered(self):
        dfg = simple_mac_dfg()
        assert dfg.input_ports == [0, 1, 2]
        assert dfg.output_ports == [0]

    def test_topo_order_respects_deps(self):
        dfg = simple_mac_dfg()
        order = [n.op for n in dfg.topo_order()]
        assert order.index(FuOp.FMUL) < order.index(FuOp.FADD)

    def test_depth(self):
        assert simple_mac_dfg().depth() == 2

    def test_cycle_detected(self):
        from repro.dyser.dfg import NodeRef

        dfg = Dfg("cyclic")
        a = dfg.add_node(FuOp.ADD, [PortRef(0), NodeRef(1)])
        dfg.add_node(FuOp.ADD, [a, PortRef(1)])
        dfg.set_output(0, a)
        with pytest.raises(ConfigurationError, match="cycle"):
            dfg.validate()

    def test_arity_checked(self):
        dfg = Dfg()
        with pytest.raises(ConfigurationError, match="expected 2"):
            dfg.add_node(FuOp.ADD, [PortRef(0)])

    def test_no_outputs_rejected(self):
        dfg = Dfg()
        dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(1)])
        with pytest.raises(ConfigurationError, match="no outputs"):
            dfg.validate()

    def test_duplicate_output_port_rejected(self):
        dfg = simple_mac_dfg()
        with pytest.raises(ConfigurationError, match="already driven"):
            dfg.set_output(0, PortRef(0))

    def test_describe_lists_nodes(self):
        text = simple_mac_dfg().describe()
        assert "fmul" in text and "fadd" in text


class TestFunctionalEvaluator:
    def test_mac(self):
        ev = FunctionalEvaluator(simple_mac_dfg())
        out = ev({0: 2.0, 1: 3.0, 2: 1.0})
        assert out == {0: 7.0}

    def test_constants(self):
        dfg = Dfg()
        n = dfg.add_node(FuOp.MUL, [PortRef(0), ConstRef(10)])
        dfg.set_output(0, n)
        ev = FunctionalEvaluator(dfg)
        assert ev({0: 7})[0] == 70

    def test_passthrough_output(self):
        dfg = Dfg()
        n = dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(1)])
        dfg.set_output(0, n)
        dfg.set_output(1, PortRef(0))  # forwarding an input directly
        ev = FunctionalEvaluator(dfg)
        out = ev({0: 5, 1: 6})
        assert out == {0: 11, 1: 5}

    def test_missing_input_raises(self):
        ev = FunctionalEvaluator(simple_mac_dfg())
        with pytest.raises(DyserError, match="missing input ports"):
            ev({0: 1.0, 1: 2.0})

    def test_select_predication(self):
        # out = p0 < p1 ? p0 : p1  (i.e. min via compare+select)
        dfg = Dfg()
        cond = dfg.add_node(FuOp.FLT, [PortRef(0), PortRef(1)])
        sel = dfg.add_node(FuOp.FSEL, [cond, PortRef(0), PortRef(1)])
        dfg.set_output(0, sel)
        ev = FunctionalEvaluator(dfg)
        assert ev({0: 3.0, 1: 9.0})[0] == 3.0
        assert ev({0: 9.0, 1: 3.0})[0] == 3.0


class TestDyserConfig:
    def test_abstract_config_validates(self):
        cfg = DyserConfig(0, simple_mac_dfg(), Fabric(FabricGeometry(4, 4)))
        cfg.validate()

    def test_port_out_of_range(self):
        dfg = Dfg()
        n = dfg.add_node(FuOp.ADD, [PortRef(99), PortRef(1)])
        dfg.set_output(0, n)
        cfg = DyserConfig(0, dfg, Fabric(FabricGeometry(2, 2)))
        with pytest.raises(ConfigurationError, match="input port 99"):
            cfg.validate()

    def test_path_delays_positive_and_monotone(self):
        cfg = DyserConfig(0, simple_mac_dfg(), Fabric(FabricGeometry(4, 4)))
        delays = cfg.path_delays()
        assert delays[0] >= latency_of(FuOp.FMUL) + latency_of(FuOp.FADD)

    def test_placement_capability_enforced(self):
        fabric = Fabric(FabricGeometry(4, 4))
        dfg = simple_mac_dfg()
        no_fp = [
            fu for fu in fabric.geometry.fus()
            if FuCapability.FP not in fabric.capabilities[fu]
        ]
        placement = {0: no_fp[0], 1: no_fp[1]}
        cfg = DyserConfig(0, dfg, fabric, placement=placement)
        with pytest.raises(ConfigurationError, match="lacks capability"):
            cfg.validate()

    def test_double_placement_rejected(self):
        fabric = Fabric(FabricGeometry(4, 4), uniform_capabilities(FabricGeometry(4, 4)))
        cfg = DyserConfig(0, simple_mac_dfg(), fabric,
                          placement={0: (0, 1), 1: (0, 1)})
        with pytest.raises(ConfigurationError, match="hosts two"):
            cfg.validate()

    def test_config_words_grow_with_dfg(self):
        small = DyserConfig(0, simple_mac_dfg(), Fabric(FabricGeometry(4, 4)))
        big_dfg = Dfg()
        acc = None
        for i in range(10):
            node = big_dfg.add_node(FuOp.FADD, [PortRef(i), PortRef(i + 1)])
            acc = node if acc is None else big_dfg.add_node(
                FuOp.FADD, [acc, node])
        big_dfg.set_output(0, acc)
        big = DyserConfig(1, big_dfg, Fabric(FabricGeometry(8, 8)))
        assert big.config_words() > small.config_words()
