"""The evaluator's flat plan against a per-node reference interpreter.

``FunctionalEvaluator`` compiles a DFG once into one function call per
fire.  The interpreter below walks the same DFG node by node in
``topo_order()``, resolving every operand on each visit, and calls the
same op functions; the two must agree on every output by ``repr`` (so
NaN, the infinities and -0.0 count) and on every fault's type and
message.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.perf import _AbstractEvaluator
from repro.dyser import (
    ConstRef,
    Dfg,
    DyserConfig,
    DyserDevice,
    DyserTimingParams,
    DyserValues,
    Fabric,
    FabricGeometry,
    FuOp,
    FunctionalEvaluator,
    PortRef,
)
from repro.dyser.ops import FU_OP_INFO, evaluate
from repro.errors import DyserError
from repro.harness.fuzz.generator import _gen_dfg
from tests.test_properties import random_dfgs


def interpret(dfg: Dfg, inputs: dict) -> dict:
    """Per-node reference: resolve each operand, then evaluate the op."""
    missing = [p for p in dfg.input_ports if p not in inputs]
    if missing:
        raise DyserError(f"invocation missing input ports {missing}")
    values = {}

    def resolve(src):
        if isinstance(src, PortRef):
            return inputs[src.port]
        if isinstance(src, ConstRef):
            return src.value
        return values[src.node]

    for node in dfg.topo_order():
        values[node.id] = evaluate(node.op, *(resolve(s) for s in node.inputs))
    return {port: resolve(src) for port, src in dfg.outputs.items()}


def outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the fault is the outcome
        return type(exc).__name__, str(exc)


def assert_same(dfg: Dfg, inputs: dict) -> None:
    plan = FunctionalEvaluator(dfg)
    assert outcome(plan, inputs) == outcome(interpret, dfg, inputs)


#: Operand values that stress float and int semantics alike.
EDGE_VALUES = [0, 1, -1, 7, -(2 ** 63), 2 ** 63 - 1, 2 ** 70, 0.0, -0.0,
               0.5, -2.5, 1e300, -1e-300, math.inf, -math.inf, math.nan]
values = st.one_of(st.sampled_from(EDGE_VALUES),
                   st.integers(-(2 ** 64), 2 ** 64),
                   st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def any_dfgs(draw):
    """Acyclic DFGs over every fabric op, with constants (one object
    sometimes shared by two nodes) and outputs wired to nodes, input
    ports or constants."""
    dfg = Dfg("any")
    sources = [PortRef(p) for p in range(draw(st.integers(1, 4)))]
    shared = ConstRef(draw(st.sampled_from(EDGE_VALUES)))
    consts = st.one_of(st.just(shared),
                       st.builds(ConstRef, st.sampled_from(EDGE_VALUES)))
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(list(FuOp)))
        args = [draw(st.one_of(st.sampled_from(sources), consts))
                for _ in range(FU_OP_INFO[op].arity)]
        sources.append(dfg.add_node(op, args))
    for port in range(draw(st.integers(1, 3))):
        dfg.set_output(port, draw(st.one_of(st.sampled_from(sources),
                                            consts)))
    return dfg


class TestPlanMatchesInterpreter:
    @given(any_dfgs(), st.lists(values, min_size=4, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_every_op_and_wiring(self, dfg, vals):
        assert_same(dfg, dict(enumerate(vals)))

    @given(random_dfgs(), st.lists(values, min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_random_dfgs(self, dfg, vals):
        assert_same(dfg, dict(enumerate(vals)))

    def test_fuzz_generator_dfgs(self):
        rng = random.Random(2026)
        for case in range(300):
            domain = rng.choice(["int", "fp"])
            n_in = rng.randint(1, 4)
            dfg = _gen_dfg(rng, f"gen{case}", domain, n_in,
                           rng.randint(n_in, 12))
            for _ in range(3):
                inputs = {p: rng.choice(EDGE_VALUES)
                          for p in dfg.input_ports}
                assert_same(dfg, inputs)

    def test_shared_const_object(self):
        dfg = Dfg("shared")
        k = ConstRef(-0.0)
        a = dfg.add_node(FuOp.FADD, [PortRef(0), k])
        b = dfg.add_node(FuOp.FMUL, [k, a])
        dfg.set_output(0, b)
        dfg.set_output(1, k)
        for x in (-0.0, 0.0, math.inf, math.nan):
            assert_same(dfg, {0: x})
        assert repr(FunctionalEvaluator(dfg)({0: -0.0})) == \
            "{0: 0.0, 1: -0.0}"

    def test_outputs_wired_to_port_and_const(self):
        dfg = Dfg("wires")
        dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(2)])
        dfg.set_output(3, PortRef(2))
        dfg.set_output(0, ConstRef(math.nan))
        dfg.set_output(1, PortRef(0))
        ev = FunctionalEvaluator(dfg)
        assert ev.output_ports == (3, 0, 1)
        assert repr(ev({0: 5, 2: -0.0})) == "{3: -0.0, 0: nan, 1: 5}"
        assert_same(dfg, {0: 5, 2: -0.0})

    @pytest.mark.parametrize("op", [FuOp.SEL, FuOp.FSEL])
    def test_selects(self, op):
        dfg = Dfg("sel")
        c = dfg.add_node(FuOp.SLT, [PortRef(0), PortRef(1)])
        dfg.set_output(0, dfg.add_node(op, [c, PortRef(2), ConstRef(-0.0)]))
        for a, b in ((1, 2), (2, 1), (0, 0)):
            assert_same(dfg, {0: a, 1: b, 2: math.nan})
        assert FunctionalEvaluator(dfg)({0: 1, 1: 2, 2: 9}) == {0: 9}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_f2i_fault(self, bad):
        dfg = Dfg("f2i")
        n = dfg.add_node(FuOp.F2I, [PortRef(0)])
        dfg.set_output(0, dfg.add_node(FuOp.ADD, [n, ConstRef(1)]))
        assert_same(dfg, {0: bad})
        assert outcome(FunctionalEvaluator(dfg), {0: bad})[0] in (
            "ValueError", "OverflowError")

    def test_dead_node_still_faults(self):
        dfg = Dfg("dead")
        dfg.add_node(FuOp.F2I, [PortRef(0)])
        dfg.set_output(0, PortRef(1))
        assert_same(dfg, {0: math.nan, 1: 3})
        assert outcome(FunctionalEvaluator(dfg), {0: math.nan, 1: 3}) == \
            ("ValueError", "cannot convert float NaN to integer")

    def test_missing_input_port(self):
        dfg = Dfg("miss")
        dfg.set_output(0, dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(3)]))
        assert_same(dfg, {0: 1})
        assert outcome(FunctionalEvaluator(dfg), {0: 1}) == \
            ("DyserError", "invocation missing input ports [3]")

    def test_positional_run(self):
        dfg = Dfg("pos")
        dfg.set_output(1, dfg.add_node(FuOp.SUB, [PortRef(5), PortRef(2)]))
        ev = FunctionalEvaluator(dfg)
        assert ev.input_ports == (2, 5)
        assert ev.run(3, 10) == (7,)

    def test_same_shape_shares_compiled_plan(self):
        def build(op, k):
            dfg = Dfg("shape")
            dfg.set_output(0, dfg.add_node(op, [PortRef(0), ConstRef(k)]))
            return FunctionalEvaluator(dfg)

        add, mul = build(FuOp.ADD, 3), build(FuOp.MUL, 5)
        assert add.run.__code__ is mul.run.__code__
        assert (add.run(4), mul.run(4)) == ((7,), (20,))

    def test_nodes_never_referenced_by_id(self):
        # Plans name nodes by topological position, so explicit ids
        # (deserialized DFGs) of any size are fine.
        dfg = Dfg("ids")
        a = dfg.add_node(FuOp.ADD, [PortRef(0), ConstRef(1)], node_id=10 ** 9)
        dfg.set_output(0, dfg.add_node(FuOp.ADD, [a, a], node_id=3))
        assert FunctionalEvaluator(dfg)({0: 4}) == {0: 10}


def _two_out_dfg() -> Dfg:
    dfg = Dfg("two")
    n = dfg.add_node(FuOp.F2I, [PortRef(0)])
    dfg.set_output(0, dfg.add_node(FuOp.ADD, [n, PortRef(1)]))
    dfg.set_output(1, PortRef(1))
    return dfg


def _add_dfg() -> Dfg:
    dfg = Dfg("add")
    dfg.set_output(0, dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(1)]))
    return dfg


def _mul_dfg() -> Dfg:
    dfg = Dfg("mul")
    dfg.set_output(0, dfg.add_node(FuOp.MUL, [PortRef(0), PortRef(1)]))
    return dfg


class TestAbstractEvaluator:
    def test_unknown_inputs_give_unknown_outputs(self):
        faults = []
        ev = _AbstractEvaluator(_two_out_dfg(), faults.append)
        assert ev.run(None, 4) == (None, None)
        assert ev({0: 2.5, 1: None}) == {0: None, 1: None}
        assert ev({0: 2.5, 1: 4}) == {0: 6, 1: 4}
        assert faults == []

    def test_fault_degrades_to_unknown(self):
        faults = []
        ev = _AbstractEvaluator(_two_out_dfg(), faults.append)
        assert ev.run(math.nan, 4) == (None, None)
        assert faults == ["DFG evaluation faulted"]


class TestLaneValues:
    def test_each_plan_runs_once_per_fire(self):
        """A three-point lane whose FIFO depths and initiation intervals
        differ alternates configs A, B, A: one value side runs each
        config's plan once per fire, and every point's outputs and fire
        times match a solo run at its timing."""
        fabric = Fabric(FabricGeometry(4, 4))
        configs = [DyserConfig(0, _add_dfg(), fabric),
                   DyserConfig(1, _mul_dfg(), fabric)]
        phases = [(0, range(0, 3)), (1, range(3, 5)), (0, range(5, 8))]
        timings = [DyserTimingParams(1, 1, 1), DyserTimingParams(2, 4, 3),
                   DyserTimingParams(8, 2, 2)]

        def drive(timing_list,
                  plan=lambda config: FunctionalEvaluator(config.dfg)):
            """Outputs and per-phase fire times of points sharing one
            value side."""
            devices = [DyserDevice(fabric=fabric, timing=timing)
                       for timing in timing_list]
            for dev in devices:
                for config in configs:
                    dev.register_config(config)
            values = DyserValues(devices[0].configs, plan)
            outputs, fires = [], [[] for _ in devices]
            ts = [0] * len(devices)
            for cid, ks in phases:
                values.init_config(cid)
                for d, dev in enumerate(devices):
                    ts[d] = dev.init_config(cid, ts[d])
                for k in ks:
                    values.send(0, k)
                    values.send(1, 10 + k)
                    for d, dev in enumerate(devices):
                        dev.send(0, ts[d])
                        ts[d] = dev.send(1, ts[d] + k % 3)
                for _ in ks:
                    outputs.append(values.recv(0))
                    for d, dev in enumerate(devices):
                        ts[d] = dev.recv(0, ts[d])
                for d, dev in enumerate(devices):
                    fires[d].append(list(dev.fire_times))
            return outputs, fires

        calls = []

        def counted(config):
            evaluator = FunctionalEvaluator(config.dfg)
            plan = evaluator.run
            evaluator.run = lambda *v: calls.append(config.config_id) \
                or plan(*v)
            return evaluator

        outputs, fires = drive(timings, counted)
        assert calls == [0, 0, 0, 1, 1, 0, 0, 0]
        assert outputs == [2 * k + 10 for k in range(3)] \
            + [k * (10 + k) for k in (3, 4)] \
            + [2 * k + 10 for k in range(5, 8)]
        for d, timing in enumerate(timings):
            assert drive([timing]) == (outputs, [fires[d]])
        assert len({str(f) for f in fires}) == len(timings)
