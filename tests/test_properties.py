"""Property-based tests (hypothesis) on core data structures and
invariants.

The most load-bearing invariant is the co-design contract: a fabric op
computes exactly what the host ISA computes — checked op-by-op against
the core's evaluator on random operands.  Other properties cover the
affine algebra, 64-bit wrapping, the assembler round trip, parallel-copy
sequentialization, the invocation engine's ordering guarantees, and the
spatial scheduler on random DFGs.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.affine import Affine
from repro.cpu import Core, Memory, wrap64
from repro.dyser import (
    ConstRef,
    Dfg,
    DyserConfig,
    Fabric,
    FabricGeometry,
    FuOp,
    FunctionalEvaluator,
    NodeRef,
    PortRef,
    uniform_capabilities,
)
from repro.dyser.ops import FU_OP_INFO, FuCapability, evaluate, latency_of
from repro.isa import Instruction, Opcode, Program, assemble

ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
small_ints = st.integers(min_value=-(2**31), max_value=2**31 - 1)
floats = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestWrap64:
    @given(ints)
    def test_identity_in_range(self, x):
        assert wrap64(x) == x

    @given(st.integers())
    def test_range(self, x):
        w = wrap64(x)
        assert -(2**63) <= w < 2**63

    @given(st.integers(), st.integers())
    def test_addition_homomorphism(self, a, b):
        assert wrap64(wrap64(a) + wrap64(b)) == wrap64(a + b)

    @given(st.integers())
    def test_idempotent(self, x):
        assert wrap64(wrap64(x)) == wrap64(x)


def _value_pool():
    from repro.compiler.ir import Value
    from repro.compiler.types import Scalar

    return [Value(i, Scalar.INT, f"b{i}") for i in range(4)]


#: Shared base values: Value equality is identity, so affine laws only
#: make sense over a common pool.
_POOL = _value_pool()


class TestAffineAlgebra:
    @st.composite
    @staticmethod
    def affines(draw):
        n = draw(st.integers(min_value=0, max_value=3))
        form = Affine.constant(draw(small_ints))
        for i in range(n):
            coeff = draw(st.integers(min_value=-8, max_value=8))
            form = form.add(Affine.of(_POOL[i]).scale(coeff))
        return form

    @given(affines(), affines())
    def test_add_commutes(self, a, b):
        assert a.add(b) == b.add(a)

    @given(affines(), affines(), affines())
    def test_add_associates(self, a, b, c):
        assert a.add(b).add(c) == a.add(b.add(c))

    @given(affines())
    def test_sub_self_is_zero(self, a):
        delta = a.sub(a)
        assert delta.is_constant and delta.offset == 0

    @given(affines(), small_ints)
    def test_scale_distributes(self, a, k):
        assert a.add(a).scale(k) == a.scale(k).add(a.scale(k))

    @given(affines(), affines())
    def test_difference_detects_constant_offsets(self, a, b):
        shifted = a.add(Affine.constant(8))
        assert shifted.difference(a) == 8
        if a.sub(b).is_constant:
            assert a.difference(b) == a.sub(b).offset


def _operand_for(op: FuOp, draw_int, draw_float):
    info = FU_OP_INFO[op]
    is_float_op = op.value.startswith("f") and op not in (
        FuOp.F2I,) or op in (FuOp.FSEL,)
    # Build operands per slot with correct domains.
    operands = []
    for slot in range(info.arity):
        if op in (FuOp.SEL,):
            operands.append(draw_int())
        elif op is FuOp.FSEL:
            operands.append(draw_int() if slot == 0 else draw_float())
        elif op in (FuOp.I2F,):
            operands.append(draw_int())
        elif op.value.startswith("f"):
            operands.append(draw_float())
        else:
            operands.append(draw_int())
    return operands


class TestCoDesignContract:
    """Fabric ops and host instructions must agree bit-for-bit."""

    _FU_TO_MACHINE = {fu: Opcode(fu.value) for fu in FuOp}

    @given(st.sampled_from(sorted(FuOp, key=lambda o: o.value)),
           st.data())
    @settings(max_examples=300)
    def test_fabric_matches_host(self, op, data):
        operands = _operand_for(
            op,
            lambda: data.draw(small_ints),
            lambda: data.draw(floats),
        )
        if op is FuOp.FSQRT and operands[0] < 0:
            operands[0] = abs(operands[0])
        fabric_result = evaluate(op, *operands)

        # Run the same op through the host core.
        program = Program()
        info = FU_OP_INFO[op]
        machine = self._FU_TO_MACHINE[op]
        from repro.isa.opcodes import OP_INFO

        signature = OP_INFO[machine].signature
        fields = {"rd": 1}
        int_regs, fp_regs = {}, {}
        reg = 2
        for kind, value in zip(signature[1:], operands):
            slot = {"rs1": "rs1", "fs1": "rs1", "rs2": "rs2",
                    "fs2": "rs2", "rs3": "rs3", "fs3": "rs3"}[kind]
            fields[slot] = reg
            if kind.startswith("f"):
                fp_regs[reg] = float(value)
            else:
                int_regs[reg] = int(value)
            reg += 1
        program.add(Instruction(machine, **fields))
        program.add(Instruction(Opcode.HALT))
        program.link()
        core = Core(program, Memory(1 << 12))
        for r, v in int_regs.items():
            core.iregs.write(r, v)
        for r, v in fp_regs.items():
            core.fregs.write(r, v)
        core.run()
        writes_fp = "fd" in signature
        host_result = (core.fregs.read(1) if writes_fp
                       else core.iregs.read(1))
        if isinstance(fabric_result, float) and math.isnan(fabric_result):
            assert math.isnan(host_result)
        else:
            assert host_result == fabric_result, op


class TestAssemblerRoundtrip:
    regs = st.integers(min_value=0, max_value=31)
    ports = st.integers(min_value=0, max_value=15)

    @given(st.sampled_from(sorted(Opcode, key=lambda o: o.value)),
           st.data())
    @settings(max_examples=200)
    def test_text_roundtrip(self, op, data):
        from repro.isa.opcodes import OP_INFO

        fields = {}
        needs_label = False
        for kind in OP_INFO[op].signature:
            if kind in ("rd", "fd"):
                fields["rd"] = data.draw(self.regs)
            elif kind in ("rs1", "fs1"):
                fields["rs1"] = data.draw(self.regs)
            elif kind in ("rs2", "fs2"):
                fields["rs2"] = data.draw(self.regs)
            elif kind in ("rs3", "fs3"):
                fields["rs3"] = data.draw(self.regs)
            elif kind == "imm":
                if op in (Opcode.FLI,):
                    fields["imm"] = data.draw(floats)
                else:
                    fields["imm"] = data.draw(small_ints)
            elif kind == "port":
                fields["port"] = data.draw(self.ports)
            elif kind == "label":
                fields["target"] = "L"
                needs_label = True
        insn = Instruction(op, **fields)
        text = insn.text() + "\nL:\nhalt" if needs_label \
            else insn.text() + "\nhalt"
        program = assemble(text)
        assert program.instructions[0].text() == insn.text()


class TestInvocationOrdering:
    @given(st.lists(st.tuples(small_ints, small_ints),
                    min_size=1, max_size=20))
    def test_results_arrive_in_send_order(self, pairs):
        from tests.test_dyser_timing import Pipe

        dfg = Dfg()
        n = dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(1)])
        dfg.set_output(0, n)
        config = DyserConfig(0, dfg, Fabric(FabricGeometry(2, 2)))
        engine = Pipe([config], depth=64, geometry=(2, 2))
        engine.init_config(0, 0)
        for t, (a, b) in enumerate(pairs):
            engine.send(0, a, t)
            engine.send(1, b, t)
        results = [engine.recv(0, 0)[0] for _ in pairs]
        assert results == [wrap64(a + b) for a, b in pairs]

    @given(st.lists(st.integers(min_value=0, max_value=50),
                    min_size=2, max_size=20))
    def test_fire_times_monotonic(self, arrival_times):
        from tests.test_dyser_timing import Pipe

        dfg = Dfg()
        n = dfg.add_node(FuOp.ADD, [PortRef(0), ConstRef(1)])
        dfg.set_output(0, n)
        config = DyserConfig(0, dfg, Fabric(FabricGeometry(2, 2)))
        engine = Pipe([config], depth=64, geometry=(2, 2))
        engine.init_config(0, 0)
        for t in arrival_times:
            engine.send(0, 1, t)
        fires = engine.fire_times
        assert all(b > a for a, b in zip(fires, fires[1:]))
        for t, fire in zip(arrival_times, fires):
            assert fire >= t


@st.composite
def random_dfgs(draw):
    """Random acyclic DFGs over a few ports and binary FP/int ops."""
    ops = draw(st.lists(
        st.sampled_from([FuOp.ADD, FuOp.SUB, FuOp.MUL, FuOp.AND,
                         FuOp.FADD, FuOp.FMUL, FuOp.MIN]),
        min_size=1, max_size=10))
    dfg = Dfg("random")
    sources = [PortRef(0), PortRef(1), PortRef(2)]
    refs = []
    for i, op in enumerate(ops):
        pool = sources + refs
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(pool))
        # Keep types coherent: float ops read ports or float nodes.
        refs.append(dfg.add_node(op, [a, b]))
    dfg.set_output(0, refs[-1])
    return dfg


class TestSchedulerProperties:
    @given(random_dfgs())
    @settings(max_examples=40, deadline=None)
    def test_random_dfgs_place_route_and_validate(self, dfg):
        from repro.compiler.schedule import schedule

        geometry = FabricGeometry(4, 4)
        fabric = Fabric(geometry, uniform_capabilities(geometry))
        config = schedule(0, dfg, fabric)
        config.validate()
        # Placement is injective and capability-legal (validate checks),
        # and path delays are at least the op-latency lower bound.
        # NB: the bound is the depth of the cone actually feeding port 0,
        # not dfg.depth() — random DFGs can carry deeper dead chains that
        # never reach the output (exactly what lint's RPR205 flags).
        def cone_depth(src):
            if not isinstance(src, NodeRef):
                return 0
            node = dfg.nodes[src.node]
            return 1 + max((cone_depth(s) for s in node.inputs), default=0)

        delays = config.path_delays()
        assert delays[0] >= 1
        assert delays[0] >= cone_depth(dfg.outputs[0])  # each op >= 1 cycle

    @given(random_dfgs())
    @settings(max_examples=20, deadline=None)
    def test_functional_evaluation_type_stable(self, dfg):
        evaluator = FunctionalEvaluator(dfg)
        out = evaluator({0: 3, 1: 4, 2: 5})
        assert set(out) == {0}


class TestParallelCopyProperty:
    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=1, max_size=6))
    def test_sequentialized_moves_preserve_semantics(self, targets):
        """Random parallel move sets (including cycles) executed in the
        sequentialized order must produce the parallel-assignment
        result."""
        from repro.compiler.ir import Function, Value
        from repro.compiler.regalloc import _sequentialize
        from repro.compiler.types import Scalar

        func = Function("t")
        slots = [Value(i, Scalar.INT, f"v{i}") for i in range(6)]
        moves = [(slots[i], slots[src]) for i, src in enumerate(targets)]
        ordered = _sequentialize(func, moves)
        # Simulate: registers hold their own index initially.
        env = {v: i for i, v in enumerate(slots)}
        for dst, src in ordered:
            env[dst] = env[src] if src in env else env.setdefault(src, 0)
        expected = {slots[i]: targets[i] if i < len(targets) else i
                    for i in range(len(targets))}
        for i, src in enumerate(targets):
            assert env[slots[i]] == src, (targets, ordered)


@lru_cache(maxsize=32)
def _lint_report(name: str):
    from repro import lint_workload

    return lint_workload(name)


class TestSuiteLintProperty:
    """Every suite workload's compiled configuration lints clean: the
    scheduler never emits an error-severity ``RPR2xx`` finding, and the
    IR verifier accepts the pre- and post-offload SSA."""

    @given(st.sampled_from(sorted(__import__("repro").SUITE)))
    @settings(max_examples=18, deadline=None)
    def test_compiled_workload_lints_clean(self, name):
        report = _lint_report(name)
        assert report.ok, report.render()
        # Shape advisories never escalate to errors.
        for diag in report:
            if diag.code.startswith("RPR3"):
                assert diag.severity is not __import__(
                    "repro").Severity.ERROR


class TestCompiledExpressionProperty:
    @given(st.lists(small_ints, min_size=3, max_size=3),
           st.sampled_from(["+", "-", "*"]),
           st.sampled_from(["+", "-", "*"]))
    @settings(max_examples=30, deadline=None)
    def test_random_int_expression(self, vals, op1, op2):
        from repro.compiler import compile_scalar

        a, b, c = vals
        src = f"""
        kernel f(out int y[], int a, int b, int c) {{
            y[0] = (a {op1} b) {op2} c;
        }}
        """
        result = compile_scalar(src)
        memory = Memory(1 << 16)
        py = memory.alloc(1)
        core = Core(result.program, memory)
        core.set_args((py, a, b, c))
        core.run()
        expected = wrap64(eval(f"wrap64(a {op1} b) {op2} c",
                               {"a": a, "b": b, "c": c,
                                "wrap64": wrap64}))
        assert memory.load_word(py) == expected
