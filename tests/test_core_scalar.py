"""Tests for the host core: functional correctness and timing behaviour."""

import hashlib
import json

import pytest

from repro.cpu import BatchCore, Core, CoreConfig, Memory, StallCause
from repro.errors import SimulationError
from repro.isa import InsnClass, assemble


def run(source, memory=None, int_args=(), fp_args=(), config=None):
    memory = memory or Memory(1 << 16)
    core = Core(assemble(source), memory, config=config)
    core.set_args(int_args, fp_args)
    stats = core.run()
    return core, stats


class TestFunctional:
    def test_arithmetic(self):
        core, _ = run("""
            li  r1, 7
            li  r2, 3
            add r3, r1, r2
            sub r4, r1, r2
            mul r5, r1, r2
            div r6, r1, r2
            rem r7, r1, r2
            halt
        """)
        r = core.iregs.read
        assert (r(3), r(4), r(5), r(6), r(7)) == (10, 4, 21, 2, 1)

    def test_negative_division_truncates(self):
        core, _ = run("""
            li  r1, -7
            li  r2, 3
            div r3, r1, r2
            rem r4, r1, r2
            halt
        """)
        assert core.iregs.read(3) == -2
        assert core.iregs.read(4) == -1

    def test_logic_and_shifts(self):
        core, _ = run("""
            li   r1, 12
            li   r2, 10
            and  r3, r1, r2
            or   r4, r1, r2
            xor  r5, r1, r2
            slli r6, r1, 2
            srai r7, r1, 2
            halt
        """)
        r = core.iregs.read
        assert (r(3), r(4), r(5), r(6), r(7)) == (8, 14, 6, 48, 3)

    def test_compare_and_select(self):
        core, _ = run("""
            li  r1, 5
            li  r2, 9
            slt r3, r1, r2
            seq r4, r1, r2
            sel r5, r3, r1, r2
            sel r6, r4, r1, r2
            min r7, r1, r2
            max r8, r1, r2
            halt
        """)
        r = core.iregs.read
        assert (r(3), r(4), r(5), r(6), r(7), r(8)) == (1, 0, 5, 9, 5, 9)

    def test_fp_ops(self):
        core, _ = run("""
            fli   f1, 2.0
            fli   f2, 8.0
            fadd  f3, f1, f2
            fmul  f4, f1, f2
            fdiv  f5, f2, f1
            fsqrt f6, f2
            flt   r1, f1, f2
            fsel  f7, r1, f1, f2
            halt
        """)
        f = core.fregs.read
        assert f(3) == 10.0
        assert f(4) == 16.0
        assert f(5) == 4.0
        assert f(6) == pytest.approx(2.8284271247461903)
        assert core.iregs.read(1) == 1
        assert f(7) == 2.0

    def test_conversions(self):
        core, _ = run("""
            li  r1, 3
            i2f f1, r1
            fli f2, 2.75
            f2i r2, f2
            halt
        """)
        assert core.fregs.read(1) == 3.0
        assert core.iregs.read(2) == 2

    def test_loads_and_stores(self):
        mem = Memory(1 << 16)
        addr = mem.alloc_array([11, 22, 33])
        core, _ = run(f"""
            li r1, {addr}
            ld r2, r1, 8
            addi r2, r2, 1
            st r2, r1, 16
            halt
        """, memory=mem)
        assert mem.load_word(addr + 16) == 23

    def test_fp_memory(self):
        mem = Memory(1 << 16)
        addr = mem.alloc_array([1.5, 0.0])
        run(f"""
            li  r1, {addr}
            fld f1, r1, 0
            fadd f1, f1, f1
            fst f1, r1, 8
            halt
        """, memory=mem)
        assert mem.load_word(addr + 8) == 3.0

    def test_loop_sums_array(self):
        mem = Memory(1 << 16)
        addr = mem.alloc_array(list(range(1, 11)))
        core, _ = run(f"""
            li  r1, {addr}
            li  r2, {addr + 80}
            li  r3, 0
        loop:
            ld  r4, r1, 0
            add r3, r3, r4
            addi r1, r1, 8
            blt r1, r2, loop
            halt
        """, memory=mem)
        assert core.iregs.read(3) == 55

    def test_branch_variants(self):
        core, _ = run("""
            li r1, 5
            li r2, 5
            li r10, 0
            beq r1, r2, t1
            j end
        t1:
            addi r10, r10, 1
            bge r1, r2, t2
            j end
        t2:
            addi r10, r10, 1
            bgt r1, r2, bad
            ble r1, r2, t3
        bad:
            j end
        t3:
            addi r10, r10, 1
        end:
            halt
        """)
        assert core.iregs.read(10) == 3

    def test_kernel_arguments(self):
        core, _ = run("""
            add r1, r8, r9
            fadd f1, f8, f9
            halt
        """, int_args=(4, 5), fp_args=(0.5, 0.25))
        assert core.iregs.read(1) == 9
        assert core.fregs.read(1) == 0.75

    def test_runaway_guard(self):
        cfg = CoreConfig(max_instructions=100)
        with pytest.raises(SimulationError, match="instruction limit"):
            run("loop:\nj loop\nhalt", config=cfg)

    def test_fall_off_end(self):
        mem = Memory(1 << 16)
        program = assemble("nop\nhalt")
        # Mutate to remove halt's effect by branching past it.
        with pytest.raises(SimulationError):
            core = Core(assemble("j skip\nhalt\nskip:\nnop\nhalt"), mem)
            program2 = core.program
            del program2.instructions[-1]
            core.run()


class TestTiming:
    def test_straightline_alu_is_one_ipc(self):
        _, stats = run("\n".join(["addi r1, r1, 1"] * 50 + ["halt"]))
        # 51 instructions, no hazards beyond 1-cycle ALU bypass: every
        # non-issue cycle must be an I$ cold-miss bubble.
        assert stats.instructions == 51
        assert stats.cycles == 51 + stats.stall_cycles.get(
            StallCause.FETCH_MISS, 0)
        assert stats.stall_cycles.get(StallCause.DATA_HAZARD, 0) == 0

    def test_mul_latency_creates_hazard(self):
        spacer = "nop\n" * 10
        _, fast = run(f"li r1, 3\nmul r2, r1, r1\n{spacer}add r3, r2, r2\nhalt")
        _, slow = run("li r1, 3\nmul r2, r1, r1\nadd r3, r2, r2\nhalt")
        assert slow.stall_cycles.get(StallCause.DATA_HAZARD, 0) > 0
        assert fast.stall_cycles.get(StallCause.DATA_HAZARD, 0) == 0

    def test_taken_branch_penalty(self):
        cfg = CoreConfig(branch_taken_penalty=3)
        _, taken = run("li r1, 1\nli r2, 1\nbeq r1, r2, end\nend:\nhalt",
                       config=cfg)
        _, untaken = run("li r1, 1\nli r2, 2\nbeq r1, r2, end\nend:\nhalt",
                         config=cfg)
        assert taken.cycles == untaken.cycles + 3
        assert taken.stall_cycles[StallCause.BRANCH] == 3

    def test_load_miss_exposed_on_use(self):
        mem = Memory(1 << 16)
        addr = mem.alloc_array([1.0])
        src = f"""
            li  r1, {addr}
            fld f1, r1, 0
            fadd f2, f1, f1
            halt
        """
        _, stats = run(src, memory=mem)
        assert stats.stall_cycles.get(StallCause.LOAD_MISS, 0) > 0

    def test_load_hit_after_warm(self):
        mem = Memory(1 << 16)
        addr = mem.alloc_array([1.0, 2.0])
        src = f"""
            li  r1, {addr}
            fld f1, r1, 0
            fld f2, r1, 8
            fadd f3, f2, f2
            halt
        """
        _, stats = run(src, memory=mem)
        # Second load hits the same line: its consumer sees no miss stall
        # beyond the first load's fill.
        assert stats.dcache_hits >= 1

    def test_unpipelined_fpu_structural_stall(self):
        src = "fli f1, 1.0\nfli f2, 2.0\n" + \
              "fadd f3, f1, f2\nfadd f4, f1, f2\nfadd f5, f1, f2\nhalt"
        _, unpiped = run(src, config=CoreConfig(fpu_pipelined=False))
        _, piped = run(src, config=CoreConfig(fpu_pipelined=True))
        assert unpiped.cycles > piped.cycles
        assert unpiped.stall_cycles.get(StallCause.STRUCTURAL_FPU, 0) > 0
        assert piped.stall_cycles.get(StallCause.STRUCTURAL_FPU, 0) == 0

    def test_cycle_accounting_closes(self):
        mem = Memory(1 << 16)
        addr = mem.alloc_array(list(range(64)))
        src = f"""
            li  r1, {addr}
            li  r2, {addr + 512}
            li  r3, 0
        loop:
            ld  r4, r1, 0
            mul r4, r4, r4
            add r3, r3, r4
            addi r1, r1, 8
            blt r1, r2, loop
            halt
        """
        _, stats = run(src, memory=mem)
        assert stats.issue_cycles == stats.instructions
        assert stats.cycles == stats.instructions + stats.total_stalls

    def test_ipc_below_one(self):
        _, stats = run("li r1, 2\nmul r2, r1, r1\nmul r3, r2, r2\nhalt")
        assert stats.ipc < 1.0

    def test_insn_mix_in_first_execution_order(self):
        # Program order would put mul and halt before add.
        _, stats = run("j last\nback:\nmul r2, r1, r1\nhalt\n"
                       "last:\nadd r1, r1, r1\nj back")
        assert list(stats.insn_mix.items()) == [
            (InsnClass.JUMP, 2), (InsnClass.ALU, 1), (InsnClass.MUL, 1),
            (InsnClass.SYSTEM, 1)]


# ---------------------------------------------------------------------------
# Opcode value semantics, pinned by hand-written literals.  Every backend
# evaluates through one shared table, so these expected values are the
# independent check that the table itself is right.

_MIN64 = -(1 << 63)
_MAX64 = (1 << 63) - 1
_INF, _NAN = float("inf"), float("nan")


def _int(op, a, b, imm=None):
    """``rd = a <op> b`` (or ``a <op> imm``) into r3."""
    second = f"{imm}" if imm is not None else "r2"
    return (f"li r1, {a}\nli r2, {b}\n{op} r3, r1, {second}\nhalt",
            "r3")


def _fp(op, a, b=0.0):
    """``fd = a <op> b`` into f3 (or rd into r3 for the compares)."""
    dest = "r3" if op in ("flt", "fle", "feq", "f2i") else "f3"
    srcs = "f1" if op in ("fsqrt", "fneg", "fabs", "f2i") else "f1, f2"
    return (f"fli f1, {a!r}\nfli f2, {b!r}\n{op} {dest}, {srcs}\nhalt",
            dest)


def _branch(op, a, b):
    """r3 = 1 when ``op a, b`` is taken, else 0."""
    return (f"li r1, {a}\nli r2, {b}\nli r3, 1\n{op} r1, r2, skip\n"
            f"li r3, 0\nskip:\nhalt", "r3")


VALUE_CASES = {
    # integer
    "add": (_int("add", 7, -3), 4),
    "add-wraps": (_int("add", _MAX64, 1), _MIN64),
    "addi": (_int("addi", 5, 0, imm=-7), -2),
    "sub-wraps": (_int("sub", _MIN64, 1), _MAX64),
    "mul": (_int("mul", 3, -4), -12),
    "mul-wraps": (_int("mul", 1 << 62, 2), _MIN64),
    "muli": (_int("muli", -3, 0, imm=7), -21),
    "div-truncates": (_int("div", -7, 2), -3),
    "div-by-zero": (_int("div", 42, 0), -1),
    "div-min-by-minus-one": (_int("div", _MIN64, -1), _MIN64),
    "rem": (_int("rem", -7, 3), -1),
    "rem-by-zero": (_int("rem", -42, 0), -42),
    "rem-min-by-minus-one": (_int("rem", _MIN64, -1), 0),
    "and": (_int("and", 12, 10), 8),
    "andi": (_int("andi", -1, 0, imm=6), 6),
    "or": (_int("or", 12, 10), 14),
    "ori": (_int("ori", 8, 0, imm=3), 11),
    "xor": (_int("xor", 12, 10), 6),
    "xori": (_int("xori", -1, 0, imm=5), -6),
    "sll-into-sign": (_int("sll", 1, 63), _MIN64),
    "sll-amount-masked": (_int("sll", 3, 65), 6),
    "slli": (_int("slli", 3, 0, imm=4), 48),
    "srl-negative": (_int("srl", -1, 60), 15),
    "srl-amount-masked": (_int("srl", -16, 64), -16),
    "srli-negative": (_int("srli", -1, 0, imm=1), _MAX64),
    "sra-negative": (_int("sra", -16, 2), -4),
    "srai-amount-masked": (_int("srai", -16, 0, imm=66), -4),
    "slt-signed": (_int("slt", -1, 0), 1),
    "slti-false": (_int("slti", 5, 0, imm=5), 0),
    "seq": (_int("seq", -9, -9), 1),
    "min": (_int("min", -5, 3), -5),
    "max": (_int("max", -5, 3), 3),
    "sel-true-arm": (("li r1, 7\nli r2, 11\nsel r3, r1, r1, r2\nhalt",
                      "r3"), 7),
    "sel-false-arm": (("li r1, 7\nli r2, 11\nsel r3, r0, r1, r2\nhalt",
                       "r3"), 11),
    "write-r0": (("li r1, 7\nli r0, 5\nadd r0, r1, r1\nmov r3, r0\nhalt",
                  "r3"), 0),
    # floating point
    "fadd": (_fp("fadd", 1.5, 2.25), 3.75),
    "fsub": (_fp("fsub", 1.5, 2.25), -0.75),
    "fmul": (_fp("fmul", -1.5, 4.0), -6.0),
    "fdiv": (_fp("fdiv", 7.0, 2.0), 3.5),
    "fdiv-by-zero": (_fp("fdiv", 1.0, 0.0), _INF),
    "fdiv-negative-by-zero": (_fp("fdiv", -1.0, 0.0), _INF),
    "fsqrt": (_fp("fsqrt", 6.25), 2.5),
    "fsqrt-negative": (_fp("fsqrt", -1.0), _NAN),
    "fneg": (_fp("fneg", 2.5), -2.5),
    "fneg-zero": (_fp("fneg", 0.0), -0.0),
    "fabs": (_fp("fabs", -3.0), 3.0),
    "fmin": (_fp("fmin", -2.0, 1.0), -2.0),
    "fmax": (_fp("fmax", -2.0, 1.0), 1.0),
    "flt-equal": (_fp("flt", 2.0, 2.0), 0),
    "fle-equal": (_fp("fle", 2.0, 2.0), 1),
    "fle-greater": (_fp("fle", 3.0, 2.0), 0),
    "feq": (_fp("feq", 2.0, 2.0), 1),
    "feq-differs": (_fp("feq", 2.0, -2.0), 0),
    "f2i-truncates": (_fp("f2i", -2.75), -2),
    "f2i-wraps": (_fp("f2i", 1e19), 10 ** 19 - (1 << 64)),
    "i2f": (("li r1, -5\ni2f f3, r1\nhalt", "f3"), -5.0),
    "fsel-true-arm": (("li r1, 1\nfli f1, 1.5\nfli f2, 2.5\n"
                       "fsel f3, r1, f1, f2\nhalt", "f3"), 1.5),
    "fsel-false-arm": (("fli f1, 1.5\nfli f2, 2.5\n"
                        "fsel f3, r0, f1, f2\nhalt", "f3"), 2.5),
    "fp-compare-into-r0": (("fli f1, 1.0\nfle r0, f1, f1\nmov r3, r0\n"
                            "halt", "r3"), 0),
    # branches (signed compares; 1 = taken)
    "beq-taken": (_branch("beq", -4, -4), 1),
    "beq-not-taken": (_branch("beq", -4, 4), 0),
    "bne-taken": (_branch("bne", -4, 4), 1),
    "bne-not-taken": (_branch("bne", 4, 4), 0),
    "blt-taken": (_branch("blt", -1, 0), 1),
    "blt-not-taken": (_branch("blt", 0, 0), 0),
    "bge-taken": (_branch("bge", 0, 0), 1),
    "bge-not-taken": (_branch("bge", -1, 0), 0),
    "ble-taken": (_branch("ble", 0, 0), 1),
    "ble-not-taken": (_branch("ble", 1, 0), 0),
    "bgt-taken": (_branch("bgt", 1, _MIN64), 1),
    "bgt-not-taken": (_branch("bgt", 0, 0), 0),
}


#: Lane widths per parameter id: ``fast`` runs a lane of one, as solo
#: runs do; ``batched`` runs a two-point lane whose points differ in a
#: per-point knob.
_LANES = {"fast": 1, "batched": 2}


def _run_on(backend, source):
    program, memory = assemble(source), Memory(1 << 16)
    if backend == "reference":
        core = Core(program, memory)
        core.run()
        return core
    configs = [CoreConfig(vector_port_words_per_cycle=rate)
               for rate in (1, 4)[:_LANES[backend]]]
    core = BatchCore(program, memory, [None] * len(configs), configs)
    assert None not in core.run(), core.evicted
    return core


@pytest.mark.parametrize("backend", ["reference", "fast", "batched"])
@pytest.mark.parametrize("case", sorted(VALUE_CASES))
def test_opcode_value_semantics(backend, case):
    (source, dest), expected = VALUE_CASES[case]
    core = _run_on(backend, source)
    regs = core.iregs if dest[0] == "r" else core.fregs
    value = regs.read(int(dest[1:]))
    assert type(value) is type(expected)
    # repr keeps NaN and the sign of zero exact.
    assert repr(value) == repr(expected)


# ---------------------------------------------------------------------------
# Golden digests of the reference core.  One sha256 per traced suite run
# at ``tiny`` (its ``RunResult.to_dict()`` plus every cycle-domain event,
# per-instruction events included) and one over the outcomes of the
# first generated fuzz cases (summaries and stable error strings).  A
# change meant to move the reference core
# regenerates the table with ``PYTHONPATH=src python
# tests/test_core_scalar.py``.

#: Generated cases (``CaseGenerator(seed=0)``) the outcome digest covers.
GENERATED_CASES = 900


def _digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def reference_cases() -> list[str]:
    """``name/mode`` keys of the traced suite runs."""
    from repro.workloads import SUITE

    # Content-addressed ``dsl:`` kernels other tests register at run
    # time are not part of the shipped suite.
    suite = sorted(name for name in SUITE if not name.startswith("dsl:"))
    return [f"{name}/{mode}" for name in suite
            for mode in ("scalar", "dyser")]


def traced_run_digest(case: str) -> str:
    from repro import RunConfig
    from repro.harness.runner import _compile, _default_options, run_workload
    from repro.obs.events import CYCLES, TraceOptions

    name, mode = case.split("/")
    config = RunConfig(workload=name, mode=mode, scale="tiny",
                       backend="reference",
                       trace=TraceOptions(enabled=True, instructions=True))
    # The compile memo: a traced run compiles afresh otherwise, and its
    # compiler events are wall-clock ones this digest leaves out.
    compiled = _compile(name, mode, _default_options(config))
    result = run_workload(config, compiled)
    events = [[e.name, e.category, e.phase, e.ts, e.dur, e.args]
              for e in result.events if e.domain == CYCLES]
    return _digest({"result": result.to_dict(), "events": events})


def generated_outcomes_digest() -> str:
    from repro.harness.fuzz.generator import CaseGenerator
    from repro.harness.fuzz.oracles import run_case

    return _digest([run_case(case, Core)
                    for case in CaseGenerator(seed=0).cases(
                        GENERATED_CASES)])


#: Key -> sha256; see the comment above ``GENERATED_CASES``.
REFERENCE_DIGESTS: dict[str, str] = {
    'collatz_diamonds/scalar':
        '00296b7e5d365016f1451819dea9fdb356b753ab3ec8b565e889b3a6c93d7ae6',
    'collatz_diamonds/dyser':
        '647784d3331f796c26e1849c55fd02cb769e5ea9e8957db4ff06a9a5c4d45313',
    'conv2d/scalar':
        '189706c533d2ae0f4f2fb9d483ed5934e12fc9b3230329f62870bc8d7c0624ca',
    'conv2d/dyser':
        '50fe378e2fcfe4bd0fc92f68ea09bd797a8c7971f9669cbcfeb02a99cefc4bcd',
    'dag_reduce_dsl/scalar':
        '61c1ec8247ab6cbc34cfbbfa02818d30643fb4368c37c234313c38abc3b30d90',
    'dag_reduce_dsl/dyser':
        '3fa38a566b73558e04262703f0aef9fd6250c3d781f6aff0366a7bc4ef98f4af',
    'dotprod/scalar':
        'b08c7e84809572c03e8501d87fd7d449d96e866b0058432ffa35e899eb1bd1df',
    'dotprod/dyser':
        '60b3633bb4d2b39957bdad35fc3f8522cec1452f683276e8d443c522e6949c2a',
    'fft_stage/scalar':
        '3e7c08b3753ce3bbfaa139e5326014dffb22b651d4d09c0dac28137220e31098',
    'fft_stage/dyser':
        '5985ae039a9cbdaf4c25d411f355e3384ea13d09e1154e97cb4983ea941e7150',
    'fir/scalar':
        'c2f70d0bfeaad72a03d4209b9185f648d88f3c594090f1901c1233525a488a03',
    'fir/dyser':
        'a1c637392096a6a0c9e21a1ecc4a3add8b144042d301da2630eb2337b8fcd9f4',
    'hist_branchy_dsl/scalar':
        '18a832ee1fad58a36c123efa440e6fa6e5c1fa8bfeb513db7f937885ddfab5a0',
    'hist_branchy_dsl/dyser':
        'd2d09c1c353fca972884fc3f15086f30750126a4c61fc5718b2408441be69f5b',
    'hist_weighted/scalar':
        '57844d8f3fa0a7e52fede0d85e4b3d182ea250f7231fa08b298076c5ce05029d',
    'hist_weighted/dyser':
        '9396029676aeda56bf1ab1e3345b9229ce8ca65ba2352df9a65d6f2a79ba0ba2',
    'kmeans/scalar':
        '0aec0d37e5e2d1304a2b2e486c2e292d784cb1809c7ac4899a367500cd879676',
    'kmeans/dyser':
        '9a6b44213e1d2b6b59d75258767a8ef09c2ad49c05479b3a78ac331b2cf5aa32',
    'mm/scalar':
        '99bebaa7d9cd6a90f333dbb8b5c2154a5ba66a56f57436503fee27106a664252',
    'mm/dyser':
        '0fa84371d893759ce500a9592577f9e1018c8d2fc88c389492422b3364420eea',
    'mriq/scalar':
        '086d504c055f8e07c69bb1bc28282382858aefdd242a87b69d55bec889f5cf7c',
    'mriq/dyser':
        'd0126d1e5f54b0d81114723cb8f6c7243ae207b357b11943c49e62464855db97',
    'nbody/scalar':
        '61675edbb568c82f5f25646021b5670ec6244eee947d8b247a52c4079b17bb05',
    'nbody/dyser':
        'a209a0631886ae8cef6a8ffa670faf3f4c3f3befecf719676d9ee47039d69d66',
    'needle/scalar':
        '26c27731144266d506ec589bc9f0f7420b20f58a579c89db70ab689963659f26',
    'needle/dyser':
        'fc181e5c4fe696d356f39e279662a5cb2d3a9672015cafad7ea5a8c69d313eab',
    'newton_lcd/scalar':
        '67f439f8664c5470c90fdc813716b52b0dd1e7ccbb1c953e9af86c2c9f833712',
    'newton_lcd/dyser':
        '717036332e38aa8dea33f30bb05e86b9f22cf264862d604ce5252e3ac6900b35',
    'ptr_chase_dsl/scalar':
        'c5a4090b0b9bad3caae028c30c4df92bcb8fdfc530684603b9f173924f697f7b',
    'ptr_chase_dsl/dyser':
        'e5217634a3233c5770e60b042af6490a99656682f2db0bf3b038d65271e10a74',
    'sad/scalar':
        '47506173e6812c6d142553e73c36f6dbf3cf359b6df2eb216e4eb856497c53e3',
    'sad/dyser':
        'd789fcc048f0a093602f121fe05c603792cff38c4c6c35d7ceaf08cfd4867884',
    'saxpy/scalar':
        '40f017204fa72d6a8b88a658e0c74c46d955c3a91952d573bea1e2031181ca50',
    'saxpy/dyser':
        '12e9d8391eabefbc3c158fee54ce6deaf75dd78b5f906306bfa57fd03896ce8b',
    'spmv/scalar':
        '57f97d865984322173a2937e0e5e9375f9c9c7bbba4bb9b31a5cdcccf488bf62',
    'spmv/dyser':
        '14b3be57d6567d23d0cf6ef0535bbe0d767d716e89284f66c4ec2c22ee43c9bb',
    'spmv_csr_dsl/scalar':
        '18dd925ec25e1a661c0d408158d993975db10eb2e677e3493939c0444a32620a',
    'spmv_csr_dsl/dyser':
        'bb9c72fcefec4fdbeb2d5b2d9ed78b996bf6b99ffaa2ae2b77f77adf5ffcede8',
    'stencil2d/scalar':
        '1dc82622d7bf416823a5eba2fd906226734b6ed8615d4a7cf1be9aa44aaff432',
    'stencil2d/dyser':
        'bf25d67cbb684c53c4d448473eed185f8643c58b28c3797cc2ef9ea910b254c1',
    'tpacf_bin/scalar':
        '73c200ef0072e9728d774a7a7a2c0674f7a15617447b03d3b5763595b2fdca11',
    'tpacf_bin/dyser':
        'd3263abead34a4e253efd8b0b0aca5fa2776222321e960b9d796ee40c61be6ee',
    'vecadd/scalar':
        'cc63c506021c49c3f67210bea5cf27d39f912fb96464f4b80965814794aa9e3c',
    'vecadd/dyser':
        '623dd3847e164a3dcacde1769184e848804d29d68571f96d244f8d02f8715e69',
    'generated':
        '5f1965183943fbcf38542aac170b226c4c3921b2509c1801d9fa7bb8f6dde9d5',
}


def test_reference_table_covers_cases():
    assert sorted(REFERENCE_DIGESTS) == sorted(
        reference_cases() + ["generated"])


@pytest.mark.parametrize("case", reference_cases())
def test_traced_reference_run_is_pinned(case):
    assert traced_run_digest(case) == REFERENCE_DIGESTS[case]


def test_generated_outcomes_are_pinned():
    assert generated_outcomes_digest() == REFERENCE_DIGESTS["generated"]


if __name__ == "__main__":
    table = {case: traced_run_digest(case) for case in reference_cases()}
    table["generated"] = generated_outcomes_digest()
    for key, value in table.items():
        print(f"    {key!r}:\n        {value!r},")
