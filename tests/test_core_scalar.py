"""Tests for the host core: functional correctness and timing behaviour."""

import pytest

from repro.cpu import BatchCore, Core, CoreConfig, FastCore, Memory, StallCause
from repro.errors import SimulationError
from repro.isa import assemble


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


def _run_on(backend, source):
    program, memory = assemble(source), Memory(1 << 16)
    if backend == "batched":
        core = BatchCore(program, memory, [None], [CoreConfig()])
        [stats] = core.run()
        assert stats is not None, core.evicted
    else:
        core = {"reference": Core, "fast": FastCore}[backend](program, memory)
        core.run()
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
