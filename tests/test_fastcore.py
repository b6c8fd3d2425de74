"""Differential tests for solo runs on the batched backend.

A solo run is a lane of one on :class:`BatchCore`, and its whole value
rests on one claim: it is *cycle-exact-equal* to the reference
:class:`Core`.  These tests attack that claim from several directions:

- the full workload suite, both modes, at tiny AND small scales, with
  byte-identical ``RunResult.to_dict()`` (the acceptance criterion);
- non-default knobs (geometry, unroll, FIFO depth, config cache, port
  width) and seeds;
- randomly generated assembled programs (hypothesis), compared on
  stats, registers and touched memory;
- instruction limits, including the exact error message and a limit
  that lands inside a block (a lane of one never evicts);
- backend dispatch: tracing transparently resolves batched ->
  reference and never changes reported cycles;
- the decode cache: identity-keyed, cleared by ``clear_caches``,
  evicted when programs are garbage collected.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import (
    BatchCore,
    Core,
    CoreConfig,
    LaneOfOne,
    Memory,
    clear_decode_caches,
    decode_cache_size,
    decode_program,
)
from repro.compiler import CompilerOptions
from repro.dyser import DyserTimingParams, Fabric, FabricGeometry
from repro.dyser.config_cache import ConfigCacheParams
from repro.errors import SimulationError
from repro.harness import (
    RunConfig,
    TraceOptions,
    backend_names,
    get_backend,
    resolve_backend,
    run_workload,
    verify_parity,
)
from repro.harness.parity import diff_summaries, suite_configs
from repro.isa import assemble
from repro.workloads import names as workload_names


# ---------------------------------------------------------------------
# Suite-wide differential parity (the acceptance criterion)
# ---------------------------------------------------------------------

class TestSuiteParity:
    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("mode", ["scalar", "dyser"])
    def test_tiny_scale_byte_identical(self, name, mode):
        report = verify_parity([RunConfig(workload=name, mode=mode,
                                          scale="tiny")])
        assert report.ok, report.summary()

    def test_small_scale_whole_suite(self):
        report = verify_parity(suite_configs(scale="small"))
        assert report.checked == 2 * len(workload_names())
        assert report.ok, report.summary()

    def test_seeds_vary_inputs_not_parity(self):
        configs = [RunConfig(workload=w, mode="dyser", scale="tiny",
                             seed=s)
                   for w in ("kmeans", "mm", "spmv")
                   for s in (1, 2, 3)]
        report = verify_parity(configs)
        assert report.ok, report.summary()

    def test_non_default_knobs(self):
        options = CompilerOptions(
            fabric=Fabric(FabricGeometry(4, 4)), unroll=2,
            vectorize=False)
        timing = DyserTimingParams(input_fifo_depth=1,
                                   output_fifo_depth=2,
                                   initiation_interval=3)
        configs = [
            RunConfig(workload="vecadd", mode="dyser", scale="tiny",
                      options=options, timing=timing,
                      cache_params=ConfigCacheParams(capacity=0)),
            RunConfig(workload="fir", mode="dyser", scale="tiny",
                      options=options),
            RunConfig(workload="mm", mode="dyser", scale="tiny",
                      core_config=CoreConfig(
                          has_dyser=True,
                          vector_port_words_per_cycle=4)),
        ]
        report = verify_parity(configs)
        assert report.ok, report.summary()

    def test_diff_summaries_localizes_divergence(self):
        a = {"stats": {"cycles": 10, "instructions": 5}}
        b = {"stats": {"cycles": 11, "instructions": 5}}
        assert diff_summaries(a, b) == ["stats.cycles"]
        assert diff_summaries(a, a) == []


# ---------------------------------------------------------------------
# Random assembled programs (property-based)
# ---------------------------------------------------------------------

_INT3 = ("add", "sub", "mul", "div", "rem", "and", "or", "xor",
         "sll", "srl", "sra", "slt", "seq", "min", "max")
_INTI = ("addi", "muli", "andi", "ori", "xori", "slti")
_SHIFTI = ("slli", "srli", "srai")
_FP3 = ("fadd", "fsub", "fmul", "fmin", "fmax")
_FPCMP = ("flt", "fle", "feq")
_FP1 = ("fneg", "fabs")

#: Scratch layout: integer stores stay in [BASE, BASE+120], float
#: stores in [BASE+128, BASE+248] — loads never see a cross-typed word
#: that could raise on conversion (int(inf) etc.).
_BASE = 4096

_regs = st.integers(min_value=1, max_value=7)
_imms = st.integers(min_value=-64, max_value=64)
_shifts = st.integers(min_value=0, max_value=63)
_slots = st.integers(min_value=0, max_value=15)
_fvals = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@st.composite
def _insn(draw) -> str:
    kind = draw(st.sampled_from(
        ("int3", "int3", "inti", "shifti", "li", "mov", "sel",
         "fp3", "fpcmp", "fp1", "fli", "i2f",
         "ld", "st", "fld", "fst")))
    rd, r1, r2, r3 = (draw(_regs) for _ in range(4))
    if kind == "int3":
        return f"{draw(st.sampled_from(_INT3))} r{rd}, r{r1}, r{r2}"
    if kind == "inti":
        return (f"{draw(st.sampled_from(_INTI))} r{rd}, r{r1}, "
                f"{draw(_imms)}")
    if kind == "shifti":
        return (f"{draw(st.sampled_from(_SHIFTI))} r{rd}, r{r1}, "
                f"{draw(_shifts)}")
    if kind == "li":
        return f"li r{rd}, {draw(_imms)}"
    if kind == "mov":
        return f"mov r{rd}, r{r1}"
    if kind == "sel":
        return f"sel r{rd}, r{r1}, r{r2}, r{r3}"
    if kind == "fp3":
        return f"{draw(st.sampled_from(_FP3))} f{rd}, f{r1}, f{r2}"
    if kind == "fpcmp":
        return f"{draw(st.sampled_from(_FPCMP))} r{rd}, f{r1}, f{r2}"
    if kind == "fp1":
        return f"{draw(st.sampled_from(_FP1))} f{rd}, f{r1}"
    if kind == "fli":
        return f"fli f{rd}, {draw(_fvals)!r}"
    if kind == "i2f":
        return f"i2f f{rd}, r{r1}"
    slot = draw(_slots)
    if kind == "ld":
        return f"ld r{rd}, r8, {8 * slot}"
    if kind == "st":
        return f"st r{r1}, r8, {8 * slot}"
    if kind == "fld":
        return f"fld f{rd}, r8, {128 + 8 * slot}"
    return f"fst f{r1}, r8, {128 + 8 * slot}"


@st.composite
def _programs(draw) -> str:
    """Random straight-line blocks joined by *forward* control flow.

    Branches and jumps only ever target later blocks, so every
    generated program terminates; r8 holds the scratch base and is
    never a destination, so memory accesses stay in bounds.
    """
    n_blocks = draw(st.integers(min_value=1, max_value=5))
    lines = [f"li r8, {_BASE}"]
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        lines.append(f"li r{i % 7 + 1}, {draw(_imms)}")
        lines.append(f"fli f{i % 7 + 1}, {draw(_fvals)!r}")
    for b in range(n_blocks):
        lines.append(f"L{b}:")
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            lines.append(draw(_insn()))
        if b + 1 < n_blocks:
            target = draw(st.integers(min_value=b + 1,
                                      max_value=n_blocks - 1))
            op = draw(st.sampled_from(
                ("beq", "bne", "blt", "bge", "ble", "bgt", "j", "")))
            if op == "j":
                lines.append(f"j L{target}")
            elif op:
                lines.append(f"{op} r{draw(_regs)}, r{draw(_regs)}, "
                             f"L{target}")
    lines.append("halt")
    return "\n".join(lines)


def _solo(core_cls, program, memory, config=None):
    """A solo core: the reference, or a lane of one."""
    if core_cls is BatchCore:
        return BatchCore(program, memory, [None], [config or CoreConfig()])
    return core_cls(program, memory, config=config)


def _run(core):
    stats = core.run()
    if isinstance(core, BatchCore):
        [stats] = stats
    return stats


def _run_on(core_cls, program, config=None):
    memory = Memory(1 << 16)
    core = _solo(core_cls, program, memory, config)
    stats = _run(core)
    words = [memory.load_word(_BASE + 8 * i) for i in range(32)]
    return stats, core.iregs._regs[:], core.fregs._regs[:], words


class TestRandomProgramParity:
    @settings(max_examples=60, deadline=None)
    @given(_programs())
    def test_random_program_parity(self, source):
        program = assemble(source, name="random")
        ref = _run_on(Core, program)
        lane = _run_on(BatchCore, program)
        assert ref[0].to_dict() == lane[0].to_dict()
        assert ref[1:] == lane[1:]

    @settings(max_examples=20, deadline=None)
    @given(_programs(), st.integers(min_value=1, max_value=40))
    def test_instruction_limit_parity(self, source, limit):
        """Either both complete with identical stats, or both raise
        the exact same limit error."""
        program = assemble(source, name="random")
        config = CoreConfig(max_instructions=limit)
        outcomes = []
        for cls in (Core, BatchCore):
            try:
                outcomes.append(("ok", _run_on(cls, program, config)))
            except SimulationError as exc:
                outcomes.append(("err", str(exc)))
        kinds = [k for k, _ in outcomes]
        assert kinds[0] == kinds[1], outcomes
        if kinds[0] == "ok":
            assert outcomes[0][1][0].to_dict() == outcomes[1][1][0].to_dict()
        else:
            assert outcomes[0][1] == outcomes[1][1]


class TestLimitMessages:
    def test_runaway_loop_message_identical(self):
        src = "L0:\nj L0\nhalt"
        program = assemble(src, name="spin")
        config = CoreConfig(max_instructions=10)
        errors = []
        for cls in (Core, BatchCore):
            with pytest.raises(SimulationError) as exc_info:
                _run(_solo(cls, program, Memory(1 << 16), config))
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1]
        assert "instruction limit 10 exceeded" in errors[0]

    def test_fell_off_end_message_identical(self):
        # Branch past the halt: pc walks off the program.
        program = assemble("li r1, 1\nbne r1, r0, L\nhalt\nL:", name="off")
        errors = []
        for cls in (Core, BatchCore):
            with pytest.raises(SimulationError) as exc_info:
                _run(_solo(cls, program, Memory(1 << 16)))
            errors.append(str(exc_info.value))
        assert errors[0] == errors[1]
        assert "fell off the end" in errors[0]

    def test_mid_block_limit_raises_without_eviction(self):
        # The limit of 3 lands inside the five-instruction entry block.
        program = assemble("li r1, 1\nli r2, 2\nadd r3, r1, r2\n"
                           "add r4, r3, r3\nhalt", name="mid")
        config = CoreConfig(max_instructions=3)
        with pytest.raises(SimulationError) as ref:
            Core(program, Memory(1 << 16), config=config).run()
        core = BatchCore(program, Memory(1 << 16), [None], [config])
        with pytest.raises(SimulationError) as lane:
            core.run()
        assert core.evicted == set()
        assert str(lane.value) == str(ref.value)


# ---------------------------------------------------------------------
# Backend dispatch and tracing
# ---------------------------------------------------------------------

class TestBackendDispatch:
    def test_registry_names(self):
        assert backend_names() == ("batched", "fast", "reference")
        assert get_backend("reference").core_cls is Core
        # Solo runs are lanes of one on the lockstep core, which also
        # runs the batched backend's wider lanes.
        assert get_backend("fast").core_cls is LaneOfOne
        assert get_backend("fast").batch_cls is None
        batched = get_backend("batched")
        assert batched.core_cls is LaneOfOne
        assert batched.batch_cls is BatchCore
        assert RunConfig(workload="mm").backend == "batched"

    def test_fast_resolves_to_reference_when_traced(self):
        base = RunConfig(workload="mm", scale="tiny", backend="batched")
        assert resolve_backend(base).name == "batched"
        traced = base.traced()
        assert resolve_backend(traced).name == "reference"
        # An instruction trace request also forces the reference core.
        instructions = base.traced(instructions=True)
        assert resolve_backend(instructions).name == "reference"

    def test_tracing_never_changes_reported_cycles(self):
        """The satellite contract: enabling the event stream (which
        silently swaps batched -> reference) must not move a single
        counter."""
        for mode in ("scalar", "dyser"):
            base = RunConfig(workload="fir", mode=mode, scale="tiny",
                             backend="batched")
            plain = run_workload(base)
            traced = run_workload(base.traced())
            assert traced.events is not None and plain.events is None
            assert plain.cycles == traced.cycles
            assert plain.stats.to_dict() == traced.stats.to_dict()
            assert plain.to_dict() == traced.to_dict()

    def test_profile_works_on_fast_backend(self):
        from repro import profile_workload

        report = profile_workload(RunConfig(
            workload="saxpy", scale="tiny", backend="batched",
            trace=TraceOptions(enabled=True)))
        assert report.result.correct
        assert report.result.events is not None
        untraced = run_workload(RunConfig(workload="saxpy", scale="tiny",
                                     backend="batched"))
        assert report.result.cycles == untraced.cycles

    def test_fastcore_refuses_tracing_loudly(self):
        program = assemble("halt", name="p")
        from repro.obs.events import EventStream

        with pytest.raises(SimulationError, match="trac"):
            LaneOfOne(program, Memory(1 << 16),
                      events=EventStream(capacity=8))
        with pytest.raises(SimulationError, match="trac"):
            LaneOfOne(program, Memory(1 << 16), trace_instructions=True)


# ---------------------------------------------------------------------
# The decode cache
# ---------------------------------------------------------------------

class TestDecodeCache:
    def test_identity_hit_and_clear(self):
        clear_decode_caches()
        program = assemble("li r1, 1\nadd r2, r1, r1\nhalt", name="p")
        d1 = decode_program(program)
        d2 = decode_program(program)
        assert d1 is d2
        assert decode_cache_size() == 1
        clear_decode_caches()
        assert decode_cache_size() == 0
        assert decode_program(program) is not d1

    def test_harness_clear_caches_drops_decodes(self):
        from repro.harness import clear_caches

        clear_decode_caches()
        program = assemble("halt", name="p")
        decode_program(program)
        assert decode_cache_size() == 1
        clear_caches()
        assert decode_cache_size() == 0

    def test_gc_evicts_dead_programs(self):
        clear_decode_caches()
        program = assemble("halt", name="p")
        decode_program(program)
        assert decode_cache_size() == 1
        del program
        gc.collect()
        assert decode_cache_size() == 0

    def test_repeated_runs_reuse_one_decode(self):
        clear_decode_caches()
        program = assemble("li r1, 2\nmul r2, r1, r1\nhalt", name="p")
        first = _run(_solo(BatchCore, program, Memory(1 << 16)))
        assert decode_cache_size() == 1
        second = _run(_solo(BatchCore, program, Memory(1 << 16)))
        assert decode_cache_size() == 1
        assert first.to_dict() == second.to_dict()
