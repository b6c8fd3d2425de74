"""Static performance-bound analyzer: predict cycles without simulating.

``analyze_program`` runs an *abstract interpretation* of a compiled
program against its statically known initial environment (the prepared
memory image, the kernel arguments, zero-initialized register files).
The abstract domain is "concrete value or unknown", and the interpreter
is the reference core's own loop: :class:`_Walker` is a
:class:`repro.cpu.core.Core` whose values may be None (unknown), and it
overrides only the core's hooks.  The walk degrades gracefully when a
value cannot be resolved (a branch condition or address derived from
data the analysis chose not to track), guessing control flow
conservatively and flagging the prediction *inexact*.  When every value
resolves, the walk is the reference run, so the prediction is exact by
construction; the independent checks are the lockstep core
(:mod:`repro.cpu.decode`), which E11 and the ``perfbound`` fuzz oracle
measure against.

Three results come out of one walk:

- **predicted cycles** (and cycles per invocation) — exact when every
  branch and address resolved, an estimate otherwise;
- a **sound lower bound** on cycles: for exact walks the prediction
  itself; for inexact walks the weighted shortest path through the
  instruction graph (every instruction occupies >= 1 issue slot, taken
  branches and jumps pay the redirect penalty), which every execution
  must pay.  The ``perfbound`` fuzz oracle holds this bound against the
  lockstep core on generated programs: bound <= measured, always;
- a **per-region bottleneck attribution** (:class:`RegionPerf`): each
  DySER configuration's invocations are decomposed into
  recurrence-serialization cycles (blocking ``drecv`` waits on a
  loop-carried value that round-trips through the core — the E6
  dotprod gap), port/bandwidth occupancy (interface issue slots plus
  vector-transfer occupancy and send backpressure), configuration
  reload stalls (the E9b config-cache-thrash axis) and residual host
  cycles.  ``perf_report`` renders the attribution as the ``RPR4xx``
  diagnostics behind ``repro lint --perf``.

The fabric is modelled by the core's own two halves: the *real*
:class:`DyserDevice` flow control, whose timing is value-independent,
and a :class:`~repro.dyser.functional.DyserValues` whose plans propagate
"unknown" through the DFG, so a partially resolved region still fires
at exact times.

``estimate_job_cost`` is the engine/service pre-flight cost: the
cycles a finished run of the job's shape (the spec without its seed)
took, recorded by :func:`record_job_cycles`.  It never walks;
:func:`repro.engine.pool.run_jobs` orders lanes longest-first with it
and the service scheduler turns it into queue-wait estimates and a
cost-aware ``Retry-After``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from functools import partial

from repro.analysis.diagnostics import DiagnosticReport
from repro.cpu.core import _LSU_KINDS, Core, CoreConfig
from repro.cpu.memory import Memory
from repro.cpu.rules import (
    K_BAD_IMM, K_BRANCH, K_DYSER, K_FLD, K_FLI, K_FMOV, K_FPU, K_HALT, K_JUMP,
    K_LI, K_MOV, K_NOP, K_SEL)
from repro.cpu.statistics import StallCause
from repro.dyser.config_cache import ConfigCacheParams
from repro.dyser.fabric import Fabric
from repro.dyser.functional import DyserValues, FunctionalEvaluator
from repro.dyser.interface import DyserDevice
from repro.dyser.timing import DyserTimingParams
from repro.errors import ReproError, SimulationError
from repro.isa.opcodes import InsnClass, Opcode
from repro.isa.program import Program

#: Default walk budget, in instructions.  Every instruction occupies at
#: least one cycle, so this also bounds the predictable cycle count.
DEFAULT_STEP_LIMIT = 1_000_000

#: How many times an *unknown* backward branch is guessed taken before
#: the walk falls through (prevents unbounded loops over unknown trip
#: counts; any guess marks the walk inexact).
_BACKWARD_GUESSES = 2


# ---------------------------------------------------------------------------
# results


@dataclass
class RegionPerf:
    """Bottleneck attribution for one DySER configuration."""

    config_id: int
    invocations: int
    #: Static recv->send loop-carried dependence through the core.
    recurrence: bool
    #: Cycles/invocation the pipeline blocked on ``drecv`` for a
    #: loop-carried value (only attributed when ``recurrence``).
    recurrence_ii: float
    #: Interface issue slots + vector occupancy + send backpressure
    #: (+ non-recurrent recv drain waits), per invocation.
    port_ii: float
    #: Non-compulsory configuration reload stall cycles per invocation.
    config_ii: float
    #: Residual host cycles per invocation while this config was live.
    host_ii: float
    #: Critical output path delay of the configuration (cycles).
    path_delay: int
    config_words: int
    #: Dominant component: "recurrence" | "port" | "config" | "host".
    bottleneck: str

    def to_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "invocations": self.invocations,
            "recurrence": self.recurrence,
            "recurrence_ii": round(self.recurrence_ii, 3),
            "port_ii": round(self.port_ii, 3),
            "config_ii": round(self.config_ii, 3),
            "host_ii": round(self.host_ii, 3),
            "path_delay": self.path_delay,
            "config_words": self.config_words,
            "bottleneck": self.bottleneck,
        }


@dataclass
class PerfPrediction:
    """Everything one static walk of a program produced."""

    subject: str
    mode: str
    #: Predicted total cycles (None when the walk could not complete).
    predicted_cycles: int | None
    #: Sound lower bound: never exceeds the simulator's cycle count.
    lower_bound: int
    invocations: int
    instructions: int
    #: True when every branch and address resolved — the prediction is
    #: then the exact cycle count of the reference model.
    exact: bool
    #: True when the walk ran to HALT (False: structural bound only).
    walked: bool
    work_items: int | None
    regions: list[RegionPerf] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def cycles_per_invocation(self) -> float | None:
        if self.predicted_cycles is None or not self.invocations:
            return None
        return self.predicted_cycles / self.invocations

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "mode": self.mode,
            "predicted_cycles": self.predicted_cycles,
            "lower_bound": self.lower_bound,
            "invocations": self.invocations,
            "instructions": self.instructions,
            "exact": self.exact,
            "walked": self.walked,
            "work_items": self.work_items,
            "cycles_per_invocation": self.cycles_per_invocation,
            "regions": [r.to_dict() for r in self.regions],
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# structural lower bound


def _structural_bound(program: Program, branch_taken_penalty: int) -> int:
    """Weighted shortest path from entry to any HALT.

    Every instruction occupies at least one issue slot (each arm of the
    scoreboard model advances the cursor by >= 1); taken branches and
    jumps additionally pay the full redirect penalty.  Every execution
    that halts follows *some* path through the instruction graph and
    pays at least these costs, so the shortest-path distance is a sound
    lower bound on cycles.  Returns 0 when no HALT is reachable (the
    simulator would fault — no bound to give).
    """
    insns = program.instructions
    n = len(insns)
    if not n:
        return 0
    dist = [None] * n
    heap: list[tuple[int, int]] = [(0, 0)]
    best = None
    while heap:
        d, i = heapq.heappop(heap)
        if i >= n or dist[i] is not None:
            continue
        dist[i] = d
        insn = insns[i]
        op = insn.op
        iclass = insn.info.iclass
        if op is Opcode.HALT:
            best = d + 1 if best is None else min(best, d + 1)
            continue
        if iclass is InsnClass.JUMP:
            tgt = insn.target_index
            if tgt is not None and 0 <= tgt < n and dist[tgt] is None:
                heapq.heappush(heap, (d + 1 + branch_taken_penalty, tgt))
            continue
        if i + 1 < n and dist[i + 1] is None:
            heapq.heappush(heap, (d + 1, i + 1))
        if iclass is InsnClass.BRANCH:
            tgt = insn.target_index
            if tgt is not None and 0 <= tgt < n and dist[tgt] is None:
                heapq.heappush(heap, (d + 1 + branch_taken_penalty, tgt))
    return best or 0


# ---------------------------------------------------------------------------
# unknown-tolerant DFG evaluation


class _AbstractEvaluator(FunctionalEvaluator):
    """FunctionalEvaluator that propagates unknown (None) inputs.

    Timing on the device is value-independent, so firing
    with unknown inputs just produces unknown outputs at exact times.
    A genuine evaluation fault (which would crash the simulator) also
    degrades to unknown, after flagging the walk inexact.
    """

    def __init__(self, dfg, on_fault) -> None:
        super().__init__(dfg)
        plan = self.run
        unknown = (None,) * len(self.output_ports)

        def run(*values):
            if None in values:
                return unknown
            try:
                return plan(*values)
            except Exception:
                on_fault("DFG evaluation faulted")
                return unknown

        self.run = run


# ---------------------------------------------------------------------------
# the walker


#: What a configuration's account (:attr:`_Walker.acct`) adds up.
_ACCT_KEYS = ("fires", "seg_cycles", "iface_slots", "addr_cycles",
              "send_wait", "recv_wait", "reload_stall")


def _retire(icost: list, iorigin: list, forigin: list, srcs: tuple,
            chained: bool, int_rd: int, fp_rd: int | None,
            moved: int | None) -> None:
    """Provenance and address chains of one host instruction: ``srcs``
    end their chains, a ``chained`` result (integer ALU, ``li``,
    ``mov``) starts one that sums them plus one, any other result
    starts none, and only a move of register ``moved`` keeps its
    source's provenance."""
    cost = 1
    for reg in srcs:
        cost += icost[reg]
        icost[reg] = 0
    if int_rd:
        icost[int_rd] = cost if chained else 0
        iorigin[int_rd] = None if moved is None else iorigin[moved]
    if fp_rd is not None:
        forigin[fp_rd] = None if moved is None else forigin[moved]


class _WalkMemory(Memory):
    """The walk's view of a prepared memory image: it adopts the image's
    words, a word holding None is unknown, and after :meth:`forget`
    (a store to an unknown address) every load is."""

    def __init__(self, image: Memory) -> None:
        self.size_bytes = image.size_bytes
        self._words = image._words
        self._brk = image._brk
        self._forgotten = False

    def forget(self) -> None:
        self._forgotten = True

    def load_word(self, address: int):
        value = self._words[self._index(address)]
        return None if self._forgotten else value

    def load_block(self, address: int, count: int) -> list:
        values = super().load_block(address, count)
        return [None] * count if self._forgotten else values


class _Walker(Core):
    """The reference core run over unknown values, with attribution.

    :meth:`Core.run` executes the walk over the value domain
    ``int | float | None`` (None = unknown).  This class adds only what
    that needs, through the core's hooks:

    - unknown-value handling: operators over an unknown operand yield
      unknown, a fault in one flags the walk inexact, an unknown branch
      condition is guessed and an unknown address skips its access;
    - a private memory image in which words may be unknown;
    - the bottleneck attribution: per-register provenance (recurrence
      detection) and address-generation chains, and per-configuration
      segments (:meth:`region_reports`).

    The walk owns its memory image, caches and DySER device outright —
    it never touches shared state.
    """

    def __init__(self, program: Program, memory: Memory,
                 config: CoreConfig, device: DyserDevice | None,
                 step_limit: int) -> None:
        self._image = _WalkMemory(memory)
        super().__init__(program, self._image, dyser=device,
                         config=replace(config, max_instructions=min(
                             step_limit, config.max_instructions)))
        # Provenance: the config id when a register still holds an
        # unmodified drecv/dfrecv result — the recurrence detector.
        self.iorigin: list = [None] * 32
        self.forigin: list = [None] * 32
        # Dynamic address-generation slice: cycles of host ALU work
        # accumulated into each int register's current value.  A DySER
        # memory op consuming the register as its address claims the
        # chain for the port attribution (vectorized transfers eliminate
        # the addressing work along with the per-element port slots).
        self.icost: list = [0] * 32
        self.exact = True
        self.notes: list[str] = []
        self.recurrences: set[int] = set()
        self.acct: dict[int, dict] = {}
        self._guesses: dict[int, int] = {}
        self._loaded_once: set[int] = set()
        if device is not None:
            # Fire every configuration over unknown values.
            self.dyser_values = DyserValues(device.configs,
                                            self._abstract_evaluator)
        #: The live configuration (None before any dinit), the cycle it
        #: was loaded and the port waits charged by then.
        self._live: int | None = None
        self._seg_open_t = 0
        self._seg_waits = (0, 0)

    # -- unknown values --------------------------------------------------

    def _abstract_evaluator(self, config) -> _AbstractEvaluator:
        return _AbstractEvaluator(config.dfg, self._inexact)

    def _inexact(self, why: str) -> None:
        self.exact = False
        if why not in self.notes:
            self.notes.append(why)

    def _guess_branch(self, pc: int, insn) -> bool:
        self._inexact("unknown branch condition (control flow guessed)")
        n = self._guesses.get(pc, 0)
        self._guesses[pc] = n + 1
        backward = (insn.target_index is not None
                    and insn.target_index <= pc)
        return backward and n < _BACKWARD_GUESSES

    def _op_fault(self, insn) -> None:
        kind = ("fp" if insn.info.iclass in (InsnClass.FPU, InsnClass.FDIV)
                else "integer")
        self._inexact(f"{kind} op {insn.op.value} faulted")

    def _limit_error(self) -> Exception:
        return SimulationError(
            f"step budget {self.config.max_instructions} exhausted")

    def _unresolved(self, access: str) -> None:
        if access.endswith("store"):
            self._image.forget()
            self._inexact(f"{access} to unresolved address")
        else:
            self._inexact(f"{access} from unresolved address")

    # -- attribution -----------------------------------------------------

    def _issue_hooks(self, table: tuple) -> list | None:
        kinds, isrcs, occs, int_dest = table[0], table[1], table[6], table[7]
        if self.dyser is None or K_DYSER not in kinds:
            return None     # no configuration to attribute cycles to
        icost, iorigin, forigin = self.icost, self.iorigin, self.forigin
        hooks: list = []
        for insn, kind, srcs, occ, to_int in zip(
                self.program.instructions, kinds, isrcs, occs, int_dest,
                strict=True):
            if kind == K_DYSER:
                hook = (None if insn.op is Opcode.DINIT
                        else partial(self._attribute_port, insn, occ))
            elif kind in (K_BRANCH, K_JUMP, K_NOP, K_HALT, K_BAD_IMM):
                hook = None
            else:
                chained = kind <= K_SEL or kind in (K_LI, K_MOV)
                to_fp = kind in (K_FLD, K_FLI, K_FMOV) or (
                    kind == K_FPU and not to_int)
                hook = partial(
                    _retire, icost, iorigin, forigin,
                    srcs if chained or kind in _LSU_KINDS else (), chained,
                    0 if to_fp else insn.rd, insn.rd if to_fp else None,
                    insn.rs1 if kind in (K_MOV, K_FMOV) else None)
            hooks.append(hook)
        return hooks

    def _attribute_port(self, insn, occupancy: int | None) -> None:
        """Interface slots, recurrences, provenance and address chains
        of a DySER op, charged to the live configuration."""
        O = Opcode
        op, rd, rs1 = insn.op, insn.rd, insn.rs1
        cid = self._live
        if op is O.DSEND or op is O.DFSEND:
            if op is O.DSEND:
                self.icost[rs1] = 0
                origin = self.iorigin[rs1]
            else:
                origin = self.forigin[rs1]
            if cid is not None:
                if origin == cid:
                    self.recurrences.add(cid)
                self.acct[cid]["iface_slots"] += 1
        elif op is O.DRECV or op is O.DFRECV:
            if cid is not None:
                if op is O.DFRECV:
                    self.forigin[rd] = cid
                elif rd:
                    self.iorigin[rd] = cid
                    self.icost[rd] = 0
                self.acct[cid]["iface_slots"] += 1
        else:
            cost = self.icost[rs1]
            self.icost[rs1] = 0
            if cid is not None and occupancy is not None:
                self.acct[cid]["addr_cycles"] += cost
                self.acct[cid]["iface_slots"] += occupancy

    def _init_config(self, config_id: int, t: int) -> int:
        dev = self.dyser
        assert dev is not None      # the core faults first without one
        live = dev.config
        rearm = live is not None and live.config_id == config_id
        if live is not None and not rearm:
            self._close_segment(t)
        hits_before = dev.stats.config_hits
        ready = super()._init_config(config_id, t)
        if not rearm:
            seg = self.acct.setdefault(config_id,
                                       dict.fromkeys(_ACCT_KEYS, 0))
            if (config_id in self._loaded_once
                    and dev.stats.config_hits == hits_before):
                seg["reload_stall"] += ready - t
            self._loaded_once.add(config_id)
            self._live, self._seg_open_t = config_id, ready
            self._seg_waits = self._port_waits()
        return ready

    def _port_waits(self) -> tuple[int, int]:
        """Send and recv waits charged so far.  Only port flow control
        is charged ``DYSER_SEND``, and only drecv/dfrecv ``DYSER_RECV``:
        a register they write is ready before the next issue slot, so
        they tag it with no stall cause."""
        stall = self.stats.stall_cycles
        return stall[StallCause.DYSER_SEND], stall[StallCause.DYSER_RECV]

    def _close_segment(self, t_now: int) -> None:
        """Charge the live configuration with its invocations, the
        cycles since it was loaded and the port waits since then."""
        dev = self.dyser
        seg = self.acct[dev.config.config_id]
        seg["fires"] += len(dev.fire_times)
        seg["seg_cycles"] += max(0, t_now - self._seg_open_t)
        (send, recv), (send0, recv0) = self._port_waits(), self._seg_waits
        seg["send_wait"] += send - send0
        seg["recv_wait"] += recv - recv0

    def _finalize_stats(self) -> None:
        if self.dyser is not None and self.dyser.config is not None:
            self._close_segment(self.stats.cycles)
        super()._finalize_stats()

    # -- reports ---------------------------------------------------------

    def region_reports(self, program: Program) -> list[RegionPerf]:
        reports = []
        for cid in sorted(self.acct):
            a = self.acct[cid]
            fires = max(1, a["fires"])
            config = program.dyser_configs.get(cid)
            recurrence = cid in self.recurrences
            rec_ii = a["recv_wait"] / fires if recurrence else 0.0
            port_ii = (a["iface_slots"] + a["addr_cycles"]
                       + a["send_wait"]) / fires
            if not recurrence:
                port_ii += a["recv_wait"] / fires
            config_ii = a["reload_stall"] / fires
            host_ii = max(
                0.0,
                (a["seg_cycles"] - a["iface_slots"] - a["addr_cycles"]
                 - a["send_wait"] - a["recv_wait"]) / fires)
            components = {
                "recurrence": rec_ii,
                "port": port_ii,
                "config": config_ii,
                "host": host_ii,
            }
            bottleneck = max(components, key=lambda k: components[k])
            reports.append(RegionPerf(
                config_id=cid,
                invocations=a["fires"],
                recurrence=recurrence,
                recurrence_ii=rec_ii,
                port_ii=port_ii,
                config_ii=config_ii,
                host_ii=host_ii,
                path_delay=(config.critical_delay()
                            if config is not None else 0),
                config_words=(config.config_words()
                              if config is not None else 0),
                bottleneck=bottleneck,
            ))
        return reports


# ---------------------------------------------------------------------------
# entry points


def analyze_program(program: Program, *, memory: Memory | None = None,
                    int_args=(), fp_args=(),
                    core_config: CoreConfig | None = None,
                    fabric: Fabric | None = None,
                    timing: DyserTimingParams | None = None,
                    cache_params: ConfigCacheParams | None = None,
                    subject: str = "program",
                    step_limit: int = DEFAULT_STEP_LIMIT,
                    work_items: int | None = None) -> PerfPrediction:
    """Statically predict a program's cycles and bottlenecks.

    ``memory`` is the program's prepared input image (the walk claims
    it and mutates a private view of the world built on it); when None
    a blank 64 KiB image is used, matching the fuzz harness's execution
    environment.  Raises :class:`~repro.errors.ReproError` for the
    structural problems the simulator would also refuse at construction
    (unlinkable program, invalid configuration) — everything after that
    degrades into an inexact prediction instead of raising.
    """
    config = core_config or CoreConfig()
    device = None
    if config.has_dyser:
        device = DyserDevice(
            fabric=fabric or Fabric(),
            timing=timing or DyserTimingParams(),
            cache_params=cache_params or ConfigCacheParams(),
        )
    if memory is None:
        memory = Memory(1 << 16)
    return _walk(program, memory, int_args, fp_args, config, device,
                 subject, step_limit, work_items)


def _walk(program: Program, memory: Memory, int_args, fp_args,
          config: CoreConfig, device: DyserDevice | None, subject: str,
          step_limit: int, work_items: int | None) -> PerfPrediction:
    """Walk ``program`` on a core built from ``config`` and ``device``."""
    walker = _Walker(program, memory, config, device, step_limit)
    walker.set_args(int_args, fp_args)
    walked = True
    notes: list[str] = []
    try:
        walker.run()
    except (ReproError, OverflowError, ValueError, TypeError, KeyError,
            ZeroDivisionError) as exc:
        walked = False
        notes.append(f"walk aborted: {exc}")
    exact = walked and walker.exact
    predicted = walker.stats.cycles if walked else None
    bound = (predicted if exact else
             _structural_bound(program, config.branch_taken_penalty))
    mode = "dyser" if (device is not None
                       and program.dyser_configs) else "scalar"
    return PerfPrediction(
        subject=subject,
        mode=mode,
        predicted_cycles=predicted,
        lower_bound=bound,
        invocations=walker.stats.dyser_invocations if walked else 0,
        instructions=walker.stats.instructions,
        exact=exact,
        walked=walked,
        work_items=work_items,
        regions=walker.region_reports(program) if walked else [],
        notes=notes + walker.notes,
    )


def _predict(run, config, step_limit: int) -> PerfPrediction:
    """Walk ``config``'s run as ``run`` (its harness ``_RunSetup``)
    prepared it."""
    from repro.harness.runner import _core_config

    return _walk(run.compiled.program, run.memory, run.instance.int_args,
                 run.instance.fp_args, _core_config(config),
                 run.device(config),
                 f"{config.workload}/{config.mode}@{config.scale}",
                 step_limit, run.instance.work_items)


def analyze_workload(config, *,
                     step_limit: int = DEFAULT_STEP_LIMIT) -> PerfPrediction:
    """Predict one :class:`~repro.harness.RunConfig`'s run without
    executing it.

    Sets up as :func:`~repro.harness.run_workload` does (the shared
    compile memo, the config's memory image and inputs, core config and
    DySER device), then walks.  Raises
    :class:`~repro.errors.ReproError` for unknown workloads or compile
    failures.
    """
    from repro.harness.runner import _RunSetup

    return _predict(_RunSetup(config), config, step_limit)


def emit_region_diagnostics(report: DiagnosticReport, name: str,
                            prediction: PerfPrediction) -> None:
    """Emit the per-region RPR400/401/402 bottleneck diagnostics.

    Shared by :func:`perf_report` and callers that analyzed a
    hand-built :class:`~repro.isa.program.Program` directly via
    :func:`analyze_program`.
    """
    for region in prediction.regions:
        where = f"{name}.c{region.config_id}"
        if region.bottleneck == "port" and region.invocations:
            report.emit(
                "RPR400",
                f"port-bandwidth-bound: {region.port_ii:.1f} interface "
                f"cycles/invocation dominate (recurrence "
                f"{region.recurrence_ii:.1f}, config {region.config_ii:.1f},"
                f" host {region.host_ii:.1f}); wider vector ports or "
                f"vectorized transfers would raise throughput",
                location=where, source="perf", **region.to_dict())
        elif region.bottleneck == "recurrence" and region.invocations:
            report.emit(
                "RPR401",
                f"recurrence-bound: a loop-carried value round-trips "
                f"through the core every invocation "
                f"({region.recurrence_ii:.1f} blocked cycles/invocation "
                f"over a {region.path_delay}-cycle datapath); splitting "
                f"the reduction across multiple accumulators would break "
                f"the serialization",
                location=where, source="perf", **region.to_dict())
        elif region.bottleneck == "config" and region.invocations:
            report.emit(
                "RPR402",
                f"config-thrash-bound: {region.config_ii:.1f} reload "
                f"stall cycles/invocation ({region.config_words} words "
                f"per reload); the region working set exceeds the "
                f"configuration cache",
                location=where, source="perf", **region.to_dict())


def perf_report(config) -> DiagnosticReport:
    """``repro lint --perf``: :func:`analyze_workload`'s prediction for
    ``config`` as RPR4xx diagnostics.

    Never raises for workload/compile problems — they surface as
    diagnostics, exactly like :func:`repro.analysis.api.lint_workload`.
    """
    from repro.analysis.diagnostics import Diagnostic
    from repro.harness.runner import _RunSetup

    name = config.workload
    report = DiagnosticReport(subject=f"{name}/{config.mode}:perf")
    try:
        run = _RunSetup(config)
        prediction = _predict(run, config, DEFAULT_STEP_LIMIT)
    except ReproError as exc:
        code = getattr(exc, "code", None)
        if code:
            report.add(Diagnostic.from_error(exc, location=name,
                                             source="perf"))
        else:
            report.emit("RPR251", str(exc), location=name, source="perf")
        return report

    emit_region_diagnostics(report, name, prediction)

    # Capability-curtailed regions: the scheduler accepted the region
    # but could not unroll it as far as requested (fabric FU capacity).
    requested = run.options.unroll
    for region in run.compiled.regions:
        if region.accepted and 1 < region.unrolled < requested:
            report.emit(
                "RPR403",
                f"capability-bound: region unrolled "
                f"{region.unrolled}x of the requested "
                f"{requested}x — fabric FU capacity limits "
                f"the spatial schedule",
                location=f"{name}.{region.loop_header}",
                source="perf", unrolled=region.unrolled,
                requested=requested)

    cpi = prediction.cycles_per_invocation
    report.emit(
        "RPR404",
        (f"predicted {prediction.predicted_cycles} cycles"
         if prediction.predicted_cycles is not None
         else "prediction unavailable (walk did not complete)")
        + (f", {prediction.invocations} invocations"
           + (f" ({cpi:.1f} cycles/invocation)" if cpi else "")
           if prediction.invocations else "")
        + f"; sound lower bound {prediction.lower_bound} cycles"
        + ("" if prediction.exact else " [inexact]"),
        location=name, source="perf", **prediction.to_dict())
    return report


# ---------------------------------------------------------------------------
# engine/service cost pre-flight

#: Cost memo keyed by :attr:`~repro.engine.jobs.JobSpec.shape_hash`:
#: the sha256 of ``JobSpec.canonical_dict()`` with the seed left out
#: (scalar specs keep its dyser-only normalisation).  Cycles barely move
#: with the seed, so one entry prices every seed of a shape.  Filled
#: only by finished runs (:func:`record_job_cycles`).  Process-local,
#: like the compile memo, and cleared once past
#: :data:`_COST_MEMO_LIMIT` entries.
_COST_MEMO: dict[str, int] = {}
_COST_MEMO_LIMIT = 4096


def estimate_job_cost(spec) -> int | None:
    """Cycle cost of one :class:`~repro.engine.jobs.JobSpec`: the
    cycles some finished run of its shape (the spec without its seed)
    took, or None for a shape no run has finished yet.

    A lookup: it never compiles or walks, so the engine pre-flight and
    the service admission path can call it inline.
    """
    return _COST_MEMO.get(spec.shape_hash)


def record_job_cycles(spec, cycles: int) -> None:
    """Price ``spec``'s shape by the cycles a finished run of it took."""
    key = spec.shape_hash
    if key not in _COST_MEMO and len(_COST_MEMO) > _COST_MEMO_LIMIT:
        _COST_MEMO.clear()
    _COST_MEMO[key] = cycles


def clear_cost_memo() -> None:
    """Drop memoized job costs (tests / engine cache resets)."""
    _COST_MEMO.clear()
