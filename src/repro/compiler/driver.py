"""One-call compilation pipelines.

``compile_scalar`` produces baseline host-only code (the OpenSPARC-alone
configuration); ``compile_dyser`` additionally runs region selection,
if-conversion, access/execute partitioning, vectorization and spatial
scheduling to produce SPARC-DySER code with attached configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.codegen import generate
from repro.compiler.irgen import lower_kernel
from repro.compiler.parser import parse_kernel
from repro.compiler.passes import optimize
from repro.dyser.fabric import Fabric, FabricGeometry
from repro.isa.program import Program
from repro.obs.events import maybe_span


def _ir_size(func) -> int:
    """Instruction count of an SSA function (span size metadata)."""
    return sum(len(b.all_instrs()) for b in func.blocks.values())


@dataclass
class CompilerOptions:
    """Knobs of the DySER compilation pipeline."""

    fabric: Fabric = field(default_factory=lambda: Fabric(FabricGeometry(8, 8)))
    #: Minimum execute-slice ops for a region to be profitable.
    min_region_ops: int = 2
    #: Maximum unroll factor for vectorizable loops (1 disables); the
    #: selector halves it until the region fits and routes.
    unroll: int = 8
    #: Use wide (spatial) port transfers when accesses are contiguous.
    vectorize: bool = True
    #: Rebalance associative chains (reductions) into trees.  Changes FP
    #: rounding order, like -ffast-math reassociation.
    reassociate: bool = True
    #: Maximum region size in execute ops (fabric capacity guard).
    max_region_ops: int | None = None
    #: Run the IR verifier (:mod:`repro.analysis.verifier`) after every
    #: pipeline pass; a broken invariant raises
    #: :class:`repro.errors.PassVerificationError` naming the pass.
    #: Purely diagnostic — never changes the compiled output — and
    #: deliberately excluded from the engine's compile hash.
    verify_passes: bool = False


@dataclass
class RegionReport:
    """What happened to one candidate region (drives E1/E7)."""

    loop_header: str
    accepted: bool
    reason: str
    execute_ops: int = 0
    input_ports: int = 0
    output_ports: int = 0
    unrolled: int = 1
    vectorized: bool = False
    shape: str = ""

    def to_dict(self) -> dict:
        return {
            "loop_header": self.loop_header, "accepted": self.accepted,
            "reason": self.reason, "execute_ops": self.execute_ops,
            "input_ports": self.input_ports,
            "output_ports": self.output_ports,
            "unrolled": self.unrolled, "vectorized": self.vectorized,
            "shape": self.shape,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegionReport":
        return cls(**data)


@dataclass
class CompileResult:
    """A compiled kernel plus compilation metadata."""

    program: Program
    ir_dump: str = ""
    regions: list[RegionReport] = field(default_factory=list)


def _verify_after(func, pass_name: str, verify: bool) -> None:
    """Pass-sandwich verification: name the pass that broke the IR."""
    if not verify:
        return
    from repro.analysis.verifier import check_function

    check_function(func, pass_name)


def frontend(source: str, events=None, verify: bool = False):
    """Parse + lower + clean one kernel; returns optimized SSA.

    ``events`` (an :class:`repro.obs.events.EventStream` or ``None``)
    records per-pass wall time and IR size deltas when tracing is on.
    ``verify`` runs the IR verifier after each pass (see
    :attr:`CompilerOptions.verify_passes`).
    """
    from repro.compiler.passes import licm

    with maybe_span(events, "parse", "compiler.pass") as info:
        kernel = parse_kernel(source)
        info["source_chars"] = len(source)
    with maybe_span(events, "lower", "compiler.pass") as info:
        func = lower_kernel(kernel)
        info["ir_size"] = _ir_size(func)
    _verify_after(func, "lower", verify)
    with maybe_span(events, "optimize", "compiler.pass") as info:
        before = _ir_size(func)
        func = optimize(func)
        info["ir_size"] = _ir_size(func)
        info["ir_delta"] = _ir_size(func) - before
    _verify_after(func, "optimize", verify)
    with maybe_span(events, "licm", "compiler.pass") as info:
        before = _ir_size(func)
        if licm(func):
            func = optimize(func)
        info["ir_size"] = _ir_size(func)
        info["ir_delta"] = _ir_size(func) - before
    _verify_after(func, "licm", verify)
    return func


def compile_scalar(source: str, events=None,
                   verify: bool = False) -> CompileResult:
    """Compile for the baseline core (no DySER)."""
    func = frontend(source, events=events, verify=verify)
    ir_dump = func.dump()
    with maybe_span(events, "codegen", "compiler.pass") as info:
        program = generate(func)
        info["instructions"] = len(program.instructions)
    return CompileResult(program=program, ir_dump=ir_dump)


def compile_dyser(source: str,
                  options: CompilerOptions | None = None,
                  events=None) -> CompileResult:
    """Compile with DySER offload.

    Falls back to scalar code for every region that is rejected (too
    small, unmappable, or a curtailing control-flow shape) — mirroring
    the paper's compiler, which only offloads profitable regions.
    """
    from repro.compiler.region import offload_regions

    options = options or CompilerOptions()
    verify = options.verify_passes
    func = frontend(source, events=events, verify=verify)
    with maybe_span(events, "offload_regions", "compiler.pass") as info:
        before = _ir_size(func)
        func, reports = offload_regions(func, options)
        info["ir_size"] = _ir_size(func)
        info["ir_delta"] = _ir_size(func) - before
        info["regions"] = len(reports)
        info["accepted"] = sum(1 for r in reports if r.accepted)
    _verify_after(func, "offload_regions", verify)
    with maybe_span(events, "optimize", "compiler.pass") as info:
        before = _ir_size(func)
        func = optimize(func)
        info["ir_size"] = _ir_size(func)
        info["ir_delta"] = _ir_size(func) - before
    _verify_after(func, "optimize", verify)
    ir_dump = func.dump()
    with maybe_span(events, "codegen", "compiler.pass") as info:
        program = generate(func)
        info["instructions"] = len(program.instructions)
    for config in getattr(func, "dyser_configs", {}).values():
        program.dyser_configs[config.config_id] = config
    return CompileResult(program=program, ir_dump=ir_dump, regions=reports)
