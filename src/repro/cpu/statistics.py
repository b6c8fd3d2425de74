"""Execution statistics: cycle accounting and instruction mixes.

The timing model attributes every cycle to exactly one bucket so the E3
cycle-breakdown experiment can decompose where time goes, the way the
paper's microarchitecture analysis does.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field, fields

from repro.isa.opcodes import InsnClass
from repro.obs.metrics import MetricsRegistry


class StallCause(enum.Enum):
    """Why a cycle was not an issue cycle."""

    DATA_HAZARD = "data_hazard"          # waiting on a producer (non-memory)
    LOAD_MISS = "load_miss"              # D$ miss latency exposed
    FETCH_MISS = "fetch_miss"            # I$ miss bubble
    BRANCH = "branch"                    # taken-branch redirect bubble
    STRUCTURAL_FPU = "structural_fpu"    # unpipelined FPU busy
    DYSER_SEND = "dyser_send"            # input port FIFO full
    DYSER_RECV = "dyser_recv"            # output not produced yet
    DYSER_CONFIG = "dyser_config"        # configuration load
    LSU_BUSY = "lsu_busy"                # vector transfer occupying the LSU

    # Members are singletons, so identity hashing is exact, and it runs
    # in C: every stall charged keys a Counter by its cause.
    __hash__ = object.__hash__


@dataclass
class ExecStats:
    """Counters for one simulated run."""

    cycles: int = 0
    instructions: int = 0
    insn_mix: Counter = field(default_factory=Counter)
    stall_cycles: Counter = field(default_factory=Counter)
    branches_taken: int = 0
    dyser_invocations: int = 0
    dyser_values_sent: int = 0
    dyser_values_received: int = 0
    dyser_config_loads: int = 0
    dyser_config_hits: int = 0
    dyser_fu_ops: int = 0
    dyser_switch_hops: int = 0
    dyser_config_words: int = 0
    dcache_hits: int = 0
    dcache_misses: int = 0
    icache_misses: int = 0
    #: Open-ended subsystem counters (:mod:`repro.obs.metrics`): new
    #: instrumentation registers named metrics here instead of growing
    #: this dataclass and every serializer that mirrors it.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry,
                                     compare=False, repr=False)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def total_stalls(self) -> int:
        return sum(self.stall_cycles.values())

    @property
    def issue_cycles(self) -> int:
        """Cycles spent actually issuing instructions."""
        return self.cycles - self.total_stalls

    def class_count(self, iclass: InsnClass) -> int:
        return self.insn_mix.get(iclass, 0)

    # -- (de)serialization -------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe counters.

        Scalar fields are discovered from the dataclass, so adding a
        counter field (or registering a named metric) needs no
        serializer edit.
        """
        data: dict = {}
        for f in fields(self):
            if f.name in ("insn_mix", "stall_cycles", "metrics"):
                continue
            data[f.name] = getattr(self, f.name)
        data["insn_mix"] = {k.name: v for k, v in self.insn_mix.items()}
        data["stall_cycles"] = {
            k.name: v for k, v in self.stall_cycles.items()}
        metrics = self.metrics.to_dict()
        if metrics:
            data["metrics"] = metrics
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExecStats":
        scalars = {
            f.name: data[f.name] for f in fields(cls)
            if f.name not in ("insn_mix", "stall_cycles", "metrics")
        }
        stats = cls(**scalars)
        stats.insn_mix = Counter(
            {InsnClass[k]: v for k, v in data["insn_mix"].items()})
        stats.stall_cycles = Counter(
            {StallCause[k]: v for k, v in data["stall_cycles"].items()})
        stats.metrics = MetricsRegistry.from_dict(data.get("metrics", {}))
        return stats

    def breakdown(self) -> dict[str, int]:
        """Cycle accounting: issue plus one entry per stall cause."""
        out = {"issue": self.issue_cycles}
        for cause in StallCause:
            cycles = self.stall_cycles.get(cause, 0)
            if cycles:
                out[cause.value] = cycles
        return out

    def summary(self) -> str:
        lines = [
            f"cycles={self.cycles} insns={self.instructions} "
            f"ipc={self.ipc:.3f}",
        ]
        mix = ", ".join(
            f"{c.value}={n}" for c, n in sorted(
                self.insn_mix.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"mix: {mix}")
        if self.total_stalls:
            stalls = ", ".join(
                f"{c.value}={n}" for c, n in sorted(
                    self.stall_cycles.items(), key=lambda kv: -kv[1])
            )
            lines.append(f"stalls: {stalls}")
        if self.dyser_invocations:
            lines.append(
                f"dyser: invocations={self.dyser_invocations} "
                f"sent={self.dyser_values_sent} "
                f"received={self.dyser_values_received} "
                f"config_loads={self.dyser_config_loads} "
                f"config_hits={self.dyser_config_hits}"
            )
        return "\n".join(lines)
