"""Program container: a linked sequence of instructions with labels.

A :class:`Program` owns a flat instruction list plus a label table.  The
compiler and the assembler both produce programs; :meth:`Program.link`
resolves branch targets from label names to instruction indices so the
simulator never does string lookups on the hot path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import IsaError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode


@dataclass
class Program:
    """An executable instruction sequence.

    Attributes:
        instructions: the flat instruction list; index 0 is the entry point.
        labels: label name -> instruction index.
        name: human-readable identity (kernel name), used in reports.
        dyser_configs: configuration id -> DySER config object (attached by
            the DySER code generator; plain ``object`` here to avoid a
            dependency cycle with :mod:`repro.dyser`).
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    name: str = "program"
    dyser_configs: dict[int, object] = field(default_factory=dict)
    #: Words of spill storage the core must provide (base address in r28).
    spill_words: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def add(self, insn: Instruction) -> int:
        """Append ``insn``; return its index."""
        self.instructions.append(insn)
        return len(self.instructions) - 1

    def add_label(self, name: str, index: int | None = None) -> None:
        """Define ``name`` at ``index`` (default: the next instruction)."""
        if name in self.labels:
            raise IsaError(f"duplicate label {name!r}")
        self.labels[name] = len(self.instructions) if index is None else index

    def link(self) -> "Program":
        """Resolve every branch target label to an instruction index.

        Returns ``self`` for chaining.  Raises :class:`IsaError` on
        undefined labels or labels past the end of the program.
        """
        n = len(self.instructions)
        for label, index in self.labels.items():
            if not 0 <= index <= n:
                raise IsaError(f"label {label!r} out of range ({index})")
        for insn in self.instructions:
            if insn.target is None:
                continue
            try:
                insn.target_index = self.labels[insn.target]
            except KeyError:
                raise IsaError(f"undefined label {insn.target!r}") from None
        return self

    @property
    def is_linked(self) -> bool:
        return all(
            i.target is None or i.target_index is not None
            for i in self.instructions
        )

    def static_mix(self) -> Counter:
        """Static instruction counts by :class:`InsnClass`."""
        mix: Counter = Counter()
        for insn in self.instructions:
            mix[insn.info.iclass] += 1
        return mix

    def uses_dyser(self) -> bool:
        return any(i.info.is_dyser for i in self.instructions)

    def listing(self) -> str:
        """Disassembly with labels, suitable for golden-file tests."""
        by_index: dict[int, list[str]] = {}
        for label, index in sorted(self.labels.items(), key=lambda kv: kv[1]):
            by_index.setdefault(index, []).append(label)
        lines: list[str] = []
        for i, insn in enumerate(self.instructions):
            for label in by_index.get(i, ()):
                lines.append(f"{label}:")
            lines.append(f"    {insn.text()}")
        for label in by_index.get(len(self.instructions), ()):
            lines.append(f"{label}:")
        return "\n".join(lines)

    def validate(self) -> None:
        """Structural checks: linked targets in range, HALT reachable."""
        n = len(self.instructions)
        for i, insn in enumerate(self.instructions):
            if insn.target is not None and insn.target_index is None:
                raise IsaError(f"instruction {i} ({insn.text()}) not linked")
            if insn.target_index is not None and not 0 <= insn.target_index <= n:
                raise IsaError(
                    f"instruction {i}: target index {insn.target_index} "
                    f"out of range"
                )
        if not any(i.op is Opcode.HALT for i in self.instructions):
            raise IsaError("program has no HALT")
