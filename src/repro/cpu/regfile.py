"""Integer and floating-point register files.

The integer file follows the SPARC convention that register 0 reads as
zero and ignores writes (%g0).  Values are stored as Python numbers; the
integer file coerces to ``int`` and wraps to 64-bit two's complement so
shift/compare semantics match hardware.
"""

from __future__ import annotations

from repro.isa.instruction import NUM_FP_REGS, NUM_INT_REGS, ZERO_REG

_MASK64 = (1 << 64) - 1


def wrap64(value: int) -> int:
    """Wrap a Python int to signed 64-bit two's complement."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class IntRegFile:
    """32 integer registers; r0 is hard-wired to zero."""

    __slots__ = ("_regs",)

    def __init__(self) -> None:
        self._regs = [0] * NUM_INT_REGS

    def read(self, index: int) -> int:
        return self._regs[index]

    def write(self, index: int, value: int) -> None:
        if index != ZERO_REG:
            self._regs[index] = wrap64(int(value))


class FpRegFile:
    """32 double-precision registers."""

    __slots__ = ("_regs",)

    def __init__(self) -> None:
        self._regs = [0.0] * NUM_FP_REGS

    def read(self, index: int) -> float:
        return self._regs[index]

    def write(self, index: int, value: float) -> None:
        self._regs[index] = float(value)
