"""Types of the kernel language: int, float, and arrays of each.

The language is deliberately small — it models the C subset the DySER
LLVM compiler consumed for its kernel regions: 64-bit integers, doubles,
flat arrays, loops, conditionals and a few math intrinsics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Scalar(enum.Enum):
    INT = "int"
    FLOAT = "float"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


@dataclass(frozen=True)
class Type:
    """A scalar or array type."""

    scalar: Scalar
    is_array: bool = False

    def element(self) -> "Type":
        if not self.is_array:
            raise ValueError(f"{self} is not an array")
        return Type(self.scalar)

    def __str__(self) -> str:
        return f"{self.scalar.value}[]" if self.is_array else self.scalar.value


INT = Type(Scalar.INT)
FLOAT = Type(Scalar.FLOAT)
INT_ARRAY = Type(Scalar.INT, is_array=True)
FLOAT_ARRAY = Type(Scalar.FLOAT, is_array=True)
