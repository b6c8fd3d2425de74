"""Word-typed main memory with a bump allocator.

The simulator operates on 8-byte words (64-bit integers and doubles), which
matches what the evaluation needs — dynamic instruction counts, addresses
and cache behaviour — without modelling byte-level packing.  Addresses are
byte addresses and must be 8-byte aligned; each word slot holds a Python
``int`` or ``float``.  The slot list ends at the highest word stored so
far (a store past it grows it) and any word past its end reads as ``fill``;
bounds are checked against the capacity ``size_bytes``, never the list.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import MemoryFault

WORD_BYTES = 8


class Memory:
    """Flat, bounds-checked, word-typed memory.

    Args:
        size_bytes: total capacity; must be a multiple of 8.
        fill: the value of every word never stored.
    """

    def __init__(self, size_bytes: int = 1 << 22, fill: int = 0) -> None:
        if size_bytes % WORD_BYTES:
            raise ValueError("memory size must be a multiple of 8 bytes")
        self.size_bytes = size_bytes
        self._fill = fill
        self._words: list[int | float] = []
        # Bump allocator: reserve word 0 so address 0 acts as a null guard.
        self._brk = WORD_BYTES

    # -- address helpers --------------------------------------------------

    def _index(self, address: int) -> int:
        if address % WORD_BYTES:
            raise MemoryFault(address, "misaligned word access")
        if not 0 <= address < self.size_bytes:
            raise MemoryFault(address)
        return address // WORD_BYTES

    # -- scalar access ----------------------------------------------------

    def load_word(self, address: int) -> int | float:
        index = self._index(address)
        try:
            return self._words[index]
        except IndexError:
            return self._fill

    def store_word(self, address: int, value: int | float) -> None:
        index = self._index(address)
        words = self._words
        try:
            words[index] = value
        except IndexError:
            words.extend([self._fill] * (index - len(words)))
            words.append(value)

    # -- block access -----------------------------------------------------

    def load_block(self, address: int, count: int) -> list[int | float]:
        start = self._index(address)
        end = start + count
        if end > self.size_bytes // WORD_BYTES:
            raise MemoryFault(address + count * WORD_BYTES)
        values = self._words[start:end]
        values.extend([self._fill] * (count - len(values)))
        return values

    def store_block(self, address: int, values: Sequence[int | float]) -> None:
        start = self._index(address)
        end = start + len(values)
        if end > self.size_bytes // WORD_BYTES:
            raise MemoryFault(address + len(values) * WORD_BYTES)
        words = self._words
        if len(words) < start < end:
            words.extend([self._fill] * (start - len(words)))
        words[start:end] = values

    # -- allocation -------------------------------------------------------

    def alloc(self, nwords: int) -> int:
        """Reserve ``nwords`` consecutive words; return the base address."""
        if nwords < 0:
            raise ValueError("negative allocation")
        address = self._brk
        self._brk += nwords * WORD_BYTES
        if self._brk > self.size_bytes:
            raise MemoryFault(address, "out of memory")
        return address

    def alloc_array(self, values: Iterable[int | float]) -> int:
        """Allocate and initialize an array; return its base address."""
        data = list(values)
        address = self.alloc(len(data))
        self.store_block(address, data)
        return address

    # -- numpy bridges (workload setup / verification) ---------------------

    def read_numpy(self, address: int, count: int, dtype=np.float64) -> np.ndarray:
        return np.array(self.load_block(address, count), dtype=dtype)

    def alloc_numpy(self, array: np.ndarray) -> int:
        flat = array.ravel()
        cast = float if np.issubdtype(flat.dtype, np.floating) else int
        return self.alloc_array([cast(x) for x in flat])
