"""Set-associative cache timing model.

Tag-only: data lives in :class:`repro.cpu.memory.Memory`; the cache decides
hit or miss and keeps statistics.  This matches the fidelity the evaluation
needs — miss stalls and their distribution — and is the standard technique
for functional-first simulators.

Defaults mirror the OpenSPARC T1 L1s: 16 KiB 4-way I$, 8 KiB 4-way D$,
write-through / no-write-allocate D$.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    name: str = "dcache"
    size_bytes: int = 8 * 1024
    ways: int = 4
    line_bytes: int = 32
    hit_latency: int = 1
    miss_latency: int = 24          # L1 miss to the FPGA DDR controller
    write_allocate: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(f"{self.name}: size not divisible by ways*line")
        self.num_sets = self.size_bytes // (self.ways * self.line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{self.name}: set count must be a power of two")


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    write_hits: int = 0
    write_misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses + self.write_hits + self.write_misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return (self.misses + self.write_misses) / total if total else 0.0


class Cache:
    """LRU set-associative cache with read/write access methods.

    ``access`` returns the latency of the access in cycles; write misses
    under no-write-allocate are counted but cost nothing extra (the T1 D$
    is write-through with a store buffer).
    """

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        # Per set: list of tags, most-recently-used last.
        self._sets: list[list[int]] = [[] for _ in range(self.config.num_sets)]
        self._line_bytes = self.config.line_bytes
        self._set_mask = self.config.num_sets - 1
        self._tag_shift = self.config.num_sets.bit_length() - 1

    def _fill(self, ways: list[int], tag: int) -> None:
        if len(ways) >= self.config.ways:
            ways.pop(0)  # evict LRU
        ways.append(tag)

    def access(self, address: int, is_write: bool = False) -> int:
        """Simulate one access; return its latency in cycles."""
        line = address // self._line_bytes
        ways = self._sets[line & self._set_mask]
        tag = line >> self._tag_shift
        try:
            ways.remove(tag)
        except ValueError:
            if is_write:
                self.stats.write_misses += 1
                if self.config.write_allocate:
                    self._fill(ways, tag)
                return self.config.hit_latency
            self.stats.misses += 1
            self._fill(ways, tag)
            return self.config.miss_latency
        ways.append(tag)    # a hit becomes the most recently used
        if is_write:
            self.stats.write_hits += 1
        else:
            self.stats.hits += 1
        return self.config.hit_latency

    def probe(self, address: int) -> bool:
        """Non-modifying hit check (used by tests)."""
        line = address // self._line_bytes
        return line >> self._tag_shift in self._sets[line & self._set_mask]

    def flush(self) -> None:
        self._sets = [[] for _ in range(self.config.num_sets)]


def icache_config() -> CacheConfig:
    """OpenSPARC-T1-like instruction cache geometry.

    Miss latency is in *core* cycles: at the prototype's 50 MHz the
    memory-board DRAM looks close, so misses are cheap relative to an
    ASIC-clocked core.
    """
    return CacheConfig(name="icache", size_bytes=16 * 1024, ways=4,
                       line_bytes=32, hit_latency=0, miss_latency=12)


def dcache_config() -> CacheConfig:
    """OpenSPARC-T1-like data cache geometry (see icache note on misses)."""
    return CacheConfig(name="dcache", size_bytes=8 * 1024, ways=4,
                       line_bytes=32, hit_latency=1, miss_latency=12)


def l2_config() -> CacheConfig:
    """Optional unified L2 (the T1's on-chip L2, scaled to the FPGA).

    When a core is configured with an L2, an L1 miss costs a 2-cycle
    L1-to-L2 hop plus this cache's hit latency, or its miss latency on
    the way to DRAM; the L1's own ``miss_latency`` is then unused.
    """
    return CacheConfig(name="l2", size_bytes=256 * 1024, ways=8,
                       line_bytes=64, hit_latency=6, miss_latency=28,
                       write_allocate=True)
