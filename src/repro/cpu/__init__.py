"""The OpenSPARC-T1-flavoured host core model."""

from repro.cpu.batchcore import PER_POINT_FIELDS, BatchCore, LaneOfOne
from repro.cpu.cache import Cache, CacheConfig, dcache_config, icache_config
from repro.cpu.core import Core, CoreConfig
from repro.cpu.decode import (
    DecodedProgram,
    clear_decode_caches,
    decode_cache_size,
    decode_program,
    fused_block_count,
)
from repro.cpu.memory import WORD_BYTES, Memory
from repro.cpu.regfile import FpRegFile, IntRegFile, wrap64
from repro.cpu.statistics import ExecStats, StallCause

__all__ = [
    "BatchCore",
    "Cache",
    "CacheConfig",
    "Core",
    "CoreConfig",
    "DecodedProgram",
    "ExecStats",
    "PER_POINT_FIELDS",
    "clear_decode_caches",
    "decode_cache_size",
    "decode_program",
    "fused_block_count",
    "FpRegFile",
    "IntRegFile",
    "LaneOfOne",
    "Memory",
    "StallCause",
    "WORD_BYTES",
    "dcache_config",
    "icache_config",
    "wrap64",
]
