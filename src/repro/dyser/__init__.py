"""The DySER accelerator model: fabric, configurations, timing, interface.

A core drives DySER through two halves: one :class:`DyserValues` (the
values crossing the fabric and their port counts) and one
:class:`DyserCycles` (cycles only, for every timing point of a lane:
FIFO flow control over each point's :class:`DyserDevice`).
"""

from repro.dyser.config import DyserConfig
from repro.dyser.config_cache import ConfigCache, ConfigCacheParams
from repro.dyser.dfg import ConstRef, Dfg, DfgNode, NodeRef, PortRef
from repro.dyser.fabric import (
    Fabric,
    FabricGeometry,
    default_capabilities,
    uniform_capabilities,
)
from repro.dyser.functional import DyserValues, FunctionalEvaluator
from repro.dyser.interface import DyserCycles, DyserDevice, DyserStats
from repro.dyser.ops import FU_OP_INFO, FuCapability, FuOp
from repro.dyser.timing import DyserTimingParams

__all__ = [
    "ConfigCache",
    "ConfigCacheParams",
    "ConstRef",
    "Dfg",
    "DfgNode",
    "DyserConfig",
    "DyserCycles",
    "DyserDevice",
    "DyserStats",
    "DyserTimingParams",
    "DyserValues",
    "FU_OP_INFO",
    "Fabric",
    "FabricGeometry",
    "FuCapability",
    "FuOp",
    "FunctionalEvaluator",
    "NodeRef",
    "PortRef",
    "default_capabilities",
    "uniform_capabilities",
]
