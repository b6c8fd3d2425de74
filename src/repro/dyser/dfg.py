"""Dataflow graph (DFG): the computation a DySER configuration implements.

A DFG is what the compiler's execute slice becomes and what ``dyser_init``
loads (after placement and routing turn it into a :class:`DyserConfig`).
Node inputs are *sources*: another node's output, a named input port, or a
compile-time constant.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.dyser.ops import FU_OP_INFO, FuOp


@dataclass(frozen=True)
class PortRef:
    """A DFG input wired to fabric input port ``port``."""

    port: int

    def __repr__(self) -> str:
        return f"P{self.port}"


@dataclass(frozen=True)
class ConstRef:
    """A DFG input wired to a configuration-time constant."""

    value: int | float

    def __repr__(self) -> str:
        return f"#{self.value!r}"


@dataclass(frozen=True)
class NodeRef:
    """A DFG input wired to another node's output."""

    node: int

    def __repr__(self) -> str:
        return f"n{self.node}"


Source = PortRef | ConstRef | NodeRef


@dataclass
class DfgNode:
    """One operation in the DFG."""

    id: int
    op: FuOp
    inputs: list[Source]

    def __post_init__(self) -> None:
        arity = FU_OP_INFO[self.op].arity
        if len(self.inputs) != arity:
            raise ConfigurationError(
                f"node {self.id} ({self.op.value}): expected {arity} "
                f"inputs, got {len(self.inputs)}",
                code="RPR201", node=self.id, op=self.op.value,
                arity=arity, got=len(self.inputs),
            )


class Dfg:
    """A dataflow graph with named input and output ports.

    Build with :meth:`add_node`; declare fabric outputs by mapping an
    output port number to a source with :meth:`set_output`.
    """

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self.nodes: dict[int, DfgNode] = {}
        self.outputs: dict[int, Source] = {}
        self._next_id = 0

    # -- construction ------------------------------------------------------

    def add_node(self, op: FuOp, inputs: list[Source],
                 node_id: int | None = None) -> NodeRef:
        """Add a node; ``node_id`` pins an explicit id (deserialization)."""
        if node_id is None:
            node_id = self._next_id
        elif node_id in self.nodes:
            raise ConfigurationError(f"duplicate node id {node_id}",
                                     node=node_id)
        node = DfgNode(node_id, op, list(inputs))
        self.nodes[node.id] = node
        self._next_id = max(self._next_id, node_id + 1)
        return NodeRef(node.id)

    def set_output(self, port: int, source: Source) -> None:
        if port in self.outputs:
            raise ConfigurationError(f"output port {port} already driven",
                                     port=port)
        self.outputs[port] = source

    # -- queries -----------------------------------------------------------

    @property
    def input_ports(self) -> list[int]:
        """Sorted list of input port numbers referenced anywhere."""
        ports = set()
        for node in self.nodes.values():
            for src in node.inputs:
                if isinstance(src, PortRef):
                    ports.add(src.port)
        for src in self.outputs.values():
            if isinstance(src, PortRef):
                ports.add(src.port)
        return sorted(ports)

    @property
    def output_ports(self) -> list[int]:
        return sorted(self.outputs)

    def topo_order(self) -> list[DfgNode]:
        """Nodes in topological order; raises on cycles.

        DySER configurations are acyclic by construction (loop-carried
        values round-trip through the core), so a cycle is a config bug.
        """
        indeg = {nid: 0 for nid in self.nodes}
        consumers: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for node in self.nodes.values():
            for src in node.inputs:
                if isinstance(src, NodeRef):
                    indeg[node.id] += 1
                    consumers[src.node].append(node.id)
        ready = sorted(nid for nid, d in indeg.items() if d == 0)
        order: list[DfgNode] = []
        while ready:
            nid = ready.pop()
            order.append(self.nodes[nid])
            for consumer in consumers[nid]:
                indeg[consumer] -= 1
                if indeg[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self.nodes):
            cyclic = sorted(nid for nid, d in indeg.items() if d > 0)
            raise ConfigurationError(
                f"{self.name}: DFG contains a cycle",
                code="RPR204", dfg=self.name, nodes=cyclic)
        return order

    def depth(self) -> int:
        """Longest op chain from any input to any output (in ops)."""
        level: dict[int, int] = {}
        for node in self.topo_order():
            producer_levels = [
                level[src.node] for src in node.inputs
                if isinstance(src, NodeRef)
            ]
            level[node.id] = 1 + max(producer_levels, default=0)
        return max(level.values(), default=0)

    def validate(self) -> None:
        """Structural checks: sources resolve, outputs exist, acyclic."""
        for node in self.nodes.values():
            for src in node.inputs:
                if isinstance(src, NodeRef) and src.node not in self.nodes:
                    raise ConfigurationError(
                        f"node {node.id} reads undefined node {src.node}",
                        code="RPR202", node=node.id, target=src.node,
                    )
        if not self.outputs:
            raise ConfigurationError(f"{self.name}: DFG has no outputs",
                                     code="RPR203", dfg=self.name)
        for port, src in self.outputs.items():
            if isinstance(src, NodeRef) and src.node not in self.nodes:
                raise ConfigurationError(
                    f"output port {port} reads undefined node {src.node}",
                    code="RPR202", port=port, target=src.node,
                )
        self.topo_order()

    def describe(self) -> str:
        lines = [f"dfg {self.name}:"]
        for node in self.topo_order():
            srcs = ", ".join(repr(s) for s in node.inputs)
            lines.append(f"  n{node.id} = {node.op.value}({srcs})")
        for port in self.output_ports:
            lines.append(f"  out P{port} <- {self.outputs[port]!r}")
        return "\n".join(lines)
