"""Functional evaluation of a DFG: one invocation in, one set of outputs out.

The fabric is a pure dataflow machine: an invocation consumes exactly one
value from every configured input port and produces exactly one value on
every configured output port.  Control flow inside a region is handled by
select operations (``sel``/``fsel``) placed by the compiler's
if-conversion, exactly as DySER's predication works in hardware.

A :class:`FunctionalEvaluator` compiles its DFG once, at construction,
into a flat *plan*: one Python function whose positional arguments are
the input-port values (in ``dfg.input_ports`` order), whose body is one
line per node in ``topo_order()`` calling that node's op function on
its operands (input ports, preloaded constants or earlier nodes), and
which returns the outputs as a tuple in ``dfg.outputs`` order.  A fire
is then one call with no per-node dispatch, and every value and fault
is the one the op functions of :mod:`repro.dyser.ops` give.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import DyserError
from repro.dyser.dfg import ConstRef, Dfg, PortRef, Source
from repro.dyser.ops import _EVAL


@lru_cache(maxsize=256)
def _binder(source: str):
    """Compile plan source once per DFG shape; the op functions and
    constants are bound per evaluator, so the source carries neither."""
    ns: dict = {}
    exec(source, ns)  # noqa: S102 - generated from DFG structure, no input text
    return ns["_bind"]


class FunctionalEvaluator:
    """Evaluates a DFG invocation by invocation from a plan built once.

    ``run(*values)`` takes one value per input port (``input_ports``
    order) and returns the output values (``output_ports`` order);
    calling the evaluator with a port -> value dict returns a port ->
    value dict.  Subclasses change what a fire does by replacing
    ``run``.
    """

    def __init__(self, dfg: Dfg) -> None:
        dfg.validate()
        self.dfg = dfg
        self.input_ports = tuple(dfg.input_ports)
        self.output_ports = tuple(dfg.outputs)
        names = {port: f"p{i}" for i, port in enumerate(self.input_ports)}
        params: list[str] = []
        bound: list = []
        order = dfg.topo_order()
        slot = {node.id: f"v{i}" for i, node in enumerate(order)}

        def operand(src: Source) -> str:
            if isinstance(src, PortRef):
                return names[src.port]
            if isinstance(src, ConstRef):
                params.append(f"c{len(params)}")
                bound.append(src.value)
                return params[-1]
            return slot[src.node]

        body = []
        for node in order:
            args = ", ".join(operand(s) for s in node.inputs)
            params.append(f"f{len(params)}")
            bound.append(_EVAL[node.op])
            body.append(f"        {slot[node.id]} = {params[-1]}({args})\n")
        outs = "".join(f"{operand(s)}, " for s in dfg.outputs.values())
        source = (
            f"def _bind({', '.join(params)}):\n"
            f"    def run({', '.join(names.values())}):\n"
            f"{''.join(body)}"
            f"        return ({outs})\n"
            f"    return run\n")
        self.run = _binder(source)(*bound)

    def __call__(self, inputs: dict[int, int | float]) -> dict[int, int | float]:
        """Run one invocation.

        Args:
            inputs: value per configured input port.

        Returns:
            value per configured output port.
        """
        missing = [p for p in self.input_ports if p not in inputs]
        if missing:
            raise DyserError(f"invocation missing input ports {missing}")
        outputs = self.run(*[inputs[p] for p in self.input_ports])
        return dict(zip(self.output_ports, outputs))
