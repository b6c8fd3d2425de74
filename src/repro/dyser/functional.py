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

:class:`DyserValues` is the value side of one core's DySER: the values
waiting on each port and the plan runs that consume them.  The cycle
each value moves is :class:`~repro.dyser.interface.DyserDevice`'s; no
timing knob can change a value, so a lockstep lane shares one value
side across all its points.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from repro.errors import DyserError
from repro.dyser.config import DyserConfig
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


def _plan(config: DyserConfig) -> FunctionalEvaluator:
    return FunctionalEvaluator(config.dfg)


class DyserValues:
    """The values crossing one core's fabric, invocation by invocation.

    ``configs`` maps config ids to validated configurations (the
    device's registry).  A config's plan is built by ``plan`` on its
    first activation and kept in :attr:`plans`.  The active config has
    one value deque per input and per output port.  A :meth:`send` that
    fills the last empty input deque fires: it pops one value per input
    port and runs the plan once; the outputs join the output deques for
    :meth:`recv`.  Every caller sends and receives the same port
    sequence here as on each point's device, so both sides fire
    together.
    """

    def __init__(self, configs: dict[int, DyserConfig], plan=_plan) -> None:
        self.configs = configs
        self._plan = plan
        self.plans: dict[int, FunctionalEvaluator] = {}
        self.active: int | None = None
        # Port deques of the active config: by port, and in the plan's
        # argument (input) and result (output) order.
        self._inputs: dict[int, deque] = {}
        self._outputs: dict[int, deque] = {}
        self._pending: list[deque] = []
        self._ready: list[deque] = []
        # Input deques holding at least one value: the plan can fire
        # exactly when this reaches len(_pending).
        self._filled = 0
        self._run = None

    def init_config(self, config_id: int) -> None:
        """Activate ``config_id`` (a no-op when it is active already);
        every value of the previous config must have been consumed."""
        if config_id == self.active:
            return
        config = self.configs.get(config_id)
        if config is None:
            raise DyserError(f"dinit of unregistered config {config_id}")
        for port in sorted(self._inputs):
            if self._inputs[port]:
                raise DyserError(
                    f"input port {port}: reconfigure with "
                    f"{len(self._inputs[port])} values still pending")
        for port in sorted(self._outputs):
            if self._outputs[port]:
                raise DyserError(
                    f"output port {port}: reconfigure with "
                    f"{len(self._outputs[port])} values unread")
        plan = self.plans.get(config_id)
        if plan is None:
            plan = self.plans[config_id] = self._plan(config)
        self.active = config_id
        self._run = plan.run
        self._pending = [deque() for _ in plan.input_ports]
        self._ready = [deque() for _ in plan.output_ports]
        self._inputs = dict(zip(plan.input_ports, self._pending))
        self._outputs = dict(zip(plan.output_ports, self._ready))
        self._filled = 0

    def send(self, port: int, value) -> None:
        """Deposit ``value`` on input ``port``, firing if it was the
        last one missing."""
        try:
            q = self._inputs[port]
        except KeyError:
            raise self._no_port("send", port) from None
        # After every fire loop at least one input deque is empty, so
        # only a deposit into an empty deque can enable a fire.
        if q:
            q.append(value)
        else:
            q.append(value)
            self._filled += 1
            if self._filled == len(self._pending):
                self._fire()

    def send_many(self, ports, values) -> None:
        """:meth:`send` each of ``values`` to the port at the same index
        of ``ports``, in order (one ``dldv``/``dldw`` transfer)."""
        inputs = self._inputs
        filled, needed = self._filled, len(self._pending)
        for port, value in zip(ports, values, strict=True):
            try:
                q = inputs[port]
            except KeyError:
                self._filled = filled
                raise self._no_port("send", port) from None
            if q:
                q.append(value)
            else:
                q.append(value)
                filled += 1
                if filled == needed:
                    self._fire()
                    filled = self._filled
        self._filled = filled

    def recv(self, port: int):
        """Pop output ``port``'s oldest value."""
        q = self._outputs.get(port)
        if not q:
            if q is None:
                raise self._no_port("recv", port)
            raise DyserError(
                f"output port {port}: receive with no pending "
                f"invocation (region sent fewer values than it receives?)")
        return q.popleft()

    def _fire(self) -> None:
        """Run the plan while every input deque holds a value."""
        pending, ready, run = self._pending, self._ready, self._run
        popleft = deque.popleft
        while True:
            # Unpacking a bare map would grow each call's argument tuple
            # to size, and free lists keep every such tuple freed.
            args = list(map(popleft, pending))
            for q, value in zip(ready, run(*args)):
                q.append(value)
            if not all(pending):
                self._filled = sum(map(bool, pending))
                return

    def _no_port(self, op: str, port: int) -> DyserError:
        if self.active is None:
            return DyserError(f"{op} with no configuration loaded")
        if op == "send":
            return DyserError(f"send to port {port}, which config "
                              f"{self.active} does not use")
        return DyserError(f"recv from port {port}, which config "
                          f"{self.active} does not drive")
