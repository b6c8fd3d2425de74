"""Differential tests of the lane-wide DySER cycle model.

One :class:`DyserCycles` simulates every timing point of a lane; the
lane's one :class:`DyserValues` walks the port counts it reads.  Random
port sequences run three ways, and every point must agree:

- the lane, 2-6 points with random FIFO depths, initiation intervals,
  config-cache capacities and port rates, moving each transfer with one
  ``send_many`` and each vector receive with one ``recv`` per value;
- a solo run of each point (a lane of one), which sends and receives
  value by value as the reference core does;
- :class:`FifoOracle`, an independent per-point model that keeps a
  deque of entry cycles per input port and applies the flow-control
  rules of :mod:`repro.dyser.timing` value by value.
"""

from __future__ import annotations

from collections import Counter, deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dyser import (
    Dfg,
    DyserConfig,
    DyserCycles,
    DyserDevice,
    DyserStats,
    DyserTimingParams,
    DyserValues,
    Fabric,
    FabricGeometry,
    FuOp,
    PortRef,
)
from repro.dyser.config_cache import ConfigCache, ConfigCacheParams

FABRIC = Fabric(FabricGeometry(4, 4))


def _configs() -> list[DyserConfig]:
    """Config 0: three inputs, two outputs; config 1: two inputs, one
    output (different path delays, so switches drain differently)."""
    three = Dfg("three")
    a = three.add_node(FuOp.ADD, [PortRef(0), PortRef(1)])
    three.set_output(0, three.add_node(FuOp.MUL, [a, PortRef(2)]))
    three.set_output(1, a)
    two = Dfg("two")
    two.set_output(0, two.add_node(FuOp.SUB, [PortRef(0), PortRef(1)]))
    return [DyserConfig(0, three, FABRIC), DyserConfig(1, two, FABRIC)]


CONFIGS = _configs()


class FifoOracle:
    """One point's port FIFOs, value by value, kept apart from the code
    under test: a deque of entry cycles per input port, a fire whenever
    every input port holds one, and the receive cycles per output."""

    def __init__(self, device: DyserDevice) -> None:
        self.timing = device.timing
        self.cache = ConfigCache(device.cache_params)
        self.stats = DyserStats()
        self.send_stalls: Counter = Counter()
        self.recv_stalls: Counter = Counter()
        self.config: DyserConfig | None = None
        self.fires: list[int] = []

    def init_config(self, config_id: int, t: int) -> int:
        config = CONFIGS[config_id]
        start = t
        if self.config is not None:
            if self.config.config_id == config_id:
                return t
            start = max(t, self.drained())
            self.finalize()
        words = config.config_words()
        cycles, hit = self.cache.load_cycles(config_id, words)
        self.stats.config_loads += 1
        if hit:
            self.stats.config_hits += 1
        else:
            self.stats.config_words_loaded += words
        ready = start + cycles
        self.stats.config_stall_cycles += ready - t
        self.config, self.fires, self.unresolved = config, [], 0
        self.inputs = {port: deque() for port in config.dfg.input_ports}
        self.outputs = {port: ([], delay)
                        for port, delay in config.path_delays().items()}
        return ready

    def send(self, port: int, t: int) -> int:
        q = self.inputs[port]
        done = t
        freeing = len(self.fires) + len(q) - self.timing.input_fifo_depth
        if freeing >= 0:
            if freeing < len(self.fires):
                done = max(done, self.fires[freeing])
            else:
                self.unresolved += 1
        q.append(done)
        while all(self.inputs.values()):
            self._fire()
        if done > t:
            self.send_stalls[port] += done - t
        return done

    def _fire(self) -> None:
        fire_at = max(q.popleft() for q in self.inputs.values())
        if self.fires:
            fire_at = max(fire_at,
                          self.fires[-1] + self.timing.initiation_interval)
        freeing = len(self.fires) - self.timing.output_fifo_depth
        if freeing >= 0:
            for times, _ in self.outputs.values():
                if freeing < len(times):
                    fire_at = max(fire_at, times[freeing])
                else:
                    self.unresolved += 1
        self.fires.append(fire_at)

    def recv(self, port: int, t: int) -> int:
        times, delay = self.outputs[port]
        done = max(t, self.fires[len(times)] + delay)
        times.append(done)
        if done > t:
            self.recv_stalls[port] += done - t
        return done

    def drained(self) -> int:
        drained = 0
        for times, delay in self.outputs.values():
            if len(times) < len(self.fires):
                drained = max(drained, max(self.fires[len(times):]) + delay)
            elif times:
                drained = max(drained, times[-1])
        return drained

    def finalize(self) -> DyserStats:
        if self.config is not None:
            fires = len(self.fires)
            self.stats.invocations += fires
            self.stats.values_sent += (
                fires * len(self.inputs)
                + sum(map(len, self.inputs.values())))
            self.stats.values_received += sum(
                len(times) for times, _ in self.outputs.values())
            self.stats.unresolved_flow_stalls += self.unresolved
            self.stats.fu_ops += fires * len(self.config.dfg.nodes)
            self.stats.switch_hops += (fires
                                       * self.config.used_switch_links())
            self.config = None
        return self.stats


# ---------------------------------------------------------------------
# Port sequences
# ---------------------------------------------------------------------

# Issue gaps, often none, so FIFOs fill up.
_DT = st.one_of(st.just(0), st.integers(0, 6))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("send"), st.integers(0, 2), _DT),
    # One port repeated (dldv) / consecutive ports (dldw).
    st.tuples(st.just("stream"), st.integers(0, 2), st.integers(1, 6), _DT),
    st.tuples(st.just("wide"), st.integers(0, 2), st.integers(1, 3), _DT),
    # One value on every input port: a whole invocation.
    st.tuples(st.just("inv"), st.booleans(), _DT),
    st.tuples(st.just("recv"), st.integers(0, 1), st.integers(0, 40)),
    st.tuples(st.just("recvs"), st.integers(1, 3), st.integers(0, 40)),
    st.tuples(st.just("switch"), st.integers(0, 1), _DT),
    st.tuples(st.just("evict"), st.integers(0, 5), _DT),
), min_size=1, max_size=40)

_POINT = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
                   st.integers(0, 2), st.sampled_from([1, 2, 4]))


def _steps(ops) -> list[tuple]:
    """Expand ``ops`` into primitive steps every caller can take: a
    receive only when the value is there, a switch after sending what
    the pending fires miss and receiving every output.  Steps are
    ``(kind, ports, dt)``; ``init`` carries its config id as ``ports``,
    ``evict`` an index into the lane's live points."""
    values = DyserValues({c.config_id: c for c in CONFIGS})
    steps = [("init", 0, 0)]
    values.init_config(0)
    active = 0
    sent: Counter = Counter()
    received: Counter = Counter()

    def send(ports) -> None:
        values.send_many(ports, [1] * len(ports))
        sent.update(ports)

    for op in ops:
        kind, dt = op[0], op[-1]
        inputs = sorted(CONFIGS[active].dfg.input_ports)
        outputs = sorted(CONFIGS[active].dfg.outputs)
        if kind == "inv" and op[1]:
            for port in inputs:
                send((port,))
                steps.append(("send", (port,), dt))
        elif kind in ("send", "stream", "wide", "inv"):
            first = op[1] % len(inputs)
            ports = ((inputs[first],) if kind == "send"
                     else tuple(inputs) if kind == "inv"
                     else (inputs[first],) * op[2] if kind == "stream"
                     else tuple(inputs[first:first + op[2]]))
            send(ports)
            steps.append(("send" if kind == "send" else "many", ports, dt))
        elif kind in ("recv", "recvs"):
            want = ((outputs[op[1] % len(outputs)],) if kind == "recv"
                    else tuple(outputs[i % len(outputs)]
                               for i in range(op[1])))
            need = Counter(want)
            if all(values.fired - received[port] >= n
                   for port, n in need.items()):
                for port in want:
                    values.recv(port)
                received.update(want)
                steps.append((kind, want, dt))
        elif kind == "switch":
            # Complete the pending fires, then read every output.
            target = max(sent[port] for port in inputs)
            for port in inputs:
                for _ in range(target - sent[port]):
                    send((port,))
                    steps.append(("send", (port,), 0))
            for port in outputs:
                while values.fired > received[port]:
                    values.recv(port)
                    received[port] += 1
                    steps.append(("recv", (port,), 0))
            if op[1] != active:
                # Otherwise dinit re-arms the live config: counts go on.
                sent.clear()
                received.clear()
            active = op[1]
            values.init_config(active)
            steps.append(("init", active, dt))
        else:
            steps.append((kind, op[1], dt))
    return steps


def _device(point) -> DyserDevice:
    depth_in, depth_out, ii, capacity, _rate = point
    device = DyserDevice(
        fabric=FABRIC,
        timing=DyserTimingParams(input_fifo_depth=depth_in,
                                 output_fifo_depth=depth_out,
                                 initiation_interval=ii),
        cache_params=ConfigCacheParams(capacity=capacity))
    for config in CONFIGS:
        device.register_config(config)
    return device


def _run_lane(points, steps):
    """The lane: per point, each step's result and the fire times at
    each switch and at the end; the devices after :meth:`finalize`."""
    devices = [_device(point) for point in points]
    values = DyserValues(devices[0].configs)
    cycles = DyserCycles(devices)
    rates = [point[4] for point in points]
    t, clock = cycles.t, [0] * len(points)
    alive = list(range(len(points)))
    records = [[] for _ in points]
    fires = [[] for _ in points]
    for kind, ports, dt in steps:
        if kind == "evict":
            if len(alive) > 1:
                alive.remove(alive[ports % len(alive)])
                cycles.keep(alive)
            continue
        issue = {p: clock[p] + dt for p in alive}
        for p in alive:
            t[p] = issue[p]
        if kind == "init":
            for p in alive:
                fires[p].append(list(cycles.fire_times[p]))
            values.init_config(ports)
            cycles.init_config(ports)
        elif kind == "send":
            cycles.send(ports[0], values.send(ports[0], 1), values.fired)
        elif kind == "many":
            runs = values.send_many(ports, [1] * len(ports))
            cycles.send_many(ports, runs, [
                [i // rate for i in range(len(ports))] for rate in rates])
        elif kind == "recv":
            values.recv(ports[0])
            cycles.recv(ports[0])
        else:
            for port in ports:
                values.recv(port)
                cycles.recv(port)
        for p in alive:
            records[p].append(t[p])
            clock[p] = (issue[p] if kind in ("many", "recvs")
                        else t[p]) + 1
    for p in alive:
        fires[p].append(list(cycles.fire_times[p]))
    cycles.finalize()
    return alive, records, fires, devices


def _run_solo(point, steps):
    """One point alone, value by value, as the reference core drives
    it, with :class:`FifoOracle` taking every call beside it."""
    device = _device(point)
    oracle = FifoOracle(device)
    values = DyserValues(device.configs)
    cycles = DyserCycles([device])
    t, rate, clock = cycles.t, point[4], 0
    records, fires = [], []

    def send(port, at):
        t[0] = at
        cycles.send(port, values.send(port, 1), values.fired)
        assert t[0] == oracle.send(port, at)
        return t[0]

    def recv(port, at):
        values.recv(port)
        t[0] = at
        cycles.recv(port)
        assert t[0] == oracle.recv(port, at)
        return t[0]

    for kind, ports, dt in steps:
        if kind == "evict":
            continue
        issue = clock + dt
        if kind == "init":
            fires.append(list(cycles.fire_times[0]))
            assert oracle.fires == fires[-1]
            values.init_config(ports)
            t[0] = issue
            cycles.init_config(ports)
            assert t[0] == oracle.init_config(ports, issue)
            done = t[0]
        elif kind == "send":
            done = send(ports[0], issue)
        elif kind == "many":
            arrivals = [issue + i // rate for i in range(len(ports))]
            done = issue + sum(send(port, at) - at
                               for port, at in zip(ports, arrivals))
        elif kind == "recv":
            done = recv(ports[0], issue)
        else:
            done = issue
            for port in ports:
                done = recv(port, done)
        records.append(done)
        clock = (issue if kind in ("many", "recvs") else done) + 1
    fires.append(list(cycles.fire_times[0]))
    assert oracle.fires == fires[-1]
    cycles.finalize()
    assert oracle.finalize() == device.stats
    assert oracle.send_stalls == device.send_stall_cycles
    assert oracle.recv_stalls == device.recv_stall_cycles
    return records, fires, device


class TestLaneMatchesSoloRuns:
    @settings(max_examples=150, deadline=None)
    @given(points=st.lists(_POINT, min_size=2, max_size=6), ops=_OPS)
    # A late decoupled receive back-pressures the next fire at output
    # FIFO depth 1 only.
    @example(points=[(4, 1, 1, 0, 1), (4, 4, 1, 0, 1)],
             ops=[("inv", False, 0), ("recvs", 1, 0), ("inv", False, 0),
                  ("recv", 0, 0)])
    # Port 1 runs a value ahead of the fire freeing its slot
    # (unresolved at depth 1); the stream on port 0 fires twice
    # mid-transfer and waits on the spaced fires at interval 3.
    @example(points=[(1, 2, 3, 1, 1), (2, 1, 1, 0, 2), (4, 4, 2, 2, 4)],
             ops=[("wide", 1, 2, 0), ("wide", 1, 2, 0), ("stream", 0, 3, 0),
                  ("switch", 1, 0), ("send", 0, 0), ("switch", 0, 2)])
    # Back-to-back invocations at interval 3: the early values of a
    # transfer wait for the fire freeing their slots, the later not.
    @example(points=[(1, 4, 3, 0, 1), (2, 4, 2, 0, 2)],
             ops=[("inv", False, 0)] * 4)
    def test_every_point_matches_its_solo_run(self, points, ops):
        steps = _steps(ops)
        alive, records, fires, devices = _run_lane(points, steps)
        for p, point in enumerate(points):
            solo, solo_fires, device = _run_solo(point, steps)
            if p not in alive:
                # Evicted: its results agree up to its eviction.
                assert records[p] == solo[:len(records[p])]
                continue
            assert records[p] == solo
            assert fires[p] == solo_fires
            lane = devices[p]
            assert lane.stats == device.stats
            assert lane.send_stall_cycles == device.send_stall_cycles
            assert lane.recv_stall_cycles == device.recv_stall_cycles
