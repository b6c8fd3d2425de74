"""Tests for invocation timing, flow control, config cache and the device.

A core drives DySER through two halves with the same port sequence:
the values (:class:`DyserValues`) and the cycles of every point
(:class:`DyserCycles` over one :class:`DyserDevice` per point).
:class:`Pipe` drives them as a core does, for a lane of one.
"""

import pytest

from repro.dyser import (
    ConstRef,
    Dfg,
    DyserConfig,
    DyserCycles,
    DyserDevice,
    DyserTimingParams,
    DyserValues,
    Fabric,
    FabricGeometry,
    FuOp,
    PortRef,
)
from repro.dyser.config_cache import ConfigCache, ConfigCacheParams
from repro.dyser.dfg import NodeRef
from repro.dyser.functional import FunctionalEvaluator
from repro.errors import ConfigurationError, DyserError


def add_dfg() -> Dfg:
    dfg = Dfg("add")
    n = dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(1)])
    dfg.set_output(0, n)
    return dfg


def mul_dfg() -> Dfg:
    dfg = Dfg("mul")
    n = dfg.add_node(FuOp.MUL, [PortRef(0), PortRef(1)])
    dfg.set_output(0, n)
    return dfg


def make_config(config_id=0, dfg=None, geometry=(4, 4)) -> DyserConfig:
    return DyserConfig(config_id, dfg or add_dfg(),
                       Fabric(FabricGeometry(*geometry)))


class Pipe:
    """One device's cycles and one value side, each call made on both,
    values first (the value side owns the port and quiesce checks and
    returns the port counts the cycles read)."""

    def __init__(self, configs, depth=4, ii=1, geometry=(4, 4),
                 plan=None) -> None:
        self.device = DyserDevice(
            fabric=Fabric(FabricGeometry(*geometry)),
            timing=DyserTimingParams(
                input_fifo_depth=depth, output_fifo_depth=depth,
                initiation_interval=ii))
        for config in configs:
            self.device.register_config(config)
        self.values = (DyserValues(self.device.configs) if plan is None
                       else DyserValues(self.device.configs, plan))
        self.cycles = DyserCycles([self.device])

    def init_config(self, config_id, t):
        self.values.init_config(config_id)
        self.cycles.t[0] = t
        self.cycles.init_config(config_id)
        return self.cycles.t[0]

    def send(self, port, value, t_ready):
        self.cycles.t[0] = t_ready
        self.cycles.send(port, self.values.send(port, value),
                         self.values.fired)
        return self.cycles.t[0]

    def send_many(self, ports, values, arrivals):
        """One transfer, its arrivals in order; returns its stalls."""
        runs = self.values.send_many(ports, values)
        t0 = arrivals[0] if arrivals else 0
        self.cycles.t[0] = t0
        self.cycles.send_many(ports, runs, [[a - t0 for a in arrivals]])
        return self.cycles.t[0] - t0

    def recv(self, port, t_try):
        value = self.values.recv(port)
        self.cycles.t[0] = t_try
        self.cycles.recv(port)
        return value, self.cycles.t[0]

    def finalize(self):
        self.cycles.finalize()
        return self.device.stats

    @property
    def fire_times(self):
        return self.cycles.fire_times[0]

    @property
    def invocations(self):
        return self.cycles.fired


def make_engine(depth=4, ii=1, dfg=None) -> Pipe:
    """A pipe with config 0 active (and config 1, a multiply, loadable)."""
    pipe = Pipe([make_config(0, dfg), make_config(1, mul_dfg())], depth, ii)
    pipe.init_config(0, 0)
    return pipe


class TestInvocationEngine:
    """The invocation pipeline's rules, driven through both halves."""

    def test_single_invocation_value_and_delay(self):
        eng = make_engine()
        eng.send(0, 3, t_ready=10)
        eng.send(1, 4, t_ready=12)
        value, done = eng.recv(0, t_try=12)
        assert value == 7
        delay = make_config().path_delays()[0]
        assert done == 12 + delay

    def test_fire_waits_for_all_inputs(self):
        eng = make_engine()
        eng.send(0, 1, t_ready=5)
        assert eng.invocations == 0
        eng.send(1, 2, t_ready=50)
        assert eng.invocations == 1
        assert eng.fire_times == [50]

    def test_pipelining_one_per_cycle(self):
        eng = make_engine(depth=8)
        for i in range(6):
            eng.send(0, i, t_ready=10 + i)
            eng.send(1, i, t_ready=10 + i)
        assert eng.fire_times == [10 + i for i in range(6)]
        results = [eng.recv(0, t_try=0) for _ in range(6)]
        assert [v for v, _t in results] == [0, 2, 4, 6, 8, 10]
        # Outputs appear pipelined: one per cycle after the pipe fills.
        times = [t for _v, t in results]
        assert times == sorted(times)
        assert times[1] - times[0] == 1

    def test_initiation_interval_throttles(self):
        eng = make_engine(depth=8, ii=3)
        for i in range(4):
            eng.send(0, i, t_ready=0)
            eng.send(1, i, t_ready=0)
        assert eng.fire_times == [0, 3, 6, 9]

    def test_input_fifo_backpressure(self):
        # Depth 1: the second send on a port stalls until the invocation
        # holding the slot fires.
        eng = make_engine(depth=1)
        eng.send(0, 1, t_ready=0)
        eng.send(1, 1, t_ready=20)       # invocation 0 fires at 20
        done = eng.send(0, 2, t_ready=5)
        assert done == 20                 # stalled on the full FIFO

    def test_deep_fifo_absorbs_burst(self):
        eng = make_engine(depth=4)
        times = [eng.send(0, i, t_ready=i) for i in range(4)]
        assert times == [0, 1, 2, 3]      # no backpressure within depth

    def test_output_backpressure_delays_fire(self):
        eng = make_engine(depth=2)
        # Fill the output FIFO (depth 2), then receive invocation 0 late.
        for i in range(2):
            eng.send(0, i, t_ready=0)
            eng.send(1, i, t_ready=0)
        _v, _t = eng.recv(0, t_try=100)   # frees a slot at cycle >= 100
        # Invocation 2's output slot is the one just freed: it cannot
        # fire before that receive completed.
        eng.send(0, 9, t_ready=0)
        eng.send(1, 9, t_ready=0)
        assert eng.fire_times[2] >= 100

    def test_output_backpressure_unresolved_is_counted(self):
        # Receiving *after* the burst violates invocation ordering; the
        # model optimistically accepts but counts it (see timing.py).
        eng = make_engine(depth=2)
        for i in range(3):
            eng.send(0, i, t_ready=0)
            eng.send(1, i, t_ready=0)
        assert eng.device.stats.unresolved_flow_stalls > 0

    def test_recv_without_invocation_raises(self):
        eng = make_engine()
        eng.send(0, 1, t_ready=0)
        with pytest.raises(DyserError, match="no pending invocation"):
            eng.recv(0, t_try=0)

    def test_send_to_unused_port_raises(self):
        eng = make_engine()
        with pytest.raises(DyserError, match="does not use"):
            eng.send(7, 1, t_ready=0)

    def test_recv_from_undriven_port_raises(self):
        eng = make_engine()
        with pytest.raises(DyserError, match="does not drive"):
            eng.recv(5, t_try=0)

    def test_quiesce_rejects_inflight_inputs(self):
        eng = make_engine()
        eng.send(0, 1, t_ready=0)
        with pytest.raises(DyserError, match="input port 0: .* 1 values "
                                             "still pending"):
            eng.init_config(1, 0)

    def test_quiesce_rejects_unread_outputs(self):
        # Outputs declared port 1 first: the check still names the
        # lowest unread port.
        dfg = Dfg("two-out")
        n = dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(1)])
        dfg.set_output(1, n)
        dfg.set_output(0, n)
        eng = make_engine(dfg=dfg)
        for v in (1, 2):
            eng.send(0, v, t_ready=0)
            eng.send(1, v, t_ready=0)
        eng.recv(1, t_try=0)
        with pytest.raises(DyserError,
                           match="output port 0: .* 2 values unread"):
            eng.init_config(1, 0)

    def test_quiesce_after_drain(self):
        eng = make_engine()
        eng.send(0, 1, t_ready=0)
        eng.send(1, 1, t_ready=0)
        eng.recv(0, t_try=0)
        eng.init_config(1, 0)

    def test_saturated_engine_fires_every_ii(self):
        """With inputs always available and outputs never full, the
        device fires every ``ii`` cycles, and the last of 16 outputs
        lands at 15 * ii plus the path delay (3 cycles)."""
        assert make_config().path_delays() == {0: 3}
        for ii, last_ready in ((1, 18), (2, 33), (5, 78)):
            eng = make_engine(depth=64, ii=ii)
            for i in range(16):
                eng.send(0, i, t_ready=0)
                eng.send(1, 1, t_ready=0)
            assert eng.fire_times == [i * ii for i in range(16)]
            ready = [eng.recv(0, t_try=0)[1] for _ in range(16)]
            assert max(ready) == last_ready


class TestConfigCache:
    def test_miss_then_hit(self):
        cc = ConfigCache(ConfigCacheParams(capacity=2,
                                           load_words_per_cycle=2.0,
                                           hit_switch_cycles=2))
        miss_cycles, hit = cc.load_cycles(1, 100)
        assert not hit and miss_cycles == 50
        hit_cycles, hit = cc.load_cycles(1, 100)
        assert hit and hit_cycles == 2

    def test_capacity_zero_never_hits(self):
        cc = ConfigCache(ConfigCacheParams(capacity=0))
        cc.load_cycles(1, 10)
        _c, hit = cc.load_cycles(1, 10)
        assert not hit

    def test_lru_eviction(self):
        cc = ConfigCache(ConfigCacheParams(capacity=2))
        cc.load_cycles(1, 10)
        cc.load_cycles(2, 10)
        cc.load_cycles(3, 10)   # evicts 1
        _c, hit = cc.load_cycles(1, 10)
        assert not hit
        _c, hit = cc.load_cycles(3, 10)
        assert hit


class TestDyserDevice:
    def make_device(self) -> Pipe:
        return Pipe([make_config(0), make_config(1, mul_dfg())])

    def test_init_and_execute(self):
        dev = self.make_device()
        ready = dev.init_config(0, t=0)
        assert ready > 0       # cold load takes time
        dev.send(0, 2, ready)
        dev.send(1, 3, ready)
        value, _t = dev.recv(0, ready)
        assert value == 5

    def test_unregistered_config_raises(self):
        dev = self.make_device()
        with pytest.raises(DyserError, match="unregistered"):
            dev.init_config(42, t=0)

    def test_reinit_same_config_is_free(self):
        dev = self.make_device()
        ready = dev.init_config(0, t=0)
        assert dev.init_config(0, t=ready + 5) == ready + 5

    def test_switch_waits_for_drain(self):
        dev = self.make_device()
        ready = dev.init_config(0, t=0)
        dev.send(0, 1, ready)
        dev.send(1, 1, ready)
        _v, done = dev.recv(0, ready)
        ready2 = dev.init_config(1, t=ready)
        assert ready2 >= done

    def test_config_cache_hit_on_return(self):
        dev = self.make_device()
        r0 = dev.init_config(0, 0)
        r1 = dev.init_config(1, r0)
        cold_cost = r1 - r0
        r2 = dev.init_config(0, r1)   # should hit the config cache
        assert r2 - r1 < cold_cost

    def test_send_without_config_raises(self):
        dev = self.make_device()
        with pytest.raises(DyserError, match="no configuration"):
            dev.send(0, 1, 0)
        with pytest.raises(DyserError, match="no configuration"):
            dev.recv(0, 0)

    def test_stats_accumulate(self):
        dev = self.make_device()
        ready = dev.init_config(0, 0)
        dev.send(0, 1, ready)
        dev.send(1, 1, ready)
        dev.recv(0, ready)
        stats = dev.finalize()
        assert stats.invocations == 1
        assert stats.values_sent == 2
        assert stats.values_received == 1
        assert stats.config_loads == 1

    def test_duplicate_config_id_rejected(self):
        dev = self.make_device()
        with pytest.raises(DyserError, match="duplicate"):
            dev.device.register_config(make_config(0))

    def test_each_config_validated_and_planned_once(self, monkeypatch):
        """Registration validates a config; switching back and forth
        re-validates nothing and builds one evaluator plan per config."""
        built = []

        def plan(config):
            built.append(config.config_id)
            return FunctionalEvaluator(config.dfg)

        dev = Pipe([make_config(0), make_config(1, mul_dfg())], plan=plan)
        calls = []
        monkeypatch.setattr(DyserConfig, "validate",
                            lambda self: calls.append(self.config_id))
        t = 0
        plans = []
        for cid in (0, 1, 0, 1, 0):
            t = dev.init_config(cid, t)
            plans.append(dev.values.plans[cid])
            dev.send(0, 2, t)
            dev.send(1, 3, t)
            _value, t = dev.recv(0, t)
        assert calls == []
        assert built == [0, 1]
        assert plans[0] is plans[2] is plans[4]
        assert plans[1] is plans[3]
        assert plans[0] is not plans[1]


class TestDirectConstruction:
    """What is built from a configuration checks it."""

    def bad_port_config(self) -> DyserConfig:
        dfg = Dfg("far")
        n = dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(99)])
        dfg.set_output(0, n)
        return make_config(dfg=dfg)

    def test_engine_rejects_invalid_config(self):
        with pytest.raises(ConfigurationError, match="input port 99"):
            Pipe([self.bad_port_config()])

    def test_evaluator_rejects_invalid_dfg(self):
        dfg = Dfg("dangling")
        n = dfg.add_node(FuOp.ADD, [PortRef(0), NodeRef(7)])
        dfg.set_output(0, n)
        with pytest.raises(ConfigurationError, match="undefined node 7"):
            FunctionalEvaluator(dfg)


def single_input_dfg() -> Dfg:
    """One input port, one output — the shape dldv streams into."""
    dfg = Dfg("scale")
    n = dfg.add_node(FuOp.MUL, [PortRef(0), ConstRef(3)])
    dfg.set_output(0, n)
    return dfg


def make_device(depth=4, ii=1, dfg=None) -> tuple[Pipe, int]:
    """A pipe with config 0 loaded, and the cycle it is ready."""
    pipe = Pipe([make_config(dfg=dfg)], depth, ii)
    return pipe, pipe.init_config(0, 0)


class TestSendStream:
    """``send_many`` (one call per ``dldv``/``dldw`` transfer) against
    one ``send`` per value."""

    def _drain(self, dev, count):
        return [dev.recv(0, t_try=0) for _ in range(count)]

    def _per_send(self, dev, ports, values, arrivals):
        total = 0
        for port, v, t in zip(ports, values, arrivals):
            total += max(0, dev.send(port, v, t) - t)
        return total

    def test_stream_is_cycle_exact_with_per_send_path(self):
        values = [float(v) for v in range(40)]
        arrivals = [2 * i for i in range(40)]
        for depth, ii in ((1, 1), (2, 3), (4, 1), (8, 2)):
            a, _ = make_device(depth, ii, single_input_dfg())
            b, _ = make_device(depth, ii, single_input_dfg())
            ports = (0,) * 40
            slow_total = self._per_send(a, ports, values, arrivals)
            fast_total = b.send_many(ports, values, arrivals)
            assert a.fire_times == b.fire_times
            assert slow_total == fast_total
            assert a.device.send_stall_cycles == b.device.send_stall_cycles
            assert self._drain(a, 40) == self._drain(b, 40)
            assert a.finalize() == b.finalize()

    def test_stream_with_backpressure(self):
        """All values arrive at once: the one-call path must reproduce
        the FIFO-full stalls of the per-send path."""
        values = list(range(20))
        arrivals = [0] * 20
        a, _ = make_device(2, 3, single_input_dfg())
        b, _ = make_device(2, 3, single_input_dfg())
        slow_total = self._per_send(a, (0,) * 20, values, arrivals)
        fast_total = b.send_many((0,) * 20, values, arrivals)
        assert slow_total == fast_total > 0
        assert a.fire_times == b.fire_times
        assert self._drain(a, 20) == self._drain(b, 20)

    def test_stream_falls_back_on_multi_port_configs(self):
        dev, _ = make_device()   # two input ports
        dev.send(1, 5, t_ready=0)
        total = dev.send_many((0, 0), [1, 2], [0, 1])
        assert dev.invocations == 1   # second value waits on port 1
        assert total == 0


def add4_dfg() -> Dfg:
    dfg = Dfg("add4")
    a = dfg.add_node(FuOp.ADD, [PortRef(0), PortRef(1)])
    b = dfg.add_node(FuOp.ADD, [PortRef(2), PortRef(3)])
    dfg.set_output(0, dfg.add_node(FuOp.ADD, [a, b]))
    return dfg


def _accounting(dev, dones, recvs) -> dict:
    fire_times = list(dev.fire_times)
    stats = dev.finalize()
    return {"dones": dones, "recvs": recvs, "fire_times": fire_times,
            "values_sent": stats.values_sent,
            "invocations": stats.invocations,
            "unresolved_flow_stalls": stats.unresolved_flow_stalls,
            "send_stall_cycles": dict(dev.device.send_stall_cycles),
            "recv_stall_cycles": dict(dev.device.recv_stall_cycles)}


class TestSendAccounting:
    """Flow-control accounting of hand-ordered send sequences, pinned
    value by value: every counter a send or a fire moves."""

    def test_unresolved_stall_sequence(self):
        # Depth 2: the third send to port 0 needs invocation 0's slot
        # before port 1 has sent anything, so its wait is unresolved;
        # the third fire finds its output slot's receive unresolved too.
        dev, t = make_device(2, 1)
        dones = [dev.send(0, v, t + v) for v in range(3)]
        dones += [dev.send(1, 10 * v, t + 5 + v) for v in range(3)]
        recvs = [dev.recv(0, t) for _ in range(3)]
        dones += [dev.send(0, 7, t + 1), dev.send(1, 8, t + 2)]
        recvs.append(dev.recv(0, t))
        assert _accounting(dev, dones, recvs) == {
            "dones": [6, 7, 8, 11, 12, 13, 12, 12],
            "recvs": [(0, 14), (11, 15), (22, 16), (15, 18)],
            "fire_times": [11, 12, 13, 15],
            "values_sent": 8, "invocations": 4,
            "unresolved_flow_stalls": 2,
            "send_stall_cycles": {0: 5, 1: 4},
            "recv_stall_cycles": {0: 39},
        }

    @pytest.mark.parametrize("one_call", [True, False],
                             ids=["send_many", "per_send"])
    def test_wide_send_fills_last_fifo_mid_transfer(self, one_call):
        # Ports 1-3 hold two values each (full at depth 2) and port 0
        # none.  The wide transfer's first deposit fires invocation 0;
        # its next three deposits wait for that fire to free a slot.
        dev, t = make_device(2, 1, add4_dfg())
        dones = [dev.send(port, 100 * port + k, t + 50 + k)
                 for k in range(2) for port in (1, 2, 3)]

        def wide(values, arrivals):
            if one_call:
                return dev.send_many(range(4), values, arrivals)
            return sum(max(0, dev.send(i, v, a) - a)
                       for i, (v, a) in enumerate(zip(values, arrivals)))

        stalls = [wide([1, 2, 3, 4], [t + 10 + i for i in range(4)])]
        recvs = [dev.recv(0, t + 55)]
        stalls.append(wide([5, 6, 7, 8], [t + 60 + i for i in range(4)]))
        recvs.append(dev.recv(0, t))
        stalls.append(wide([9, 10, 11, 12], [t + 70] * 4))
        recvs.append(dev.recv(0, t))
        assert stalls == [114, 0, 0]
        assert _accounting(dev, dones, recvs) == {
            "dones": [63, 63, 63, 64, 64, 64],
            "recvs": [(601, 68), (608, 78), (18, 88)],
            "fire_times": [63, 73, 83],
            "values_sent": 18, "invocations": 3,
            "unresolved_flow_stalls": 0,
            "send_stall_cycles": {1: 39, 2: 38, 3: 37},
            "recv_stall_cycles": {0: 140},
        }
