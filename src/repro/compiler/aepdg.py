"""Access/execute partitioning (the AEPDG of the DySER compiler).

Given an if-converted (and possibly unrolled) loop body, this pass:

1. computes the *access slice* — memory operations, the address
   arithmetic feeding them, and anything else that must stay on the host;
2. computes the *execute slice* — the pure-compute subgraph, which
   becomes the DySER DFG;
3. discovers the interface: loads feeding only the execute slice become
   direct memory-to-port transfers; access values consumed by the slice
   become sends; slice values consumed by the access side become
   receives, or direct port-to-memory stores when a store is the only
   consumer;
4. vectorizes: unrolled lanes whose load/store addresses are provably
   consecutive (affine analysis) merge into wide cache-line transfers on
   adjacent ports;
5. runs every check that reads no placement, so none wastes one, in
   this order (it fixes the reason of a region that fails several):
   the DFG fits the fabric (``RPR213`` ops, ``RPR206`` ports), no load
   follows a possibly-aliasing store, and a region that is not
   unrolled is profitable;
6. spatially schedules the DFG onto the fabric (place and route only);
7. rewrites the body block into {address+loads+sends | receives |
   stores+uses}, the ordering the fabric's FIFO protocol requires.

Every infeasibility is a :class:`RegionRejected` with a reason code so
the E1/E7 experiments can report *why* regions fall back to scalar code.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.affine import Affine, AffineAnalysis
from repro.compiler.dyser_ir import (
    DyserInit,
    DyserLoad,
    DyserRecv,
    DyserSend,
    DyserStore,
)
from repro.compiler.ir import (
    Block,
    Compute,
    Const,
    Function,
    Instr,
    Load,
    Operand,
    Store,
    Value,
)
from repro.compiler.schedule import check_fits, schedule
from repro.compiler.types import Scalar
from repro.compiler.unroll import LoopInfo
from repro.dyser.config import DyserConfig
from repro.dyser.dfg import ConstRef, Dfg, NodeRef, PortRef
from repro.dyser.fabric import Fabric
from repro.dyser.ops import FuCapability, capability_of
from repro.errors import RegionRejected

#: Widest single transfer (one cache line of 8-byte words).
MAX_WIDE = 8


@dataclass
class Partition:
    """Result of offloading one region."""

    config: DyserConfig
    execute_ops: int
    input_ports: int
    output_ports: int
    vectorized: bool


def offload_body(func: Function, info: LoopInfo, fabric: Fabric,
                 config_id: int, min_ops: int = 2,
                 max_ops: int | None = None,
                 vectorize: bool = True,
                 reassociate: bool = True,
                 unrolled: bool = False) -> Partition:
    """Partition and rewrite the loop body in place."""
    body = func.blocks[info.body]
    instrs = list(body.instrs)
    defs_in_body: dict[Value, Instr] = {
        i.result: i for i in instrs if i.result is not None
    }

    # ---- 1. access closure from addresses --------------------------------
    # Roots: memory addresses, plus loop control — induction updates stay
    # on the host core (they drive addresses and the loop branch).
    access_values: set[Value] = set()
    stack = [
        i.addr for i in instrs if isinstance(i, (Load, Store))
        and isinstance(i.addr, Value)
    ]
    for phi in info.inductions:
        latch = info.carried[phi]
        if isinstance(latch, Value):
            stack.append(latch)
    while stack:
        v = stack.pop()
        if v in access_values:
            continue
        access_values.add(v)
        d = defs_in_body.get(v)
        if isinstance(d, Compute):
            stack.extend(u for u in d.uses() if isinstance(u, Value))

    # ---- 2. execute slice --------------------------------------------------
    execute = [
        i for i in instrs
        if isinstance(i, Compute) and i.result not in access_values
    ]
    if len(execute) < min_ops:
        raise RegionRejected(
            f"execute slice too small ({len(execute)} ops)")
    if max_ops is not None and len(execute) > max_ops:
        raise RegionRejected(
            f"execute slice too large ({len(execute)} ops)")
    exec_set = set(execute)
    exec_results = {i.result for i in execute}

    # Use map over the whole function (escapes via header phis matter).
    consumers: dict[Value, list[tuple[str, Instr]]] = {}
    for bname, blk in func.blocks.items():
        for instr in blk.all_instrs():
            for u in instr.uses():
                if isinstance(u, Value):
                    consumers.setdefault(u, []).append((bname, instr))
        term = blk.terminator
        if term is not None:
            for u in term.uses():
                if isinstance(u, Value):
                    consumers.setdefault(u, []).append((bname, term))

    # ---- 3. interface -------------------------------------------------------
    # Inputs: values used by the slice but produced outside it.
    send_values: list[Value] = []
    direct_loads: list[Load] = []
    for instr in execute:
        for u in instr.uses():
            if not isinstance(u, Value) or u in exec_results:
                continue
            d = defs_in_body.get(u)
            if isinstance(d, Load) and all(
                    c in exec_set for _b, c in consumers.get(u, [])):
                if d not in direct_loads:
                    direct_loads.append(d)
            elif u not in send_values:
                send_values.append(u)

    # Redundant-load elimination at the interface: loads with identical
    # affine addresses share one port and one transfer (this is what lets
    # unrolled stencils/convolutions fit the port budget — overlapping
    # taps collapse).  The function is not changed before the rewrite,
    # so one analysis serves dedup, vector grouping and the alias check.
    analysis = AffineAnalysis()
    analysis.visit_function(func)
    canonical: dict[tuple, Load] = {}
    load_alias: dict[Value, Value] = {}
    dropped_loads: set[int] = set()
    unique_loads: list[Load] = []
    for load in direct_loads:
        form = analysis.form_of(load.addr)
        key = (form.terms, form.offset, load.result.scalar)
        rep = canonical.get(key)
        if rep is None:
            canonical[key] = load
            unique_loads.append(load)
        else:
            load_alias[load.result] = rep.result
            dropped_loads.add(id(load))
    direct_loads = unique_loads

    # Outputs: slice values consumed outside the slice.
    recv_values: list[Value] = []
    direct_stores: dict[Value, Store] = {}
    for instr in execute:
        v = instr.result
        outside = [
            (b, c) for b, c in consumers.get(v, []) if c not in exec_set
        ]
        if not outside:
            continue
        # Direct store: the only consumer is a body store's data operand.
        if (len(outside) == 1 and isinstance(outside[0][1], Store)
                and outside[0][0] == info.body
                and outside[0][1].value is v):
            direct_stores[v] = outside[0][1]
        else:
            recv_values.append(v)
    if not recv_values and not direct_stores:
        raise RegionRejected("execute slice has no live outputs")

    # A send value must not itself depend on a slice output (cycle).
    recv_set = set(recv_values)
    tainted = _taint(instrs, exec_set, recv_set | set(direct_stores))
    for v in send_values:
        if v in tainted:
            raise RegionRejected("slice input depends on slice output")
    for load in direct_loads:
        if isinstance(load.addr, Value) and load.addr in tainted:
            raise RegionRejected("load address depends on slice output")
    for instr in instrs:
        if isinstance(instr, Load) and instr not in direct_loads \
                and isinstance(instr.addr, Value) \
                and instr.addr in tainted:
            raise RegionRejected("load address depends on slice output")

    # ---- 4. vector grouping -------------------------------------------------
    load_groups = (_group_transfers(
        analysis, [(ld, ld.addr) for ld in direct_loads])
        if vectorize else [[ld] for ld in direct_loads])
    store_list = list(direct_stores.values())
    store_groups = (_group_transfers(
        analysis, [(st, st.addr) for st in store_list])
        if vectorize else [[st] for st in store_list])
    vectorized = any(len(g) > 1 for g in load_groups + store_groups)

    # ---- 5. port assignment ---------------------------------------------------
    # Wide groups need consecutive port numbers (adjacent edge switches);
    # they grow from port 0.  Singleton transfers and scalar sends grow
    # downward from the top so they land on *distant* edge switches —
    # spreading injection points is what keeps big regions routable.
    num_in = fabric.geometry.num_input_ports
    in_port: dict[Value, int] = {}
    load_port: dict[int, int] = {}      # id(load instr) -> first port
    low_in = 0
    high_in = num_in - 1
    for group in load_groups:
        if len(group) > 1:
            load_port[id(group[0])] = low_in
            for k, load in enumerate(group):
                in_port[load.result] = low_in + k
            low_in += len(group)
        else:
            load_port[id(group[0])] = high_in
            in_port[group[0].result] = high_in
            high_in -= 1
    for v in send_values:
        in_port[v] = high_in
        high_in -= 1
    ports_in_use = low_in + (num_in - 1 - high_in)
    if low_in > high_in + 1:
        raise RegionRejected(
            f"needs {ports_in_use} input ports, fabric has {num_in}")

    num_out = fabric.geometry.num_output_ports
    out_port: dict[Value, int] = {}
    store_port: dict[int, int] = {}
    low_out = 0
    high_out = num_out - 1
    for group in store_groups:
        if len(group) > 1:
            store_port[id(group[0])] = low_out
            for k, store in enumerate(group):
                out_port[store.value] = low_out + k
            low_out += len(group)
        else:
            store_port[id(group[0])] = high_out
            out_port[group[0].value] = high_out
            high_out -= 1
    for v in recv_values:
        out_port[v] = high_out
        high_out -= 1
    ports_out_use = low_out + (num_out - 1 - high_out)
    if low_out > high_out + 1:
        raise RegionRejected(
            f"needs {ports_out_use} output ports, fabric has {num_out}")
    next_in, next_out = ports_in_use, ports_out_use

    # ---- 6. DFG construction -----------------------------------------------
    dfg = Dfg(f"{func.name}.r{config_id}")
    node_of: dict[Value, NodeRef] = {}
    for instr in execute:
        inputs = []
        for u in instr.uses():
            if isinstance(u, Const):
                inputs.append(ConstRef(u.value))
                continue
            u = load_alias.get(u, u)
            if u in node_of:
                inputs.append(node_of[u])
            else:
                inputs.append(PortRef(in_port[u]))
        node_of[instr.result] = dfg.add_node(instr.op, inputs)
    for v, port in out_port.items():
        dfg.set_output(port, node_of[v])

    if reassociate:
        from repro.compiler.reassoc import rebalance

        rebalance(dfg)

    # ---- 7. checks that read no placement -----------------------------------
    check_fits(dfg, fabric)
    _check_memory_order(func, instrs, analysis)
    if not unrolled:
        _check_profitable(dfg, len(execute))

    # ---- 8. spatial scheduling ---------------------------------------------
    config = schedule(config_id, dfg, fabric)

    # ---- 9. body rewrite -------------------------------------------------------
    _rewrite_body(func, info, body, instrs, exec_set, tainted,
                  direct_loads, load_groups, load_port,
                  store_list, store_groups, store_port,
                  send_values, in_port, recv_values, out_port,
                  config_id, dropped_loads)
    return Partition(
        config=config,
        execute_ops=len(execute),
        input_ports=next_in,
        output_ports=next_out,
        vectorized=vectorized,
    )


def _check_memory_order(func: Function, instrs: list[Instr],
                        analysis: AffineAnalysis) -> None:
    """Reject a load that follows a store it may alias.

    The rewrite moves every load to segment A (before all stores, which
    move to segment C).  A load that originally followed a store may
    only be hoisted when the two provably never alias.  Alias discipline
    (a documented kernel-language rule, the moral equivalent of C99
    restrict): distinct array parameters never overlap; within one
    array, affine addresses with a nonzero constant difference are
    disjoint.
    """
    array_bases = {p.value for p in func.params if p.is_array}
    pending_stores: list[Affine] = []
    for instr in instrs:
        if isinstance(instr, Store):
            pending_stores.append(analysis.form_of(instr.addr))
        elif isinstance(instr, Load):
            form = analysis.form_of(instr.addr)
            for store_form in pending_stores:
                if _may_alias(form, store_form, array_bases):
                    raise RegionRejected(
                        "load after possibly-aliasing store")


def _check_profitable(dfg: Dfg, execute_ops: int) -> None:
    """Reject a region that was not unrolled and cannot beat the host.

    A small all-integer slice that could not be unrolled runs one
    serialized invocation per iteration; the fabric round trip dwarfs the
    cost of a handful of 1-cycle host ALU ops.  FP regions always win
    (the prototype's shared FPU is an order of magnitude slower per op),
    as do larger or pipelined (unrolled) regions.
    """
    caps = {capability_of(node.op) for node in dfg.nodes.values()}
    expensive = {FuCapability.FP, FuCapability.FPDIV, FuCapability.MUL}
    if execute_ops < 8 and not (caps & expensive):
        raise RegionRejected(
            "unprofitable: small integer-only slice, one invocation "
            "per iteration")


def _may_alias(a: Affine, b: Affine, array_bases: set[Value]) -> bool:
    """Conservative alias test under the no-overlapping-arrays rule."""
    diff = a.difference(b)
    if diff is not None:
        return diff == 0
    bases_a = {v for v, _c in a.terms if v in array_bases}
    bases_b = {v for v, _c in b.terms if v in array_bases}
    if len(bases_a) == 1 and len(bases_b) == 1 and bases_a != bases_b:
        return False
    return True


def _taint(instrs: list[Instr], exec_set: set, roots: set[Value]
           ) -> set[Value]:
    """Values (computed on the access side) that depend on slice outputs."""
    tainted = set(roots)
    changed = True
    while changed:
        changed = False
        for instr in instrs:
            if instr in exec_set or instr.result is None:
                continue
            if instr.result in tainted:
                continue
            if any(isinstance(u, Value) and u in tainted
                   for u in instr.uses()):
                tainted.add(instr.result)
                changed = True
    return tainted


def _group_transfers(analysis: AffineAnalysis,
                     items: list[tuple[Instr, Operand]]
                     ) -> list[list[Instr]]:
    """Group loads/stores whose addresses are affine-consecutive (+8)."""
    keyed: list[tuple[Affine, Instr]] = []
    for instr, addr in items:
        keyed.append((analysis.form_of(addr), instr))
    # Bucket by (affine base expression, element type); sort by offset.
    buckets: dict[tuple, list[tuple[int, Instr]]] = {}
    for form, instr in keyed:
        scalar = (instr.result.scalar if isinstance(instr, Load)
                  else instr.value.scalar)
        buckets.setdefault((form.terms, scalar), []).append(
            (form.offset, instr))
    groups: list[list[Instr]] = []
    for bucket in buckets.values():
        bucket.sort(key=lambda of: of[0])
        run: list[Instr] = [bucket[0][1]]
        last_offset = bucket[0][0]
        for offset, instr in bucket[1:]:
            if offset == last_offset + 8 and len(run) < MAX_WIDE:
                run.append(instr)
            else:
                groups.append(run)
                run = [instr]
            last_offset = offset
        groups.append(run)
    return groups


def _rewrite_body(func: Function, info: LoopInfo, body: Block,
                  instrs: list[Instr], exec_set: set, tainted: set[Value],
                  direct_loads: list[Load], load_groups, load_port,
                  store_list, store_groups, store_port,
                  send_values: list[Value], in_port: dict[Value, int],
                  recv_values: list[Value], out_port: dict[Value, int],
                  config_id: int, dropped_loads: set[int]) -> None:
    direct_load_set = set(map(id, direct_loads))
    direct_store_set = set(map(id, store_list))
    group_head_load = {id(g[0]): g for g in load_groups}
    group_head_store = {id(g[0]): g for g in store_groups}
    group_member_load = {
        id(m) for g in load_groups for m in g[1:]
    }
    group_member_store = {
        id(m) for g in store_groups for m in g[1:]
    }

    send_defined_in_body = {
        v for v in send_values
        if any(i.result is v for i in instrs)
    }

    seg_a: list[Instr] = []
    seg_c: list[Instr] = []
    # External inputs (phis, invariants) are sent up front.
    for v in send_values:
        if v not in send_defined_in_body:
            seg_a.append(DyserSend(
                port=in_port[v], value=v))
    for instr in instrs:
        if instr in exec_set:
            continue
        if isinstance(instr, Load) and id(instr) in dropped_loads:
            continue  # deduplicated: the representative's transfer covers it
        if isinstance(instr, Load) and id(instr) in direct_load_set:
            if id(instr) in group_member_load:
                continue
            group = group_head_load.get(id(instr), [instr])
            fp = instr.result.scalar is Scalar.FLOAT
            seg_a.append(DyserLoad(
                port=load_port.get(id(instr), in_port[instr.result]),
                addr=instr.addr, fp=fp, count=len(group),
                wide=len(group) > 1))
            continue
        if isinstance(instr, Store) and id(instr) in direct_store_set:
            if id(instr) in group_member_store:
                continue
            group = group_head_store.get(id(instr), [instr])
            fp = group[0].value.scalar is Scalar.FLOAT
            seg_c.append(DyserStore(
                port=store_port.get(id(instr), out_port[instr.value]),
                addr=instr.addr, fp=fp, count=len(group),
                wide=len(group) > 1))
            continue
        if isinstance(instr, Store):
            seg_c.append(instr)
            continue
        # Access compute or indirect load.
        target = seg_c if (
            instr.result is not None and instr.result in tainted
        ) else seg_a
        target.append(instr)
        if instr.result is not None and instr.result in send_defined_in_body:
            target.append(DyserSend(
                port=in_port[instr.result], value=instr.result))

    seg_b = [
        DyserRecv(result=v, port=out_port[v])
        for v in sorted(recv_values, key=lambda v: out_port[v])
    ]
    body.instrs = seg_a + seg_b + seg_c

    # Configuration load goes in the preheader.
    preheader = func.blocks[info.preheader]
    preheader.instrs.append(DyserInit(config_id=config_id))
