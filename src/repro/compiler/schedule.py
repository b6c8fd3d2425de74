"""Spatial scheduler: place a DFG onto the fabric and route its signals.

Two phases, mirroring the prototype toolchain:

1. **Placement** — greedy constructive placement in topological order
   (each node goes to the legal FU minimizing wirelength to its already-
   placed producers and its ports), followed by a deterministic
   improvement loop of relocations/swaps.
2. **Routing** — PathFinder negotiated congestion over the directed
   switch graph: each signal grows a fan-out tree by Dijkstra search,
   sharing a link is priced rather than forbidden, and every round
   reroutes all signals with higher prices on the links still shared,
   until the circuit-switched exclusivity constraint holds (a switch
   output link carries exactly one signal, with free fan-out of the
   same signal).  The search runs on integers: a cached per-geometry
   adjacency table (:func:`switch_adjacency`) with usage and history in
   flat per-link lists; paths become ``Coord`` lists only when returned.

When congestion does not resolve, the DFG is placed again with a new
seed (:data:`_PLACE_ATTEMPTS` times).

Raises :class:`SchedulingError` when the DFG cannot be mapped, which the
region selector turns into a scalar fallback (exactly what the paper's
compiler does for oversized regions).
"""

from __future__ import annotations

import random
from functools import lru_cache
from heapq import heappop, heappush

from repro.dyser.config import DyserConfig, SinkKey, SourceKey, source_key
from repro.dyser.dfg import Dfg, NodeRef, PortRef
from repro.dyser.fabric import Coord, Fabric, FabricGeometry
from repro.dyser.ops import capability_of
from repro.errors import SchedulingError

#: Improvement iterations for the placement refiner.
_REFINE_ITERS = 300
#: Negotiated-congestion routing iterations.
_ROUTE_ROUNDS = 48
#: Placement attempts (fresh seed each) before giving up on routing.
_PLACE_ATTEMPTS = 8

_INF = float("inf")


def schedule(config_id: int, dfg: Dfg, fabric: Fabric,
             refine: bool = True, seed: int = 0xD75E2) -> DyserConfig:
    """Place and route ``dfg``; returns a validated config.

    Routing failures trigger re-placement with a different seed — the
    cheap version of the rip-up-and-reroute loop a production spatial
    scheduler runs.
    """
    dfg.validate()
    if len(dfg.nodes) > fabric.geometry.num_fus:
        raise SchedulingError(
            f"{dfg.name}: {len(dfg.nodes)} ops exceed "
            f"{fabric.geometry.num_fus} FUs",
            code="RPR213", dfg=dfg.name, ops=len(dfg.nodes),
            fus=fabric.geometry.num_fus)
    if dfg.input_ports and max(dfg.input_ports) >= \
            fabric.geometry.num_input_ports:
        raise SchedulingError(
            f"{dfg.name}: not enough input ports",
            code="RPR206", dfg=dfg.name, direction="in",
            port=max(dfg.input_ports),
            limit=fabric.geometry.num_input_ports)
    if dfg.output_ports and max(dfg.output_ports) >= \
            fabric.geometry.num_output_ports:
        raise SchedulingError(
            f"{dfg.name}: not enough output ports",
            code="RPR206", dfg=dfg.name, direction="out",
            port=max(dfg.output_ports),
            limit=fabric.geometry.num_output_ports)
    last_error: SchedulingError | None = None
    for attempt in range(_PLACE_ATTEMPTS):
        rng = random.Random(seed + attempt * 7919)
        placement = _place(dfg, fabric, rng, refine, jitter=2 * attempt)
        try:
            # Alternate the congestion-history pressure across attempts:
            # different DFG shapes converge under different schedules.
            routes = _route(dfg, fabric, placement, rng,
                            history_increment=1.5 + 0.75 * (attempt % 3))
        except SchedulingError as exc:
            last_error = exc
            continue
        config = DyserConfig(config_id, dfg, fabric, placement=placement,
                             routes=routes)
        config.validate()
        return config
    raise last_error if last_error is not None else SchedulingError(
        f"{dfg.name}: unroutable")


# -- placement -------------------------------------------------------------


def _place(dfg: Dfg, fabric: Fabric, rng: random.Random,
           refine: bool, jitter: int = 0) -> dict[int, Coord]:
    geometry = fabric.geometry
    in_switches = geometry.input_port_switches()
    out_switches = geometry.output_port_switches()
    out_port_of: dict[int, list[int]] = {}
    for port, src in dfg.outputs.items():
        if isinstance(src, NodeRef):
            out_port_of.setdefault(src.node, []).append(port)

    # Consumers of each node, each listed once however many of its
    # inputs read the node.
    consumers: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    for other in dfg.nodes.values():
        for nid in {s.node for s in other.inputs if isinstance(s, NodeRef)}:
            if nid != other.id:
                consumers[nid].append(other.id)

    placement: dict[int, Coord] = {}
    occupied: set[Coord] = set()

    def node_cost(nid: int, fu: Coord) -> int:
        node = dfg.nodes[nid]
        cost = 0
        targets = geometry.fu_input_switches(fu)
        for src in node.inputs:
            if isinstance(src, NodeRef) and src.node in placement:
                start = geometry.fu_output_switch(placement[src.node])
            elif isinstance(src, PortRef):
                start = in_switches[src.port]
            else:
                continue
            cost += min(_dist(start, t) for t in targets)
        source = geometry.fu_output_switch(fu)
        for port in out_port_of.get(nid, ()):
            cost += _dist(source, out_switches[port])
        # Consumers placed already (refinement path).
        for other in consumers[nid]:
            if other in placement:
                cost += min(
                    _dist(source, t)
                    for t in geometry.fu_input_switches(placement[other])
                )
        return cost

    # Placement cost carries a scarcity penalty (3 per extra capability)
    # so cheap ops avoid parking on rare FP/divide-capable FUs.
    for node in dfg.topo_order():
        candidates = [
            fu for fu in fabric.fus_with(capability_of(node.op))
            if fu not in occupied
        ]
        if not candidates:
            raise SchedulingError(
                f"{dfg.name}: no free FU supports {node.op.value}",
                code="RPR216", dfg=dfg.name, node=node.id,
                op=node.op.value,
                capability=capability_of(node.op).value)
        best = min(
            candidates,
            key=lambda fu: (
                node_cost(node.id, fu)
                + 3 * (len(fabric.capabilities[fu]) - 1)
                # Retry attempts explore different placements: a little
                # cost noise is what un-sticks congestion hotspots.
                + (rng.randint(0, jitter) if jitter else 0),
                fu,
            ),
        )
        placement[node.id] = best
        occupied.add(best)

    if refine and len(dfg.nodes) > 1:
        _refine(dfg, fabric, placement, occupied, rng, node_cost)
    return placement


def _refine(dfg, fabric, placement, occupied, rng, node_cost) -> None:
    geometry = fabric.geometry
    node_ids = list(placement)
    all_fus = geometry.fus()
    for _ in range(_REFINE_ITERS):
        nid = rng.choice(node_ids)
        cap = capability_of(dfg.nodes[nid].op)
        target = rng.choice(all_fus)
        if target == placement[nid] or not fabric.supports(target, cap):
            continue
        old = placement[nid]
        before = node_cost(nid, old)
        other = next((n for n, fu in placement.items() if fu == target),
                     None)
        if other is not None:
            if not fabric.supports(old, capability_of(dfg.nodes[other].op)):
                continue
            before += node_cost(other, target)
            # Tentatively swap.
            placement[nid], placement[other] = target, old
            after = node_cost(nid, target) + node_cost(other, old)
            if after > before:
                placement[nid], placement[other] = old, target
        else:
            placement[nid] = target
            after = node_cost(nid, target)
            if after > before:
                placement[nid] = old
            else:
                occupied.discard(old)
                occupied.add(target)


def _dist(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


# -- routing ------------------------------------------------------------------


@lru_cache(maxsize=64)
def switch_adjacency(geometry: FabricGeometry
                     ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Integer-indexed directed switch graph of ``geometry``.

    Switch ``(x, y)`` has index ``x * switch_rows + y``, which is
    monotone in ``Coord`` order, so heap ties between equal distances
    break exactly as they do on coordinates.  Entry ``i`` lists
    ``(neighbour index, link id)`` pairs in
    :meth:`~repro.dyser.fabric.FabricGeometry.switch_neighbors` order
    (E, S, W, N); link ids number the directed links densely from 0.
    """
    rows = geometry.switch_rows
    table = []
    link = 0
    for x in range(geometry.switch_cols):
        for y in range(rows):
            entry = []
            for nx, ny in geometry.switch_neighbors((x, y)):
                entry.append((nx * rows + ny, link))
                link += 1
            table.append(tuple(entry))
    return tuple(table)


def _route(dfg: Dfg, fabric: Fabric, placement: dict[int, Coord],
           rng: random.Random, history_increment: float = 1.5
           ) -> dict[tuple[SourceKey, SinkKey], list[Coord]]:
    geometry = fabric.geometry
    rows = geometry.switch_rows
    adjacency = switch_adjacency(geometry)
    num_links = sum(len(entry) for entry in adjacency)

    def index(sw: Coord) -> int:
        """A switch's row in the adjacency table."""
        return sw[0] * rows + sw[1]

    in_switches = [index(sw) for sw in geometry.input_port_switches()]
    out_switches = [index(sw) for sw in geometry.output_port_switches()]

    def output_switch(nid: int) -> int:
        return index(geometry.fu_output_switch(placement[nid]))

    # Collect (source key, sink key, target switches, start) jobs.
    jobs: list[tuple[SourceKey, SinkKey, set[int], int]] = []
    for node in dfg.nodes.values():
        targets = {index(sw) for sw in
                   geometry.fu_input_switches(placement[node.id])}
        for slot, src in enumerate(node.inputs):
            skey = source_key(src)
            if skey is None:
                continue
            start = (in_switches[skey[1]] if skey[0] == "port"
                     else output_switch(skey[1]))
            jobs.append((skey, ("node", node.id, slot), targets, start))
    for port, src in dfg.outputs.items():
        skey = source_key(src)
        if skey is None:
            raise SchedulingError(
                f"{dfg.name}: output port {port} driven by a constant",
                code="RPR214", dfg=dfg.name, port=port)
        start = (in_switches[skey[1]] if skey[0] == "port"
                 else output_switch(skey[1]))
        jobs.append((skey, ("out", port, 0), {out_switches[port]}, start))

    # Route each signal's whole fan-out tree contiguously (compact trees)
    # and route edge-port signals before internal node signals: ports
    # enter at corner/edge switches with few outgoing links.
    jobs.sort(key=lambda j: (j[0][0] != "port", j[0], j[1]))
    # Link users are kept as small integers: cheap to hash and compare.
    signal_ids: dict[SourceKey, int] = {}
    for skey, _sink, _targets, _start in jobs:
        signal_ids.setdefault(skey, len(signal_ids))

    # PathFinder-style negotiated congestion routing: sharing a link is
    # allowed during search but priced; shared links accumulate history
    # cost between iterations until every link has one owner.
    history = [0.0] * num_links
    present_penalty = 2.0
    for _iteration in range(_ROUTE_ROUNDS):
        usage: list[set[int]] = [set() for _ in range(num_links)]
        trees: dict[int, dict[int, tuple[int, int] | None]] = {}
        routes: dict[tuple[SourceKey, SinkKey], list[int]] = {}
        for skey, sink, targets, start in jobs:
            signal = signal_ids[skey]
            tree = trees.setdefault(signal, {start: None})
            target = _grow_tree_negotiated(
                adjacency, tree, targets, usage, history,
                present_penalty, signal)
            if target is None:
                raise SchedulingError(
                    f"{dfg.name}: signal {skey} -> {sink} has no path",
                    code="RPR210", dfg=dfg.name, signal=skey, sink=sink)
            # Walk the tree back from the sink, claiming every link on
            # the way; the path comes out reversed.
            path = [target]
            step = tree[target]
            while step is not None:
                switch, link = step
                path.append(switch)
                usage[link].add(signal)
                step = tree[switch]
            routes[(skey, sink)] = path
        shared = [link for link, users in enumerate(usage) if len(users) > 1]
        if not shared:
            return {key: [divmod(sw, rows) for sw in reversed(path)]
                    for key, path in routes.items()}
        for link in shared:
            history[link] += history_increment
        # Uncapped: late iterations effectively forbid sharing, which is
        # what finally shakes the last contested link loose.
        present_penalty *= 1.6
    raise SchedulingError(
        f"{dfg.name}: congestion did not resolve in {_ROUTE_ROUNDS} "
        f"routing iterations ({len(shared)} links still shared)",
        code="RPR217", dfg=dfg.name, rounds=_ROUTE_ROUNDS,
        shared=len(shared))


def _grow_tree_negotiated(adjacency, tree: dict[int, tuple[int, int] | None],
                          targets: set[int], usage: list[set[int]],
                          history: list[float], present_penalty: float,
                          signal: int) -> int | None:
    """Dijkstra from the signal's current tree to any target.

    Link cost = 1 + history + present-sharing penalty; links already in
    this signal's tree fan out for free.  ``tree`` maps each switch to
    its ``(parent switch, link id)``, ``None`` at the root.  Commits the
    found branch into the tree and returns the target switch.
    """
    already = [t for t in targets if t in tree]
    if already:
        return min(already)
    n = len(adjacency)
    dist = [_INF] * n
    parent = [0] * n
    via = [0] * n
    for sw in tree:
        dist[sw] = 0.0
    # A sorted list is already a valid heap.
    heap = [(0.0, sw) for sw in sorted(tree)]
    visited = bytearray(n)
    while heap:
        d, current = heappop(heap)
        if visited[current]:
            continue
        visited[current] = 1
        if current in targets:
            node = current
            while node not in tree:
                tree[node] = (parent[node], via[node])
                node = parent[node]
            return current
        for nxt, link in adjacency[current]:
            if visited[nxt]:
                continue
            users = usage[link]
            sharing = len(users) - (signal in users)
            cost = 1.0 + history[link] + sharing * present_penalty
            nd = d + cost
            if nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = current
                via[nxt] = link
                heappush(heap, (nd, nxt))
    return None
