"""Spatial scheduler: place a DFG onto the fabric and route its signals.

:func:`check_fits` rejects a DFG that can never map (too many ops or
ports) without placing it.  :func:`schedule` then runs three steps,
mirroring the prototype toolchain:

1. **Placement** — greedy constructive placement in topological order
   (each node goes to the legal FU minimizing wirelength to its already-
   placed producers and its ports), followed by a deterministic
   improvement loop of relocations/swaps.  Costs are integer lookups:
   FUs and switches are indexed in ``Coord`` order, a cached
   per-geometry table (:func:`fu_input_distance`) holds the hops from
   every switch to every FU's nearest input switch, and the refiner
   keeps an inverse FU -> node map to find a swap partner.
2. **Cut check** — a sound capacity bound (:func:`_check_cuts`): for
   every horizontal and vertical line through the switch grid, the
   signals that must cross it in one direction may not outnumber the
   links crossing it that way.  A placement that fails it can never
   route, so it is rejected before any search.
3. **Routing** — PathFinder negotiated congestion over the directed
   switch graph: each signal grows a fan-out tree by Dijkstra search,
   sharing a link is priced rather than forbidden, and every round
   reroutes all signals with higher prices on the links still shared,
   until the circuit-switched exclusivity constraint holds (a switch
   output link carries exactly one signal, with free fan-out of the
   same signal).  The search runs on integers: a cached per-geometry
   adjacency table (:func:`switch_adjacency`) with usage and history in
   flat per-link lists, and each round prices every link's unshared
   cost (1 + history) once; paths become ``Coord`` lists only when
   returned.  Progress is the total overuse, the sum over shared links
   of (users - 1).  A negotiation whose overuse has not fallen below
   its best for :data:`_STALL_ROUNDS` rounds is abandoned as stalled
   (``RPR217``, ``stalled=True``) rather than run to
   :data:`_ROUTE_ROUNDS`: on the 8x8 suite no negotiation that
   succeeds stalls for more than 8 rounds, and every one that fails
   stalls for 42 or more.

When the cut check or congestion fails, the DFG is placed again with a
new seed (:data:`_PLACE_ATTEMPTS` times).  Routing draws nothing from
the placement RNG, so abandoning a stalled negotiation changes a
result only where it would have converged after stalling that long.

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
from repro.dyser.ops import FuCapability, capability_of
from repro.errors import SchedulingError

#: Improvement iterations for the placement refiner.
_REFINE_ITERS = 300
#: Negotiated-congestion routing iterations.
_ROUTE_ROUNDS = 48
#: Rounds a negotiation may run without lowering its total overuse
#: below its best before it is abandoned as stalled.
_STALL_ROUNDS = 20
#: Placement attempts (fresh seed each) before giving up on routing.
_PLACE_ATTEMPTS = 8

_INF = float("inf")


def check_fits(dfg: Dfg, fabric: Fabric) -> None:
    """The checks that read no placement: ``dfg`` is well formed, has
    no more ops than FUs (``RPR213``) and no port beyond the fabric's
    (``RPR206``).  Run before :func:`schedule`, which assumes them."""
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


def schedule(config_id: int, dfg: Dfg, fabric: Fabric,
             refine: bool = True, seed: int = 0xD75E2) -> DyserConfig:
    """Place and route ``dfg``; returns a validated config.

    Routing failures trigger re-placement with a different seed — the
    cheap version of the rip-up-and-reroute loop a production spatial
    scheduler runs.
    """
    for attempt in range(_PLACE_ATTEMPTS):
        rng = random.Random(seed + attempt * 7919)
        placement = _place(dfg, fabric, rng, refine, jitter=2 * attempt)
        try:
            # Alternate the congestion-history pressure across attempts:
            # different DFG shapes converge under different schedules.
            routes = _route(dfg, fabric, placement,
                            history_increment=1.5 + 0.75 * (attempt % 3))
            break
        except SchedulingError:
            # Re-raised in place, never kept in a local: its traceback
            # holds this frame, so a local holding the error would form
            # a cycle pinning every caller's locals (through frame
            # back-links) until the next full collection.
            if attempt == _PLACE_ATTEMPTS - 1:
                raise
    config = DyserConfig(config_id, dfg, fabric, placement=placement,
                         routes=routes)
    config.validate()
    return config


# -- placement -------------------------------------------------------------


def _place(dfg: Dfg, fabric: Fabric, rng: random.Random,
           refine: bool, jitter: int = 0) -> dict[int, Coord]:
    """Place every node; returns node id -> FU in topological order.

    Works on FU indices in ``Coord`` order (:func:`fu_input_distance`),
    so ``(cost, fu)`` ties break exactly as they do on coordinates.
    """
    geometry = fabric.geometry
    height = geometry.height
    rows = geometry.switch_rows
    near = fu_input_distance(geometry)
    fus = sorted(geometry.fus())
    # Output switch of each FU, as a coordinate and as a switch index.
    fu_out = [geometry.fu_output_switch(fu) for fu in fus]
    fu_out_index = [x * rows + y for x, y in fu_out]
    in_switches = [x * rows + y for x, y in geometry.input_port_switches()]
    out_switches = geometry.output_port_switches()

    # Per node: the switch of each input port it reads, its producers
    # (once per input that reads one), the switches of the output ports
    # it drives, and its consumers (each listed once however many of
    # their inputs read the node).
    port_starts: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    producers: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    consumers: dict[int, list[int]] = {nid: [] for nid in dfg.nodes}
    out_targets: dict[int, list[Coord]] = {nid: [] for nid in dfg.nodes}
    for port, src in dfg.outputs.items():
        if isinstance(src, NodeRef):
            out_targets[src.node].append(out_switches[port])
    for other in dfg.nodes.values():
        for src in other.inputs:
            if isinstance(src, NodeRef):
                producers[other.id].append(src.node)
            elif isinstance(src, PortRef):
                port_starts[other.id].append(in_switches[src.port])
        for nid in {s.node for s in other.inputs if isinstance(s, NodeRef)}:
            if nid != other.id:
                consumers[nid].append(other.id)

    placement: dict[int, int] = {}
    holder: list[int | None] = [None] * len(fus)

    def node_cost(nid: int, fu: int) -> int:
        to_fu = near[fu]
        cost = 0
        for start in port_starts[nid]:
            cost += to_fu[start]
        for src in producers[nid]:
            at = placement.get(src)
            if at is not None:
                cost += to_fu[fu_out_index[at]]
        source = fu_out[fu]
        for sw in out_targets[nid]:
            cost += _dist(source, sw)
        # Consumers placed already (refinement path).
        source_index = fu_out_index[fu]
        for other in consumers[nid]:
            at = placement.get(other)
            if at is not None:
                cost += near[at][source_index]
        return cost

    # Placement cost carries a scarcity penalty (3 per extra capability)
    # so cheap ops avoid parking on rare FP/divide-capable FUs.
    penalty = [3 * (len(fabric.capabilities[fu]) - 1) for fu in fus]
    # Capable FUs per capability, in ``fus_with`` order: jitter draws
    # follow the candidate order.
    capable: dict[FuCapability, list[int]] = {}
    for node in dfg.topo_order():
        cap = capability_of(node.op)
        if cap not in capable:
            capable[cap] = [fu[0] * height + fu[1]
                            for fu in fabric.fus_with(cap)]
        candidates = [fu for fu in capable[cap] if holder[fu] is None]
        if not candidates:
            raise SchedulingError(
                f"{dfg.name}: no free FU supports {node.op.value}",
                code="RPR216", dfg=dfg.name, node=node.id,
                op=node.op.value, capability=cap.value)
        best = min(
            candidates,
            key=lambda fu: (
                node_cost(node.id, fu) + penalty[fu]
                # Retry attempts explore different placements: a little
                # cost noise is what un-sticks congestion hotspots.
                + (rng.randint(0, jitter) if jitter else 0),
                fu,
            ),
        )
        placement[node.id] = best
        holder[best] = node.id

    if refine and len(dfg.nodes) > 1:
        _refine(dfg, fabric, placement, holder, rng, node_cost)
    return {nid: fus[fu] for nid, fu in placement.items()}


def _refine(dfg, fabric, placement, holder, rng, node_cost) -> None:
    """Relocate or swap random nodes while the cost does not rise.

    ``placement`` maps node -> FU index and ``holder`` FU index -> node
    (``None`` when free); both are kept in step on every accepted move.
    """
    geometry = fabric.geometry
    height = geometry.height
    node_ids = list(placement)
    caps = {nid: capability_of(dfg.nodes[nid].op) for nid in node_ids}
    # ``geometry.fus()`` order: the target draw picks the same FU.
    all_fus = [x * height + y for x, y in geometry.fus()]
    fu_caps = [fabric.capabilities[fu] for fu in sorted(geometry.fus())]
    for _ in range(_REFINE_ITERS):
        nid = rng.choice(node_ids)
        target = rng.choice(all_fus)
        if target == placement[nid] or caps[nid] not in fu_caps[target]:
            continue
        old = placement[nid]
        before = node_cost(nid, old)
        other = holder[target]
        if other is not None:
            if caps[other] not in fu_caps[old]:
                continue
            before += node_cost(other, target)
            # Tentatively swap.
            placement[nid], placement[other] = target, old
            after = node_cost(nid, target) + node_cost(other, old)
            if after > before:
                placement[nid], placement[other] = old, target
            else:
                holder[target], holder[old] = nid, other
        else:
            placement[nid] = target
            after = node_cost(nid, target)
            if after > before:
                placement[nid] = old
            else:
                holder[old], holder[target] = None, nid


def _dist(a: Coord, b: Coord) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@lru_cache(maxsize=64)
def fu_input_distance(geometry: FabricGeometry
                      ) -> tuple[tuple[int, ...], ...]:
    """Hops from each switch to each FU's nearest input switch.

    Entry ``[fu][switch]`` is ``min(_dist(switch, t))`` over the FU's
    :meth:`~repro.dyser.fabric.FabricGeometry.fu_input_switches`.  FU
    ``(x, y)`` has index ``x * height + y`` and switch ``(x, y)`` index
    ``x * switch_rows + y`` (as in :func:`switch_adjacency`): both are
    monotone in ``Coord`` order.
    """
    switches = sorted(geometry.switches())
    return tuple(
        tuple(min(_dist(sw, t) for t in geometry.fu_input_switches(fu))
              for sw in switches)
        for fu in sorted(geometry.fus()))


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
           history_increment: float = 1.5
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
    _check_cuts(dfg, geometry, jobs)
    # Link users are kept as small integers: cheap to hash and compare.
    signal_ids: dict[SourceKey, int] = {}
    for skey, _sink, _targets, _start in jobs:
        signal_ids.setdefault(skey, len(signal_ids))

    # PathFinder-style negotiated congestion routing: sharing a link is
    # allowed during search but priced; shared links accumulate history
    # cost between iterations until every link has one owner.  A
    # negotiation whose total overuse stops falling is abandoned early,
    # so ``schedule`` re-places instead of running out the rounds.
    history = [0.0] * num_links
    present_penalty = 2.0
    progress = _Progress()
    for rounds in range(1, _ROUTE_ROUNDS + 1):
        # A link's price without sharing: fixed for the whole round.
        base = [1.0 + h for h in history]
        usage: list[set[int]] = [set() for _ in range(num_links)]
        trees: dict[int, dict[int, tuple[int, int] | None]] = {}
        routes: dict[tuple[SourceKey, SinkKey], list[int]] = {}
        for skey, sink, targets, start in jobs:
            signal = signal_ids[skey]
            tree = trees.setdefault(signal, {start: None})
            target = _grow_tree_negotiated(
                adjacency, tree, targets, usage, base,
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
        if progress.stalled_out(sum(len(usage[link]) - 1 for link in shared)):
            raise SchedulingError(
                f"{dfg.name}: congestion stalled after {rounds} routing "
                f"rounds: overuse stayed at or above {progress.best} for "
                f"the last {_STALL_ROUNDS} ({len(shared)} links still "
                f"shared)",
                code="RPR217", dfg=dfg.name, rounds=rounds, stalled=True,
                shared=len(shared))
        for link in shared:
            history[link] += history_increment
        # Uncapped: late iterations effectively forbid sharing, which is
        # what finally shakes the last contested link loose.
        present_penalty *= 1.6
    raise SchedulingError(
        f"{dfg.name}: congestion did not resolve in {rounds} "
        f"routing rounds ({len(shared)} links still shared)",
        code="RPR217", dfg=dfg.name, rounds=rounds, stalled=False,
        shared=len(shared))


class _Progress:
    """Stall bookkeeping of one negotiation: ``best`` is the lowest
    total overuse (sum over shared links of users - 1) seen so far and
    ``stalled`` the rounds since it last fell."""

    def __init__(self) -> None:
        self.best = _INF
        self.stalled = 0

    def stalled_out(self, overuse: int) -> bool:
        """Record one round's overuse; true once it has not fallen
        below ``best`` for :data:`_STALL_ROUNDS` rounds."""
        if overuse < self.best:
            self.best = overuse
            self.stalled = 0
        else:
            self.stalled += 1
        return self.stalled >= _STALL_ROUNDS


def _check_cuts(dfg: Dfg, geometry: FabricGeometry,
                jobs: list[tuple[SourceKey, SinkKey, set[int], int]]
                ) -> None:
    """Raise ``RPR218`` when more signals must cross a grid line than
    links cross it.

    A signal must cross the line between switch columns (or rows) ``k``
    and ``k + 1`` eastward (southward) when its start lies at or before
    ``k`` and every target of one of its sinks lies beyond ``k``; the
    other direction mirrors this.  Each directed link carries one
    signal, and ``switch_rows`` (``switch_cols``) links cross a column
    (row) line each way, so no router can map a placement this rejects.
    """
    rows = geometry.switch_rows
    # signal -> per axis [start, ahead, behind]: some sink has every
    # target at or beyond ``ahead``, some sink every target at or
    # before ``behind``.
    spans: dict[SourceKey, list[list[int]]] = {}
    for skey, _sink, targets, start in jobs:
        coords = [divmod(t, rows) for t in targets]
        origin = divmod(start, rows)
        axes = spans.setdefault(
            skey, [[origin[a], origin[a], origin[a]] for a in (0, 1)])
        for a, span in enumerate(axes):
            span[1] = max(span[1], min(c[a] for c in coords))
            span[2] = min(span[2], max(c[a] for c in coords))
    for a, (lines, links) in enumerate(
            ((geometry.switch_cols, rows), (rows, geometry.switch_cols))):
        intervals = [axes[a] for axes in spans.values()]
        for k in range(lines - 1):
            # Signals crossing from k to k + 1, and from k + 1 to k.
            signals = max(
                sum(start <= k < ahead for start, ahead, _ in intervals),
                sum(behind <= k < start for start, _, behind in intervals))
            if signals > links:
                raise SchedulingError(
                    f"{dfg.name}: {signals} signals must cross one way "
                    f"between switch {('columns', 'rows')[a]} {k} and "
                    f"{k + 1}, over only {links} links",
                    code="RPR218", dfg=dfg.name, axis="xy"[a], line=k,
                    signals=signals, links=links)


def _grow_tree_negotiated(adjacency, tree: dict[int, tuple[int, int] | None],
                          targets: set[int], usage: list[set[int]],
                          base: list[float], present_penalty: float,
                          signal: int) -> int | None:
    """Dijkstra from the signal's current tree to any target.

    Link cost = ``base`` (1 + history) + present-sharing penalty; links
    already in this signal's tree fan out for free.  The penalty is
    added only to a link with users: ``1.0 + h + s * p`` evaluates as
    ``(1.0 + h) + s * p``, so the floats match the unsplit sum.  ``tree``
    maps each switch to its ``(parent switch, link id)``, ``None`` at the
    root.  Commits the found branch into the tree and returns the target
    switch.
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
            if users:
                nd = d + (base[link]
                          + (len(users) - (signal in users)) * present_penalty)
            else:
                nd = d + base[link]
            if nd < dist[nxt]:
                dist[nxt] = nd
                parent[nxt] = current
                via[nxt] = link
                heappush(heap, (nd, nxt))
    return None
