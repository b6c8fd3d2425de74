"""Spatial scheduler contracts.

The router's integer adjacency table must mirror
``FabricGeometry.switch_neighbors`` exactly, with an index order that
keeps heap tie-breaks identical to coordinate order.  The placer's
distance table must equal the brute-force minimum over each FU's input
switches, and refinement must keep every placement injective and on
capable FUs.

Golden digests pin placement and routing bit for bit: one sha256 per
suite kernel at default ``CompilerOptions`` covers every region report
(rejection reasons included) and the sorted placement and routes of
every DySER configuration; ``mm``, ``fir`` and ``conv2d`` are pinned
again on a non-square 6x4 fabric.  A scheduler change that moves a
single route, or rewords a ``SchedulingError``, changes a digest here.
Such a change needs its own E1-E12 re-check; regenerate the table with
``PYTHONPATH=src python tests/test_schedule.py`` only after that.

Rejection precedence is pinned on small fabrics, where most regions
fail: one sha256 covers the region reports of every shipped suite
kernel at 2x2, 4x4 and 4x6.  Reordering the offload checks changes a
rejection reason there before it changes a schedule.

Placement is pinned beyond the suite too: one sha256 covers ``_place``
over generated DFGs on random 1x1 to 6x6 fabrics, with default and
uniform capabilities, refinement on and off, and jitter 0, 2 and 4.

A region attempt that a check reading no placement rejects (a region
rejection, too many ops or ports) must never reach the scheduler.

The fabric-cut check must be sound: a placement it rejects with
``RPR218`` must also fail the full negotiated router, all
``_ROUTE_ROUNDS`` rounds with no stall cutoff.  A stalled negotiation
stops before ``_ROUTE_ROUNDS``, and no negotiation that succeeds on
the 8x8 suite stalls for more than half of ``_STALL_ROUNDS``.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.compiler import CompilerOptions, aepdg, compile_dyser, region
from repro.compiler import schedule as sched
from repro.compiler.schedule import fu_input_distance, switch_adjacency
from repro.dyser import Fabric, FabricGeometry, uniform_capabilities
from repro.dyser.dfg import Dfg, PortRef
from repro.dyser.ops import FuOp, capability_of
from repro.errors import CompilerError, SchedulingError
from repro.harness.fuzz.generator import _gen_dfg
from repro.harness.runner import _compile
from repro.workloads import SUITE

@pytest.mark.parametrize("width,height", [(1, 1), (2, 3), (8, 8)])
def test_switch_adjacency_mirrors_switch_neighbors(width, height):
    geometry = FabricGeometry(width, height)
    table = switch_adjacency(geometry)
    rows = geometry.switch_rows
    switches = sorted(geometry.switches())
    assert len(table) == len(switches)
    # Index order is Coord order: heap ties break as on coordinates.
    indices = [x * rows + y for x, y in switches]
    assert indices == list(range(len(switches)))
    links = []
    for (x, y), entry in zip(switches, table):
        # Same neighbours in the same E, S, W, N order.
        assert [divmod(nxt, rows) for nxt, _ in entry] \
            == geometry.switch_neighbors((x, y))
        links += [link for _, link in entry]
    # Link ids are dense and unique.
    assert sorted(links) == list(range(len(links)))
    assert switch_adjacency(FabricGeometry(width, height)) is table


@pytest.mark.parametrize("width,height", [(1, 1), (2, 3), (6, 4), (8, 8)])
def test_fu_input_distance_matches_brute_force(width, height):
    geometry = FabricGeometry(width, height)
    table = fu_input_distance(geometry)
    rows = geometry.switch_rows
    fus = sorted(geometry.fus())
    # FU index order is Coord order, as the switch index order is.
    assert [x * height + y for x, y in fus] == list(range(len(fus)))
    assert len(table) == len(fus)
    for fu, entry in zip(fus, table):
        assert len(entry) == geometry.num_switches
        for sw in geometry.switches():
            assert entry[sw[0] * rows + sw[1]] == min(
                sched._dist(sw, t) for t in geometry.fu_input_switches(fu))
    assert fu_input_distance(FabricGeometry(width, height)) is table


def test_refinement_keeps_placements_legal():
    # Uniform fabrics make every target legal for every node, so most
    # refinement steps that move a node are swaps.
    rng = random.Random(316)
    for case in range(150):
        geometry = FabricGeometry(rng.randint(2, 5), rng.randint(2, 5))
        uniform = case % 3 != 0
        fabric = Fabric(geometry, uniform_capabilities(geometry)
                        if uniform else None)
        n_nodes = rng.randint(geometry.num_fus // 2, geometry.num_fus)
        n_in = rng.randint(
            1, min(n_nodes, 2 * (geometry.width + geometry.height)))
        dfg = _gen_dfg(rng, f"legal{case}", rng.choice(["int", "fp"]),
                       n_in, n_nodes)
        try:
            placement = sched._place(dfg, fabric, random.Random(case),
                                     refine=True, jitter=case % 5)
        except SchedulingError:
            assert not uniform, case
            continue
        assert list(placement) == [n.id for n in dfg.topo_order()], case
        assert len(set(placement.values())) == len(placement), case
        for nid, fu in placement.items():
            assert fabric.supports(fu, capability_of(dfg.nodes[nid].op)), \
                (case, nid, fu)


def _route_code(dfg: Dfg, fabric: Fabric, placement) -> str | None:
    """The code ``_route`` fails with, ``None`` when it routes."""
    try:
        sched._route(dfg, fabric, placement)
    except SchedulingError as exc:
        return exc.code
    return None


def test_cut_check_rejects_only_unroutable_placements(monkeypatch):
    rng = random.Random(218)
    fired = routed = 0
    for case in range(2000):
        width, height = rng.randint(1, 4), rng.randint(1, 4)
        fabric = Fabric(FabricGeometry(width, height))
        n_nodes = rng.randint(1, width * height)
        n_in = rng.randint(1, min(n_nodes, 2 * (width + height)))
        dfg = _gen_dfg(rng, f"cut{case}", rng.choice(["int", "fp"]),
                       n_in, n_nodes)
        try:
            placement = sched._place(dfg, fabric, random.Random(case),
                                     refine=True)
        except SchedulingError:
            continue  # no free FU for some op: nothing to route
        code = _route_code(dfg, fabric, placement)
        routed += code is None
        if code != "RPR218":
            continue
        fired += 1
        # The full negotiated router on the same placement fails too:
        # without the cut check, and with no stall cutoff before all
        # ``_ROUTE_ROUNDS`` rounds.
        with monkeypatch.context() as patch:
            patch.setattr(sched, "_check_cuts", lambda *args: None)
            patch.setattr(sched, "_STALL_ROUNDS", sched._ROUTE_ROUNDS)
            assert _route_code(dfg, fabric, placement) == "RPR217", case
    assert fired >= 5 and routed >= 1500


def overcut() -> tuple[Dfg, Fabric]:
    """A DFG that no router can map on its 3x1 fabric.

    Two links cross each column line each way.  Input ports 0, 4 and 5
    enter at switch column 0 and output ports 3, 4 and 8 leave at
    switch column 3: three signals must cross.
    """
    dfg = Dfg("overcut")
    dfg.set_output(0, dfg.add_node(FuOp.ADD, [PortRef(1), PortRef(2)]))
    for out, port in ((3, 0), (4, 4), (8, 5)):
        dfg.set_output(out, PortRef(port))
    return dfg, Fabric(FabricGeometry(3, 1))


def test_overcut_dfg_fails_before_any_search(monkeypatch):
    dfg, fabric = overcut()

    def no_search(*args):
        raise AssertionError("negotiated routing entered")

    with monkeypatch.context() as patch:
        patch.setattr(sched, "_grow_tree_negotiated", no_search)
        with pytest.raises(SchedulingError) as info:
            sched.schedule(0, dfg, fabric)
    assert info.value.code == "RPR218"
    assert info.value.context == {"dfg": "overcut", "axis": "x", "line": 0,
                                  "signals": 3, "links": 2}
    # Without the check the full router, all ``_ROUTE_ROUNDS`` rounds
    # with no stall cutoff, fails on it as well.
    monkeypatch.setattr(sched, "_check_cuts", lambda *args: None)
    monkeypatch.setattr(sched, "_STALL_ROUNDS", sched._ROUTE_ROUNDS)
    with pytest.raises(SchedulingError) as info:
        sched.schedule(0, dfg, fabric)
    assert info.value.code == "RPR217"
    assert info.value.context["rounds"] == sched._ROUTE_ROUNDS
    assert info.value.context["stalled"] is False


def test_stalled_negotiation_stops_early(monkeypatch):
    dfg, fabric = overcut()
    monkeypatch.setattr(sched, "_check_cuts", lambda *args: None)
    placement = sched._place(dfg, fabric, random.Random(0), refine=True)
    with pytest.raises(SchedulingError) as info:
        sched._route(dfg, fabric, placement)
    assert info.value.code == "RPR217"
    context = info.value.context
    assert sched._STALL_ROUNDS < context["rounds"] < sched._ROUTE_ROUNDS
    assert context["stalled"] is True
    assert f"stalled after {context['rounds']} routing rounds" \
        in str(info.value)


def test_successful_negotiations_stay_far_from_the_stall_cutoff(
        monkeypatch):
    # A router change that lets a routable placement stall for longer
    # fails here before the cutoff starts abandoning such placements
    # and moving routes.  The longest such stall at 8x8 is 8 rounds.
    made: list = []
    succeeded: list = []
    real_route = sched._route

    class Observed(sched._Progress):
        """Keeps every negotiation's longest stall."""

        def __init__(self) -> None:
            super().__init__()
            self.longest = 0
            made.append(self)

        def stalled_out(self, overuse: int) -> bool:
            out = super().stalled_out(overuse)
            self.longest = max(self.longest, self.stalled)
            return out

    def route(*args, **kwargs):
        first = len(made)
        routes = real_route(*args, **kwargs)
        succeeded.extend(made[first:])
        return routes

    monkeypatch.setattr(sched, "_Progress", Observed)
    monkeypatch.setattr(sched, "_route", route)
    for kernel in shipped_suite():
        compile_dyser(SUITE[kernel].source, CompilerOptions())
    assert len(succeeded) >= 10
    assert any(p.stalled >= sched._STALL_ROUNDS for p in made)
    assert max(p.longest for p in succeeded) <= sched._STALL_ROUNDS // 2

#: (workload, fabric width, fabric height) -> schedule digest.
GOLDEN_DIGESTS: dict[tuple[str, int, int], str] = {
    ('collatz_diamonds', 8, 8):
        'c48c98f8c9503faf90503f18859cfc0c37977ee1a82690b830083e24ccbc8166',
    ('conv2d', 8, 8):
        '9b80969d7f271d460746f3895f1aba69bbb343d0fc27f704f34ddf98e982b750',
    ('dag_reduce_dsl', 8, 8):
        'b4a2608f34d6007f63be2b56e15d96022c12adaab0554c823989803ddcacbe1e',
    ('dotprod', 8, 8):
        'b76d947544c3e9b08500ee04b0ba5e7ca92176ae6c48bd0085a8cadac8b94822',
    ('fft_stage', 8, 8):
        'b3ebcb12d739c75d715e429d4982c7cdb7b5248a0f662d5520a1efb7b753997b',
    ('fir', 8, 8):
        'e227033f3059a23563ed733a6944e5ecb6fd2b4bf6c5ba5758e1134d92bf6aac',
    ('hist_branchy_dsl', 8, 8):
        '5d20360b7cbcf514496730c73fab0db85c223da14c746f9fdf291b28d2a850ff',
    ('hist_weighted', 8, 8):
        '17d6f01a07267821f42f4715ea6b2357d336bcba9ec2062b174a8e4a99d87034',
    ('kmeans', 8, 8):
        'aa8490d872fc37de112e67bfdf04aad4a6cb02b71220b94f370c17d58e2a122f',
    ('mm', 8, 8):
        '19d76c77583f674996341cc013d7d74ff05ed4ebc5129a41afc7ae71f6e3e47a',
    ('mriq', 8, 8):
        '2dd269a89e27b4722437ac0415297cec5b11ba3b9bb8f62f044d83f9ff0ca9ed',
    ('nbody', 8, 8):
        'bf36640cb3bc389aa74f7c64cdbc8af0ac9912d073090afa8e1e284ef593a994',
    ('needle', 8, 8):
        '6cf4f5be0ea5a575dfec3b2a78a1ef56cd83c9471640fa142411e30cee156efb',
    ('newton_lcd', 8, 8):
        '638e9e8a8f42e439a0c84fa693717befb9be9f983a9811553407079d92b14ac1',
    ('ptr_chase_dsl', 8, 8):
        'a513817271ff26ea3d275dedbc82e93d291541b3fb0995b235acc87df628546b',
    ('sad', 8, 8):
        '66aab35f0ea3e5511545548437a0e1a5a050c36eaaa8918cc17f3e50628d3701',
    ('saxpy', 8, 8):
        '4e914f9f4898e50e910e6a66245cd92edb3aa0e97c4702d1cdccf4ba21c2ba8e',
    ('spmv', 8, 8):
        '8c54d22d1688fba8a909561a8eae5d75a752d435cbe087478a91b93ea04a9db5',
    ('spmv_csr_dsl', 8, 8):
        '8c54d22d1688fba8a909561a8eae5d75a752d435cbe087478a91b93ea04a9db5',
    ('stencil2d', 8, 8):
        'd0418787bf88f2504fc5405d7f441ac9cfe82641a29a95131327fc282c3810bb',
    ('tpacf_bin', 8, 8):
        'bce0da3f9bb6499650ab31a05466e62c8525bdcc4361d4c47f10645a8e502376',
    ('vecadd', 8, 8):
        '81690151f342eddf4eb449089478de5bfde66121d17c21e262889439cda9ccd9',
    ('mm', 6, 4):
        '7b5401464f55f49c99d9289160e7480e72a56114e078ea9635082fc5fb364b88',
    ('fir', 6, 4):
        'a4c1817bf8eed1bf51124937c307b6590c87dc7136c704fd1740eb0a24f05116',
    ('conv2d', 6, 4):
        '6805a7f0a8c150063c0e9e78b8913e2771c49fa3e1ece8b0267a791f83e8d65b',
}

NON_SQUARE = (6, 4)

#: :func:`region_digest` over :data:`REGION_FABRICS`.
GOLDEN_REGION_DIGEST = \
    "6590d48770aa7ba1902d3b035e9efbf8ad848b4287b9bd602e68885c5390f4ff"

#: Fabrics small enough that most regions are rejected.
REGION_FABRICS = ((2, 2), (4, 4), (4, 6))

#: ``_place`` over :func:`generated_placements`' DFGs, as one sha256.
GENERATED_PLACEMENT_DIGEST = \
    "0c98abab3bfd215aa19e9a2e59fa3c9d9f2dbb30ac7953c1ad30a4a353f79f72"


def schedule_digest(result) -> str:
    """sha256 over a compile's region reports, placements and routes."""
    doc = {
        "regions": [report.to_dict() for report in result.regions],
        "configs": [
            {"id": cid,
             "placement": sorted(config.placement.items()),
             "routes": sorted(config.routes.items())}
            for cid, config in sorted(result.program.dyser_configs.items())
        ],
    }
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def compiled(name: str, width: int, height: int):
    # Goes through the harness compile memo, so kernels other tests
    # already compiled at the same options are not compiled again.
    options = CompilerOptions(fabric=Fabric(FabricGeometry(width, height)))
    return _compile(name, "dyser", options)


def compiled_digest(name: str, width: int, height: int) -> str:
    return schedule_digest(compiled(name, width, height))


def shipped_suite() -> list[str]:
    # Content-addressed ``dsl:`` kernels other tests register at run
    # time are not part of the shipped suite.
    return sorted(name for name in SUITE if not name.startswith("dsl:"))


def region_digest() -> str:
    """sha256 over the region reports of every shipped suite kernel on
    each of :data:`REGION_FABRICS`."""
    doc = [
        [name, width, height,
         [r.to_dict() for r in compiled(name, width, height).regions]]
        for width, height in REGION_FABRICS
        for name in shipped_suite()
    ]
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def golden_cases() -> list[tuple[str, int, int]]:
    cases = [(name, 8, 8) for name in shipped_suite()]
    cases += [(name, *NON_SQUARE) for name in ("mm", "fir", "conv2d")]
    return cases


def test_golden_table_covers_suite():
    assert sorted(GOLDEN_DIGESTS) == sorted(golden_cases())


@pytest.mark.parametrize("name,width,height", golden_cases())
def test_schedule_digest_is_pinned(name, width, height):
    assert compiled_digest(name, width, height) \
        == GOLDEN_DIGESTS[(name, width, height)]


def test_region_reports_are_pinned():
    assert region_digest() == GOLDEN_REGION_DIGEST


#: Codes of the rejections that read no placement: every region
#: rejection (``RPR304``: aliasing, profitability, slice shape, ports
#: of the interface), and ops (``RPR213``) or ports (``RPR206``) beyond
#: the fabric.  ``offload_body`` runs them all before ``schedule``.
PLACEMENT_FREE_CODES = frozenset({"RPR304", "RPR213", "RPR206"})


def test_placement_free_rejections_never_schedule(monkeypatch):
    calls = 0
    kernel = ""
    log: list[tuple[str, int, str, int]] = []
    real_schedule, real_attempt = aepdg.schedule, region._attempt

    def counting_schedule(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real_schedule(*args, **kwargs)

    def logged_attempt(work, header, options, config_id, factor):
        before = calls
        outcome = "offloaded"
        try:
            return real_attempt(work, header, options, config_id, factor)
        except CompilerError as exc:
            outcome = f"{exc.code}: {exc}"
            raise
        finally:
            log.append((kernel, factor, outcome, calls - before))

    monkeypatch.setattr(aepdg, "schedule", counting_schedule)
    monkeypatch.setattr(region, "_attempt", logged_attempt)
    for kernel in shipped_suite():
        compile_dyser(SUITE[kernel].source, CompilerOptions())
    placement_free = [
        entry for entry in log
        if entry[2].split(":")[0] in PLACEMENT_FREE_CODES]
    assert [entry for entry in placement_free if entry[3]] == []
    reasons = " | ".join(entry[2] for entry in placement_free)
    for reason in ("load after possibly-aliasing store", "unprofitable: ",
                   "RPR213: "):
        assert reason in reasons
    # Rungs 8, 4 and 2 fail the alias check; rung 1 alone is scheduled.
    assert [entry[1:] for entry in log if entry[0] == "hist_weighted"] == [
        (8, "RPR304: region rejected: load after possibly-aliasing store",
         0),
        (4, "RPR304: region rejected: load after possibly-aliasing store",
         0),
        (2, "RPR304: region rejected: load after possibly-aliasing store",
         0),
        (1, "offloaded", 1),
    ]
    assert sum(entry[3] for entry in log) <= 23


def generated_placements(cases: int = 300) -> str:
    """sha256 over ``_place`` on ``cases`` generated DFGs.

    Each case draws its geometry, capability profile, ``refine`` and
    ``jitter``; a placement is recorded in insertion order, a failure
    by its code.
    """
    rng = random.Random(20)
    doc = []
    for case in range(cases):
        geometry = FabricGeometry(rng.randint(1, 6), rng.randint(1, 6))
        uniform = rng.random() < 0.5
        fabric = Fabric(geometry, uniform_capabilities(geometry)
                        if uniform else None)
        refine = rng.random() < 0.5
        jitter = rng.choice((0, 2, 4))
        n_nodes = rng.randint(1, geometry.num_fus)
        n_in = rng.randint(
            1, min(n_nodes, 2 * (geometry.width + geometry.height)))
        dfg = _gen_dfg(rng, f"gen{case}", rng.choice(["int", "fp"]),
                       n_in, n_nodes)
        try:
            placement = sched._place(dfg, fabric, random.Random(case),
                                     refine, jitter=jitter)
        except SchedulingError as exc:
            doc.append(exc.code)
            continue
        doc.append(list(placement.items()))
    blob = json.dumps(doc).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def test_generated_placements_are_pinned():
    assert generated_placements() == GENERATED_PLACEMENT_DIGEST


if __name__ == "__main__":
    for case in golden_cases():
        print(f"    {case!r}:\n        {compiled_digest(*case)!r},")
    print(f"GOLDEN_REGION_DIGEST = {region_digest()!r}")
    print(f"GENERATED_PLACEMENT_DIGEST = {generated_placements()!r}")
