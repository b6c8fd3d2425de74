"""Spatial scheduler contracts.

The router's integer adjacency table must mirror
``FabricGeometry.switch_neighbors`` exactly, with an index order that
keeps heap tie-breaks identical to coordinate order.

Golden digests pin placement and routing bit for bit: one sha256 per
suite kernel at default ``CompilerOptions`` covers every region report
(rejection reasons included) and the sorted placement and routes of
every DySER configuration; ``mm``, ``fir`` and ``conv2d`` are pinned
again on a non-square 6x4 fabric.  A scheduler change that moves a
single route, or rewords a ``SchedulingError``, changes a digest here.
Such a change needs its own E1-E12 re-check; regenerate the table with
``PYTHONPATH=src python tests/test_schedule.py`` only after that.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.compiler import CompilerOptions
from repro.compiler.schedule import switch_adjacency
from repro.dyser import Fabric, FabricGeometry
from repro.harness.runner import _compile, _options_key, source_hash
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


def compiled_digest(name: str, width: int, height: int) -> str:
    # Goes through the harness compile memo, so kernels other tests
    # already compiled at the same options are not compiled again.
    options = CompilerOptions(fabric=Fabric(FabricGeometry(width, height)))
    source = SUITE[name].source
    return schedule_digest(
        _compile(name, source_hash(source), "dyser", _options_key(options)))


def golden_cases() -> list[tuple[str, int, int]]:
    # Content-addressed ``dsl:`` kernels other tests register at run
    # time are not part of the shipped suite.
    suite = sorted(name for name in SUITE if not name.startswith("dsl:"))
    cases = [(name, 8, 8) for name in suite]
    cases += [(name, *NON_SQUARE) for name in ("mm", "fir", "conv2d")]
    return cases


def test_golden_table_covers_suite():
    assert sorted(GOLDEN_DIGESTS) == sorted(golden_cases())


@pytest.mark.parametrize("name,width,height", golden_cases())
def test_schedule_digest_is_pinned(name, width, height):
    assert compiled_digest(name, width, height) \
        == GOLDEN_DIGESTS[(name, width, height)]


if __name__ == "__main__":
    for case in golden_cases():
        print(f"    {case!r}:\n        {compiled_digest(*case)!r},")
