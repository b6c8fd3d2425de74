"""Fused block functions of the lockstep core (``repro.cpu.decode``).

A block that has run ``batchcore._HOT_BLOCK_RUNS`` times is rendered
from the same instruction templates as the per-instruction handlers,
as one function.  These tests run everything twice: with the threshold
at 0 (every block fuses on its first run) and at a value no block
reaches (nothing fuses), and require both to agree with each other
byte for byte and with the reference core:

- every suite kernel in both modes at ``tiny``, solo and in a batched
  timing-knob lane;
- generated fuzz programs (summaries and stable error strings) and the
  pinned corpus;
- an instruction limit that lands inside a hot block;
- faults raised inside a fused block;
- ``clear_caches()`` drops every fused function and compiled source.
"""

from __future__ import annotations

import json

import pytest

import repro.cpu.batchcore as batchcore
from repro.cpu import (
    BatchCore,
    Core,
    CoreConfig,
    Memory,
    decode_cache_size,
    fused_block_count,
)
from repro.cpu import decode
from repro.errors import SimulationError
from repro.harness import RunConfig, run_workload, verify_batch_parity
from repro.harness.fuzz.corpus import (
    default_corpus_dir, iter_corpus, replay_entry)
from repro.harness.fuzz.generator import CaseGenerator
from repro.harness.fuzz.oracles import run_case
from repro.harness.runner import clear_caches
from repro.isa import assemble
from repro.workloads import names as workload_names

#: Thresholds: fuse every block on its first run, or never.
ALWAYS, NEVER = 0, 10**12
#: The stock threshold.
DEFAULT = batchcore._HOT_BLOCK_RUNS


@pytest.fixture(params=[ALWAYS, NEVER], ids=["fused", "unfused"])
def hot(request, monkeypatch):
    monkeypatch.setattr(batchcore, "_HOT_BLOCK_RUNS", request.param)
    return request.param


def _payload(config: RunConfig) -> str:
    return json.dumps(run_workload(config).to_dict(), sort_keys=True)


def _both(monkeypatch, fn):
    """``fn()`` with every block fused, then with none."""
    out = []
    for threshold in (ALWAYS, NEVER):
        monkeypatch.setattr(batchcore, "_HOT_BLOCK_RUNS", threshold)
        out.append(fn())
    return out


@pytest.mark.parametrize("name", workload_names())
@pytest.mark.parametrize("mode", ["scalar", "dyser"])
def test_suite_fused_matches_unfused_and_reference(name, mode,
                                                   monkeypatch):
    config = RunConfig(workload=name, mode=mode, scale="tiny")
    fused, unfused = _both(monkeypatch, lambda: _payload(config))
    assert fused == unfused
    assert fused == _payload(config.with_(backend="reference"))


def test_batched_lanes_match_reference(hot):
    from repro.dyser import DyserTimingParams

    configs = [
        RunConfig(workload=w, mode="dyser", scale="tiny",
                  backend="batched",
                  timing=DyserTimingParams(input_fifo_depth=d,
                                           initiation_interval=ii),
                  core_config=CoreConfig(vector_port_words_per_cycle=r))
        for w in ("mm", "fir", "spmv") for d in (2, 8) for ii in (1, 2)
        for r in (1, 4)
    ]
    report = verify_batch_parity(configs)
    assert report.ok, report.summary()


def test_generated_programs_match_reference(monkeypatch):
    cases = list(CaseGenerator(seed=0).cases(300))
    fused, unfused = _both(
        monkeypatch, lambda: [run_case(c, BatchCore) for c in cases])
    assert fused == unfused
    assert fused == [run_case(c, Core) for c in cases]


def test_corpus_replays_green(hot):
    entries = iter_corpus(default_corpus_dir())
    assert entries
    for path in entries:
        assert replay_entry(path) is None, path.name


# A five-instruction loop body, run 1000 times.
_LOOP = """
    li r1, 1000
    li r2, 0
L:
    addi r2, r2, 3
    xor r3, r2, r1
    addi r1, r1, -1
    add r4, r3, r2
    bne r1, r0, L
    halt
"""


def _outcome(core_cls, program, config):
    core = (BatchCore(program, Memory(1 << 16), [None], [config])
            if core_cls is BatchCore
            else Core(program, Memory(1 << 16), config=config))
    try:
        stats = core.run()
    except SimulationError as exc:
        return ("error", str(exc))
    if core_cls is BatchCore:
        [stats] = stats
    return ("ok", stats.to_dict(), core.iregs._regs[:])


@pytest.mark.parametrize("limit", [2 + 5 * 700 + 3, 2 + 5 * 999 + 1,
                                   10000])
@pytest.mark.parametrize("threshold", [ALWAYS, DEFAULT, NEVER],
                         ids=["fused", "default", "unfused"])
def test_limit_inside_a_hot_block(threshold, limit, monkeypatch):
    monkeypatch.setattr(batchcore, "_HOT_BLOCK_RUNS", threshold)
    program = assemble(_LOOP, name="loop")
    config = CoreConfig(max_instructions=limit)
    assert _outcome(BatchCore, program, config) == \
        _outcome(Core, program, config)


def test_limit_error_message_inside_hot_block(hot):
    program = assemble(_LOOP, name="loop")
    config = CoreConfig(max_instructions=2 + 5 * 700 + 3)
    outcome = _outcome(BatchCore, program, config)
    assert outcome == ("error",
                       "instruction limit 3505 exceeded "
                       "(runaway loop in loop?)")


@pytest.mark.parametrize("source", [
    # A load walks off the end of memory inside the loop.
    "li r1, 65000\nL:\nld r2, r1, 0\naddi r1, r1, 8\nbne r1, r0, L\nhalt",
    # A misaligned load after the block is hot.
    "li r1, 4096\nli r3, 50\nL:\nld r2, r1, 0\naddi r1, r1, 8\n"
    "addi r3, r3, -1\nbne r3, r0, L\naddi r1, r1, 1\nld r2, r1, 0\nhalt",
    # A DySER op on a core without DySER.
    "li r1, 3\nL:\naddi r1, r1, -1\ndsend p0, r1\nbne r1, r0, L\nhalt",
], ids=["out-of-range", "misaligned", "no-dyser"])
def test_fault_inside_fused_block_same_error(hot, source):
    program = assemble(source, name="fault")
    config = CoreConfig(has_dyser=False)
    lane = _outcome(BatchCore, program, config)
    assert lane[0] == "error"
    assert lane == _outcome(Core, program, config)


def test_clear_caches_leaves_no_fused_code(monkeypatch):
    monkeypatch.setattr(batchcore, "_HOT_BLOCK_RUNS", ALWAYS)
    clear_caches()
    run_workload(RunConfig(workload="fir", mode="dyser", scale="tiny"))
    assert fused_block_count() > 0
    assert decode._compiled.cache_info().currsize > 0
    clear_caches()
    assert fused_block_count() == 0
    assert decode._compiled.cache_info().currsize == 0
    assert decode._handler_binder.cache_info().currsize == 0
    assert decode_cache_size() == 0


def test_cold_blocks_never_fuse(monkeypatch):
    monkeypatch.setattr(batchcore, "_HOT_BLOCK_RUNS", NEVER)
    clear_caches()
    run_workload(RunConfig(workload="fir", mode="dyser", scale="tiny"))
    assert fused_block_count() == 0


def test_hot_blocks_fuse_at_the_default_threshold():
    """The loop body of a 1000-iteration loop passes the stock
    threshold; the entry and exit blocks (one run each) do not."""
    assert 1 < DEFAULT < 1000
    clear_caches()
    program = assemble(_LOOP, name="loop")
    _outcome(BatchCore, program, CoreConfig())
    assert fused_block_count() == 1


def test_code_cache_is_bounded():
    assert decode._compiled.cache_info().maxsize == decode._CODE_CACHE_SIZE
