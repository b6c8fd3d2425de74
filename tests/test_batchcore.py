"""Tests for the batched lockstep backend (``repro.cpu.batchcore``).

Covers the three passes separately and end-to-end: lane planning
(``lane_key`` / ``plan_batches``), the lockstep core's config
validation, batched-vs-reference parity across the whole workload
suite including fault cases, divergence handling (a per-point
instruction limit evicts one point without poisoning its siblings,
with byte-identical stable error strings), a hypothesis property that
batched results are dict-identical to solo reference runs under random
per-point knobs, and the engine integration (``run_jobs`` groups
batched specs into lanes and caches per-point payloads byte-identical
to single-run payloads).
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunConfig, SweepSpec
from repro.cpu import BatchCore, CoreConfig, LaneOfOne, Memory
from repro.dyser import DyserTimingParams
from repro.engine import ArtifactCache, run_jobs
from repro.engine.jobs import JobSpec
from repro.errors import ReproError, SimulationError, stable_error_string
from repro.harness import (
    execute_batch,
    get_backend,
    lane_key,
    plan_batches,
    run_workload,
    verify_batch_parity,
)
from repro.harness.batch import execute_batch_group
from repro.obs.events import TraceOptions
from repro.workloads import SUITE


def _cfg(workload="dotprod", mode="dyser", **kw):
    kw.setdefault("scale", "tiny")
    kw.setdefault("backend", "batched")
    return RunConfig(workload=workload, mode=mode, **kw)


# ---------------------------------------------------------------------
# Pass 2: lane planning
# ---------------------------------------------------------------------


class TestPlanBatches:
    def test_timing_knobs_share_a_lane(self):
        configs = [
            _cfg(timing=DyserTimingParams(input_fifo_depth=d))
            for d in (2, 4, 8)
        ]
        groups, singles = plan_batches(configs)
        assert groups == [[0, 1, 2]]
        assert singles == []

    def test_per_point_core_fields_share_a_lane(self):
        configs = [
            _cfg(core_config=CoreConfig(vector_port_words_per_cycle=r))
            for r in (1, 2, 4)
        ]
        groups, singles = plan_batches(configs)
        assert groups == [[0, 1, 2]]

    def test_functional_knobs_split_lanes(self):
        configs = [
            _cfg(),
            _cfg(workload="saxpy"),
            _cfg(mode="scalar"),
            _cfg(seed=11),
        ]
        groups, singles = plan_batches(configs)
        assert groups == []
        assert singles == [0, 1, 2, 3]

    def test_scalar_configs_ignore_compiler_options(self):
        # A scalar build reads no compiler options.
        from repro import CompilerOptions, Fabric, FabricGeometry

        configs = [
            _cfg(workload="mm", mode="scalar"),
            _cfg(workload="mm", mode="scalar", options=CompilerOptions(
                fabric=Fabric(FabricGeometry(4, 4)))),
        ]
        assert plan_batches(configs) == ([[0, 1]], [])
        dyser = [_cfg(), _cfg(options=CompilerOptions())]
        assert plan_batches(dyser) == ([[0, 1]], [])

    def test_traced_configs_never_batch(self):
        configs = [
            _cfg(timing=DyserTimingParams(input_fifo_depth=2)),
            _cfg(timing=DyserTimingParams(input_fifo_depth=8),
                 trace=TraceOptions(enabled=True)),
            _cfg(timing=DyserTimingParams(input_fifo_depth=4)),
        ]
        groups, singles = plan_batches(configs)
        assert groups == [[0, 2]]
        assert singles == [1]

    def test_lane_of_one_is_a_single(self):
        groups, singles = plan_batches([_cfg()])
        assert groups == []
        assert singles == [0]

    def test_lane_key_ignores_per_point_fields(self):
        a = _cfg(core_config=CoreConfig(max_instructions=100))
        b = _cfg(core_config=CoreConfig(vector_port_words_per_cycle=1))
        assert lane_key(a) == lane_key(b)
        c = _cfg(core_config=CoreConfig(alu_latency=9))
        assert lane_key(a) != lane_key(c)


# ---------------------------------------------------------------------
# Pass 3: the lockstep core's config validation
# ---------------------------------------------------------------------


class TestBatchCoreValidation:
    def test_rejects_disagreeing_shared_fields(self):
        from repro.harness.runner import _compile, _default_options

        base = _cfg()
        compiled = _compile(base.workload, base.mode,
                            _default_options(base))
        with pytest.raises(SimulationError, match="alu_latency"):
            BatchCore(compiled.program, Memory(base.memory_bytes),
                      [None, None],
                      [CoreConfig(has_dyser=True),
                       CoreConfig(has_dyser=True, alu_latency=9)])

    def test_rejects_empty_lane_and_traces(self):
        program = object()
        with pytest.raises(SimulationError):
            BatchCore(program, Memory(1 << 16), [], [])
        with pytest.raises(SimulationError, match="trac"):
            LaneOfOne(program, Memory(1 << 16), trace_instructions=True)

    def test_backend_registry_entry(self):
        backend = get_backend("batched")
        assert backend.batch_cls is BatchCore
        assert not backend.supports_tracing


# ---------------------------------------------------------------------
# Parity: every workload, both modes, fault cases included
# ---------------------------------------------------------------------


class TestBatchParity:
    @pytest.mark.parametrize("workload", sorted(SUITE))
    def test_suite_parity_dyser(self, workload):
        configs = [
            _cfg(workload, timing=DyserTimingParams(input_fifo_depth=d))
            for d in (2, 8)
        ]
        report = verify_batch_parity(configs)
        assert report.ok, report.summary()

    def test_scalar_lane_parity(self):
        configs = [
            _cfg("vecadd", mode="scalar",
                 core_config=CoreConfig(has_dyser=False,
                                        max_instructions=limit))
            for limit in (200_000_000, 100_000_001)
        ]
        report = verify_batch_parity(configs)
        assert report.ok, report.summary()

    def test_fault_case_parity(self):
        # One healthy point plus one that trips its instruction limit:
        # the lane must reproduce the solo stable error string exactly.
        configs = [
            _cfg("saxpy"),
            _cfg("saxpy", core_config=CoreConfig(max_instructions=40)),
        ]
        report = verify_batch_parity(configs)
        assert report.ok, report.summary()


# ---------------------------------------------------------------------
# Divergence: eviction must not poison siblings
# ---------------------------------------------------------------------


class TestDivergence:
    def test_mid_batch_fault_is_isolated(self):
        healthy = [
            _cfg("fir", timing=DyserTimingParams(input_fifo_depth=d))
            for d in (2, 8)
        ]
        sick = _cfg("fir", core_config=CoreConfig(max_instructions=40))
        outcomes = execute_batch([healthy[0], sick, healthy[1]])

        assert outcomes[1].result is None
        assert isinstance(outcomes[1].error, ReproError)
        with pytest.raises(ReproError) as solo_exc:
            run_workload(sick.with_(backend="reference"))
        assert (stable_error_string(outcomes[1].error)
                == stable_error_string(solo_exc.value))

        for cfg, outcome in zip(healthy, (outcomes[0], outcomes[2])):
            assert outcome.batched
            solo = run_workload(cfg.with_(backend="reference"))
            assert outcome.result.to_dict() == solo.to_dict()

    def test_all_points_faulting_fall_back_solo(self):
        configs = [
            _cfg("mm", core_config=CoreConfig(max_instructions=limit))
            for limit in (30, 60)
        ]
        outcomes = execute_batch(configs)
        for cfg, outcome in zip(configs, outcomes):
            assert outcome.result is None
            with pytest.raises(ReproError) as solo_exc:
                run_workload(cfg.with_(backend="reference"))
            assert (stable_error_string(outcome.error)
                    == stable_error_string(solo_exc.value))

    def test_points_reconverge_after_eviction(self):
        # Points evicted at different depths, then survivors run to
        # HALT: each outcome must still be its exact solo result.
        configs = [
            _cfg("stencil2d",
                 core_config=CoreConfig(max_instructions=limit))
            for limit in (25, 75, 200_000_000)
        ]
        outcomes = execute_batch_group(configs)
        assert outcomes[0].result is None and outcomes[1].result is None
        assert outcomes[2].result is not None
        solo = run_workload(configs[2].with_(backend="reference"))
        assert outcomes[2].result.to_dict() == solo.to_dict()


# ---------------------------------------------------------------------
# Property: batched == reference, point by point, under random knobs
# ---------------------------------------------------------------------


class TestBatchedProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        depths=st.lists(st.sampled_from([1, 2, 4, 8]),
                        min_size=2, max_size=4),
        interval=st.sampled_from([1, 2]),
        rate=st.sampled_from([1, 2, 4]),
    )
    def test_batched_matches_fast_per_point(self, depths, interval,
                                            rate):
        configs = [
            _cfg("dotprod",
                 timing=DyserTimingParams(input_fifo_depth=d,
                                          initiation_interval=interval),
                 core_config=CoreConfig(
                     vector_port_words_per_cycle=rate))
            for d in depths
        ]
        outcomes = execute_batch_group(configs)
        for cfg, outcome in zip(configs, outcomes):
            solo = run_workload(cfg.with_(backend="reference"))
            assert outcome.result.to_dict() == solo.to_dict()


# ---------------------------------------------------------------------
# Engine integration: lanes inside run_jobs
# ---------------------------------------------------------------------


class TestEngineBatching:
    def _sweep(self):
        return SweepSpec(
            workloads=("saxpy",),
            modes=("dyser",),
            base={"scale": "tiny", "backend": "batched"},
            axes=(("input_fifo_depth", (2, 4, 8)),),
        )

    def test_run_jobs_accepts_sweepspec_and_batches(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        report = run_jobs(self._sweep(), cache=cache, jobs=1)
        assert len(report.results) == 3
        assert [r.status for r in report.records] == ["executed"] * 3
        assert all(res.stats.instructions > 0 for res in report.results)
        # The lane shared one compile; a re-run is all cache hits.
        rerun = run_jobs(self._sweep(), cache=cache, jobs=1)
        assert [r.status for r in rerun.records] == ["hit"] * 3

    def test_batched_cache_entries_match_single_run_payloads(
            self, tmp_path):
        specs = self._sweep().jobs()
        cache_a = ArtifactCache(tmp_path / "a")
        run_jobs(specs, cache=cache_a, jobs=1)
        solo_specs = [JobSpec(**{
            **{name: getattr(s, name)
               for name in s.__dataclass_fields__},
            "backend": "reference"}) for s in specs]
        cache_b = ArtifactCache(tmp_path / "b")
        run_jobs(solo_specs, cache=cache_b, jobs=1)
        # backend is hash-excluded, so the entries must collide — and
        # their payload bytes must be identical.
        for spec in specs:
            assert cache_a.load_run(spec) == cache_b.load_run(spec)
            assert cache_a.load_run(spec) is not None

    def test_failed_lane_falls_back_to_solo(self, tmp_path,
                                            monkeypatch):
        import repro.harness.batch as batch_mod

        def boom(configs, compiled=None):
            raise RuntimeError("lane detonated")

        monkeypatch.setattr(batch_mod, "execute_batch_group", boom)
        report = run_jobs(self._sweep(), cache=ArtifactCache(tmp_path),
                          jobs=1)
        assert [r.status for r in report.records] == ["executed"] * 3
        assert all(res is not None for res in report.results)

    def test_injected_worker_disables_batching(self):
        seen = []

        def spy(spec, cache=None):
            seen.append(spec.input_fifo_depth)
            from repro.engine.pool import _worker
            return _worker(spec, cache)

        report = run_jobs(self._sweep(), worker=spy, jobs=1)
        assert sorted(seen) == [2, 4, 8]
        assert [r.status for r in report.records] == ["executed"] * 3

    def test_single_pooled_lane_honours_timeout(self, tmp_path,
                                                monkeypatch):
        import repro.harness.batch as batch_mod

        marker = tmp_path / "lane.pid"

        def stall(configs, compiled=None):
            marker.write_text(str(os.getpid()))
            time.sleep(10)

        monkeypatch.setattr(batch_mod, "execute_batch_group", stall)
        t0 = time.perf_counter()
        report = run_jobs(self._sweep(), jobs=2, timeout=2.0)
        elapsed = time.perf_counter() - t0
        # The lane ran in a worker process, was cut off at the timeout
        # and its points then ran solo.
        assert int(marker.read_text()) != os.getpid()
        assert elapsed < 10
        assert [r.status for r in report.records] == ["executed"] * 3
        assert all(res is not None for res in report.results)


class TestDecodeCache:
    def test_clear_caches_drops_lockstep_decode(self):
        from repro.cpu import decode_program
        from repro.harness import clear_caches

        program = run_workload(_cfg()).compile_result.program
        decoded = decode_program(program)
        assert decode_program(program) is decoded
        clear_caches()
        assert decode_program(program) is not decoded
