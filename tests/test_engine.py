"""Tests for the parallel sweep engine (repro.engine).

Covers: job-hash stability/uniqueness, cache hit-vs-miss round trips,
invalidation on code-fingerprint change, compile-artifact reuse,
failure/retry/timeout handling with injected workers, serial-vs-pooled
parity, and the warm-cache zero-work acceptance criterion.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time

import pytest

from repro.engine import (
    EXECUTED,
    FAILED,
    HIT,
    ArtifactCache,
    EngineFailure,
    JobSpec,
    SweepSpec,
    code_fingerprint,
    execute_job,
    result_from_dict,
    result_to_dict,
    run_comparisons,
    run_jobs,
)
from repro.errors import WorkloadError
from repro.harness import RunConfig, clear_caches, run_workload
from repro.obs.events import EventStream
from repro.workloads import SUITE


# ---------------------------------------------------------------------
# Injected workers (module-level so they pickle into pool processes).
# ---------------------------------------------------------------------

def _ok_worker(spec, cache=None):
    """Cheap deterministic payload without compiling anything."""
    payload = result_to_dict(run_workload(RunConfig(
        workload=spec.workload, mode=spec.mode, scale="tiny",
        seed=spec.seed)))
    return payload


def _failing_worker(spec, cache=None):
    raise RuntimeError("injected failure")


def _flaky_worker(spec, cache=None):
    """Fails the first time (per flag dir), succeeds after."""
    flag = pathlib.Path(os.environ["REPRO_TEST_FLAKY_DIR"]) / spec.workload
    if not flag.exists():
        flag.write_text("tripped")
        raise RuntimeError("first-attempt failure")
    return _ok_worker(spec, cache)


def _crashing_worker(spec, cache=None):
    """Hard worker death (no exception): exercises BrokenProcessPool."""
    flag = pathlib.Path(os.environ["REPRO_TEST_FLAKY_DIR"]) / spec.workload
    if not flag.exists():
        flag.write_text("tripped")
        os._exit(13)
    return _ok_worker(spec, cache)


def _sleepy_worker(spec, cache=None):
    import time

    time.sleep(30)
    return _ok_worker(spec, cache)  # pragma: no cover


# ---------------------------------------------------------------------
# JobSpec hashing
# ---------------------------------------------------------------------

class TestJobHash:
    def test_stable_across_instances(self):
        assert JobSpec("mm").job_hash == JobSpec("mm").job_hash
        assert JobSpec("mm", unroll=8).job_hash == JobSpec("mm").job_hash

    def test_unique_per_knob(self):
        base = JobSpec("mm")
        seen = {base.job_hash}
        for variant in (
            JobSpec("saxpy"),
            JobSpec("mm", mode="scalar"),
            JobSpec("mm", scale="tiny"),
            JobSpec("mm", seed=8),
            JobSpec("mm", geometry=(4, 4)),
            JobSpec("mm", unroll=4),
            JobSpec("mm", vectorize=False),
            JobSpec("mm", input_fifo_depth=2),
            JobSpec("mm", config_cache_capacity=0),
            JobSpec("mm", vector_port_words_per_cycle=4),
            JobSpec("mm", energy_overrides=(("fpu_nj", 2.0),)),
        ):
            assert variant.job_hash not in seen, variant.describe()
            seen.add(variant.job_hash)

    def test_type_normalization(self):
        assert (JobSpec("mm", vectorize=1).job_hash
                == JobSpec("mm", vectorize=True).job_hash)
        assert (JobSpec("mm", geometry=[8, 8]).job_hash
                == JobSpec("mm", geometry=(8, 8)).job_hash)

    def test_scalar_normalizes_dyser_knobs(self):
        # A scalar baseline maps to one cache entry across a DySER sweep.
        a = JobSpec("mm", mode="scalar", geometry=(2, 2), unroll=1)
        b = JobSpec("mm", mode="scalar", geometry=(8, 8), unroll=8)
        assert a.job_hash == b.job_hash

    def test_compile_hash_includes_source(self, monkeypatch):
        from repro.workloads import suite as suite_mod

        spec = JobSpec("mm")
        before = spec.compile_hash
        workload = suite_mod.SUITE["mm"]
        edited = type(workload)(
            name=workload.name, category=workload.category,
            description=workload.description,
            source=workload.source + "\n// edited",
            prepare=workload.prepare,
            flops_per_item=workload.flops_per_item)
        monkeypatch.setitem(suite_mod.SUITE, "mm", edited)
        assert spec.compile_hash != before

    def test_validation(self):
        with pytest.raises(WorkloadError):
            JobSpec("mm", mode="gpu")
        with pytest.raises(WorkloadError):
            JobSpec("mm", geometry=(8,))
        with pytest.raises(WorkloadError):
            SweepSpec(workloads=("mm",), axes=(("not_a_knob", (1, 2)),))


class TestSweepBuilders:
    def test_grid_expansion(self):
        specs = SweepSpec(workloads=("mm", "saxpy"), base={"scale": "tiny"},
                          axes=(("geometry", ((4, 4), (8, 8))),
                                ("unroll", (1, 8)))).jobs()
        assert len(specs) == 2 * 2 * 2
        assert {s.workload for s in specs} == {"mm", "saxpy"}
        assert all(s.scale == "tiny" for s in specs)
        assert len({s.job_hash for s in specs}) == 8

    def test_comparison_jobs_pairing(self):
        specs = SweepSpec.comparison(["mm"], scale="tiny").jobs()
        assert [s.mode for s in specs] == ["scalar", "dyser"]

    def test_suite_jobs_cover_suite(self):
        specs = SweepSpec.suite(scale="tiny").jobs()
        assert len(specs) == 2 * len(SUITE)


# ---------------------------------------------------------------------
# Cache round trips and invalidation
# ---------------------------------------------------------------------

class TestCache:
    def test_run_roundtrip_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        specs = [JobSpec("vecadd", scale="tiny")]
        cold = run_jobs(specs, cache=cache)
        assert cold.executed == 1 and cold.cache_hits == 0
        warm = run_jobs(specs, cache=cache)
        assert warm.executed == 0 and warm.cache_hits == 1
        a, b = cold.results[0], warm.results[0]
        assert a.cycles == b.cycles
        assert a.energy.total_nj == b.energy.total_nj
        assert a.stats.insn_mix == b.stats.insn_mix
        assert a.stats.stall_cycles == b.stats.stall_cycles
        assert b.correct

    def test_result_serialization_roundtrip(self):
        result = run_workload(RunConfig(workload="saxpy", scale="tiny"))
        back = result_from_dict(result_to_dict(result))
        assert back.cycles == result.cycles
        assert back.instructions == result.instructions
        assert back.energy.total_nj == result.energy.total_nj
        assert back.work_items == result.work_items
        assert ([r.reason for r in back.compile_result.regions]
                == [r.reason for r in result.compile_result.regions])

    def test_fingerprint_invalidation(self, tmp_path):
        spec = JobSpec("vecadd", scale="tiny")
        old = ArtifactCache(tmp_path, fingerprint="aa" * 32)
        run_jobs([spec], cache=old)
        assert old.load_run(spec) is not None
        new = ArtifactCache(tmp_path, fingerprint="bb" * 32)
        assert new.load_run(spec) is None  # code change == cold cache
        report = run_jobs([spec], cache=new)
        assert report.executed == 1

    def test_code_fingerprint_is_stable_hex(self):
        a, b = code_fingerprint(), code_fingerprint()
        assert a == b
        int(a, 16)
        assert len(a) == 64

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        spec = JobSpec("vecadd", scale="tiny")
        run_jobs([spec], cache=cache)
        [entry] = [p for p in cache.entries() if p.parent.name == "run"]
        entry.write_text(entry.read_text()[:40])  # simulate torn write
        report = run_jobs([spec], cache=cache)
        assert report.executed == 1 and report.cache_hits == 0

    def test_compile_artifact_reuse(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        spec = JobSpec("mm", scale="tiny")
        fresh = execute_job(spec, cache)
        clear_caches()  # drop the in-process lru compile cache
        assert cache.load_compile(spec) is not None
        cached = execute_job(spec, cache)
        assert cached.cycles == fresh.cycles
        assert cached.energy.total_nj == fresh.energy.total_nj
        assert cached.correct

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_jobs([JobSpec("vecadd", scale="tiny")], cache=cache)
        assert cache.clear() > 0
        assert cache.entries() == []


# ---------------------------------------------------------------------
# Cache maintenance: byte accounting, pruning, concurrent writers
# ---------------------------------------------------------------------

class TestCacheMaintenance:
    def test_stats_accounts_bytes_per_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_jobs([JobSpec("vecadd", scale="tiny")], cache=cache)
        stats = cache.stats()
        assert set(stats["kinds"]) == {"compile", "run"}
        for bucket in stats["kinds"].values():
            assert bucket["entries"] >= 1 and bucket["bytes"] > 0
        assert stats["entries"] == sum(
            b["entries"] for b in stats["kinds"].values())
        assert stats["bytes"] == sum(
            b["bytes"] for b in stats["kinds"].values())
        assert stats["stale_entries"] == 0
        assert str(tmp_path) in cache.describe()

    def test_stats_counts_other_fingerprints_as_stale(self, tmp_path):
        old = ArtifactCache(tmp_path, fingerprint="aa" * 32)
        old.store("run", "k1", {"x": 1})
        new = ArtifactCache(tmp_path, fingerprint="bb" * 32)
        new.store("run", "k2", {"x": 2})
        stats = new.stats()
        assert stats["entries"] == 2
        assert stats["stale_entries"] == 1 and stats["stale_bytes"] > 0
        assert stats["kinds"]["run"]["entries"] == 1
        assert "stale" in new.describe()

    def test_prune_by_age_uses_mtime(self, tmp_path):
        cache = ArtifactCache(tmp_path, fingerprint="aa" * 32)
        now = time.time()
        for key, age_days in (("old", 10), ("fresh", 1)):
            cache.store("run", key, {"k": key})
            mtime = now - age_days * 86400
            os.utime(cache._path("run", key), (mtime, mtime))
        report = cache.prune(max_age_days=7, now=now)
        assert report["removed"] == 1 and report["kept"] == 1
        assert cache.load("run", "old") is None
        assert cache.load("run", "fresh") == {"k": "fresh"}

    def test_prune_by_bytes_evicts_lru_first(self, tmp_path):
        cache = ArtifactCache(tmp_path, fingerprint="aa" * 32)
        now = time.time()
        sizes = {}
        for i in range(4):
            key = f"k{i}"
            cache.store("run", key, {"pad": "x" * 64, "i": i})
            path = cache._path("run", key)
            sizes[key] = path.stat().st_size
            # k0 least recently modified ... k3 most recent.
            os.utime(path, (now - (100 - i), now - (100 - i)))
        budget = sizes["k2"] + sizes["k3"]
        report = cache.prune(max_bytes=budget, now=now)
        assert report["removed"] == 2
        assert report["kept_bytes"] <= budget
        assert cache.load("run", "k0") is None
        assert cache.load("run", "k1") is None
        assert cache.load("run", "k3") == {"pad": "x" * 64, "i": 3}

    def test_prune_sweeps_abandoned_stage_files(self, tmp_path):
        cache = ArtifactCache(tmp_path, fingerprint="aa" * 32)
        cache.store("run", "live", {"ok": True})
        stale = cache._path("run", "live").with_name("x.json.tmp999-1-0")
        stale.write_text("{partial")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        report = cache.prune(now=time.time())
        assert report["removed"] == 1
        assert not stale.exists()
        assert cache.load("run", "live") == {"ok": True}

    def test_prune_removes_empty_directories(self, tmp_path):
        cache = ArtifactCache(tmp_path, fingerprint="aa" * 32)
        cache.store("run", "only", {"x": 1})
        kind_dir = cache._path("run", "only").parent
        report = cache.prune(max_age_days=0, now=time.time() + 86400)
        assert report["removed"] == 1 and report["kept"] == 0
        assert not kind_dir.exists()

    def test_concurrent_writers_same_key_never_corrupt(self, tmp_path):
        """Racing stores publish atomically: a reader sees either a
        complete entry or a miss, never a torn JSON file."""
        cache = ArtifactCache(tmp_path, fingerprint="aa" * 32)
        start = threading.Barrier(8)
        errors: list[str] = []

        def writer(tid: int) -> None:
            try:
                start.wait(timeout=10)
                for i in range(50):
                    cache.store("run", "hot",
                                {"tid": tid, "i": i, "pad": "y" * 128})
                    loaded = cache.load("run", "hot")
                    if loaded is not None and len(loaded["pad"]) != 128:
                        errors.append(f"torn read in thread {tid}")
            except Exception as exc:  # noqa: BLE001 - recorded
                errors.append(f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        final = cache.load("run", "hot")
        assert final is not None and final["pad"] == "y" * 128
        # No stage files left behind; exactly one published entry.
        leftovers = list(cache.root.rglob("*.tmp*"))
        assert leftovers == []
        assert len(cache.entries()) == 1
        json.loads(cache._path("run", "hot").read_text())

    def test_maintenance_tolerates_entries_vanishing(self, tmp_path):
        cache = ArtifactCache(tmp_path, fingerprint="aa" * 32)
        for i in range(3):
            cache.store("run", f"k{i}", {"i": i})
        # Simulate a racing pruner deleting one entry mid-survey.
        cache._path("run", "k1").unlink()
        stats = cache.stats()
        assert stats["entries"] == 2
        report = cache.prune(max_age_days=1000)
        assert report["kept"] == 2


# ---------------------------------------------------------------------
# Pool: failures, retries, timeout, dedup
# ---------------------------------------------------------------------

class TestPool:
    def test_serial_failure_does_not_abort(self):
        specs = [JobSpec("vecadd", scale="tiny"),
                 JobSpec("saxpy", scale="tiny")]
        report = run_jobs(specs, worker=_failing_worker, retries=1)
        assert len(report.failures) == 2
        assert all(r.attempts == 2 for r in report.records)
        assert "injected failure" in report.failures[0].error
        with pytest.raises(EngineFailure):
            report.raise_on_failure()

    def test_serial_retry_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        report = run_jobs([JobSpec("vecadd", scale="tiny")],
                          worker=_flaky_worker, retries=1)
        assert not report.failures
        assert report.records[0].status == EXECUTED
        assert report.records[0].attempts == 2
        assert report.results[0].correct

    def test_pooled_retry_after_worker_crash(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        report = run_jobs([JobSpec("vecadd", scale="tiny")],
                          jobs=2, worker=_crashing_worker, retries=2)
        assert not report.failures
        assert report.records[0].status == EXECUTED
        assert report.records[0].attempts >= 2
        assert report.results[0].cycles > 0

    def test_pooled_exception_exhausts_retries(self):
        report = run_jobs([JobSpec("vecadd", scale="tiny")],
                          jobs=2, worker=_failing_worker, retries=1)
        [record] = report.records
        assert record.status == FAILED
        assert record.attempts == 2
        assert "injected failure" in record.error

    def test_pooled_timeout(self):
        report = run_jobs([JobSpec("vecadd", scale="tiny")],
                          jobs=2, worker=_sleepy_worker,
                          timeout=0.5, retries=0)
        [record] = report.records
        assert record.status == FAILED
        assert "timed out" in record.error

    def test_lane_members_share_the_lane_wall_time(self):
        # Three timing points of one kernel run as one lockstep lane;
        # per-record wall times must add up to no more than the run's.
        specs = [JobSpec("mm", scale="tiny", backend="batched",
                         input_fifo_depth=depth) for depth in (2, 4, 8)]
        events = EventStream()
        report = run_jobs(specs, events=events)
        assert [r.status for r in report.records] == [EXECUTED] * 3
        assert [e.name for e in events.events
                if e.category == "engine.batch"] == [
            f"batch[3] {specs[0].describe()}"]
        assert sum(r.wall_s for r in report.records) <= report.wall_s

    def test_dedup_identical_specs(self, tmp_path):
        spec = JobSpec("vecadd", scale="tiny")
        report = run_jobs([spec, spec, spec], cache=ArtifactCache(tmp_path))
        assert report.executed == 1
        assert report.duplicates == 2
        assert report.results[0] is report.results[1] is report.results[2]


# ---------------------------------------------------------------------
# Serial vs pooled parity and the warm-suite acceptance criterion
# ---------------------------------------------------------------------

class TestParityAndWarmSuite:
    def test_jobs1_vs_jobsN_identical_comparisons(self):
        names = ["vecadd", "saxpy"]
        serial, _ = run_comparisons(names, scale="tiny", jobs=1)
        pooled, _ = run_comparisons(names, scale="tiny", jobs=2)
        for name in names:
            a, b = serial[name], pooled[name]
            assert a.speedup == b.speedup
            assert a.energy_ratio == b.energy_ratio
            assert a.edp_ratio == b.edp_ratio
            assert a.scalar.cycles == b.scalar.cycles
            assert a.dyser.cycles == b.dyser.cycles

    def test_warm_suite_rerun_does_zero_work(self, tmp_path):
        """Acceptance: a warm `repro suite --scale tiny` re-runs nothing."""
        cache = ArtifactCache(tmp_path)
        specs = SweepSpec.suite(scale="tiny").jobs()
        cold = run_jobs(specs, cache=cache)
        cold_primaries = len(specs) - cold.duplicates
        assert cold.executed == cold_primaries
        warm = run_jobs(specs, cache=cache)
        assert warm.executed == 0
        assert not warm.failures
        assert warm.cache_hits == len(specs) - warm.duplicates
        assert all(r.status in (HIT, "duplicate") for r in warm.records)
        for a, b in zip(cold.results, warm.results):
            assert a.cycles == b.cycles and a.correct and b.correct
