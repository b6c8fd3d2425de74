"""Tests for the observability layer (repro.obs).

Covers: the zero-cost-when-off contract (no stream allocated, simulated
cycles unchanged), the event stream's ring buffer and category filter,
span nesting, the metrics registry's name-uniqueness rules, Chrome
trace_event export schema, and the per-invocation attribution table.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest

from repro import (
    EventStream,
    MetricsRegistry,
    ProfileReport,
    RunConfig,
    TraceOptions,
    profile_workload,
    run_workload,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.events import COMPLETE, COUNTER, CYCLES, INSTANT, WALL, maybe_span
from repro.obs.metrics import MetricError
from repro.obs.timeline import invocation_rows, invocation_table, phase_table


# ---------------------------------------------------------------------
# EventStream mechanics
# ---------------------------------------------------------------------


class TestEventStream:
    def test_complete_instant_counter(self):
        s = EventStream()
        s.complete("stall", "cpu.stall", ts=10, dur=3, pc=4)
        s.instant("redirect", "cpu.branch", ts=12)
        s.counter("occupancy", "dyser", ts=13, value=7)
        assert len(s) == 3
        phases = [e.phase for e in s]
        assert phases == [COMPLETE, INSTANT, COUNTER]
        assert s.events[0].args == {"pc": 4}
        assert s.events[2].args["value"] == 7
        assert s.events[0].domain == CYCLES

    def test_ring_buffer_drops_oldest_and_counts(self):
        s = EventStream(capacity=4)
        for i in range(10):
            s.instant(f"e{i}", "cpu", ts=i)
        assert len(s) == 4
        assert s.dropped == 6
        assert [e.name for e in s] == ["e6", "e7", "e8", "e9"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventStream(capacity=0)

    def test_category_filter_is_prefix_based(self):
        s = EventStream(categories=("cpu.stall", "dyser"))
        assert s.wants("cpu.stall")
        assert s.wants("dyser.port")
        assert not s.wants("cpu")          # parent of a filter, not child
        assert not s.wants("compiler")
        s.instant("kept", "dyser.invoke", ts=0)
        s.instant("filtered", "compiler", ts=0)
        assert [e.name for e in s] == ["kept"]

    def test_span_nesting_records_both_and_merges_extra(self):
        s = EventStream()
        with s.span("outer", "compiler", mode="dyser") as info:
            with s.span("inner", "compiler.pass") as inner:
                inner["ir_size"] = 11
            info["regions"] = 2
        # Inner span exits (and records) first.
        assert [e.name for e in s] == ["inner", "outer"]
        inner_ev, outer_ev = s.events
        assert inner_ev.args == {"ir_size": 11}
        assert outer_ev.args == {"mode": "dyser", "regions": 2}
        assert all(e.domain == WALL for e in s)
        # The inner span lies within the outer one on the wall clock.
        assert outer_ev.ts <= inner_ev.ts
        assert inner_ev.ts + inner_ev.dur <= outer_ev.ts + outer_ev.dur + 1.0

    def test_maybe_span_is_a_noop_without_a_stream(self):
        with maybe_span(None, "phase", "compiler") as extra:
            extra["anything"] = 1  # must not raise
        s = EventStream()
        with maybe_span(s, "phase", "compiler") as extra:
            extra["n"] = 3
        assert s.events[0].args == {"n": 3}

    def test_queries(self):
        s = EventStream()
        s.instant("a", "cpu.stall", ts=0)
        s.instant("b", "cpu", ts=1)
        s.instant("a", "dyser", ts=2)
        assert [e.category for e in s.by_category("cpu")] == \
            ["cpu.stall", "cpu"]
        assert len(s.named("a")) == 2


class TestTraceOptions:
    def test_default_is_off_and_allocates_nothing(self):
        opts = TraceOptions()
        assert not opts.enabled
        assert opts.stream() is None

    def test_enabled_stream_carries_capacity_and_filter(self):
        opts = TraceOptions(enabled=True, capacity=16,
                            categories=("cpu",))
        s = opts.stream()
        assert s is not None and s.capacity == 16
        assert s.wants("cpu.stall") and not s.wants("dyser")

    def test_round_trips_through_dict(self):
        opts = TraceOptions(enabled=True, capacity=99,
                            categories=("cpu", "dyser"), instructions=True)
        assert TraceOptions.from_dict(opts.to_dict()) == opts


# ---------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------


class TestMetricsRegistry:
    def test_names_are_unique_same_type_returns_existing(self):
        reg = MetricsRegistry()
        c1 = reg.counter("dyser.config.stall_cycles")
        c2 = reg.counter("dyser.config.stall_cycles")
        assert c1 is c2
        assert reg.names() == ["dyser.config.stall_cycles"]

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")
        with pytest.raises(MetricError):
            reg.histogram("x")

    def test_counter_rejects_negative_increment(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(5)
        with pytest.raises(MetricError):
            c.inc(-1)
        assert reg.value("c") == 5

    def test_histogram_le_bucket_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1, 2, 4))
        for v in (1, 2, 3, 100):
            h.observe(v)
        # counts: <=1, <=2, <=4, overflow
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4 and h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(106 / 4)

    def test_round_trips_through_dict(self):
        reg = MetricsRegistry()
        reg.counter("a", help="a counter").inc(3)
        reg.gauge("b").set(2.5)
        reg.histogram("c", buckets=(1, 2)).observe(2)
        clone = MetricsRegistry.from_dict(reg.to_dict())
        assert clone.to_dict() == reg.to_dict()
        assert clone.value("a") == 3
        assert clone.get("c").counts == reg.get("c").counts

    def test_format_is_sorted_and_total(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc(2)
        lines = reg.format().splitlines()
        assert lines[0].startswith("a") and lines[1].startswith("z")

    def test_prometheus_exposition_schema(self):
        reg = MetricsRegistry()
        reg.counter("svc.requests", help="served").inc(3)
        reg.gauge("svc.depth").set(2)
        h = reg.histogram("svc.lat", buckets=(1, 4))
        for v in (0.5, 2, 9):
            h.observe(v)
        text = reg.to_prometheus(prefix="repro")
        assert "# TYPE repro_svc_requests_total counter" in text
        assert "repro_svc_requests_total 3" in text
        assert "# TYPE repro_svc_depth gauge" in text
        # Cumulative le buckets plus +Inf == count.
        assert 'repro_svc_lat_bucket{le="1"} 1' in text
        assert 'repro_svc_lat_bucket{le="4"} 2' in text
        assert 'repro_svc_lat_bucket{le="+Inf"} 3' in text
        assert "repro_svc_lat_count 3" in text

    def test_registry_survives_pickling_with_fresh_lock(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(7)
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.value("a") == 7
        clone.counter("b").inc()          # the regrown lock works
        assert clone.names() == ["a", "b"]

    def test_concurrent_updates_never_tear_a_scrape(self):
        """Regression: scraping a registry while writer threads update
        their instruments and register new ones must neither raise
        (``dict changed size``) nor emit a histogram whose bucket sum
        disagrees with its count.

        The contract is one writer per instrument (updates are
        lock-free), any number of concurrent scrapers and registrars.
        """
        reg = MetricsRegistry()
        stop = threading.Event()
        failures: list[str] = []
        writers = 4

        def writer(tid: int) -> None:
            hot = reg.counter(f"hot.{tid}")
            hist = reg.histogram(f"lat.{tid}", buckets=(1, 2, 4, 8))
            i = 0
            while not stop.is_set():
                hot.inc()
                hist.observe(i % 10)
                reg.counter(f"dyn.{tid}.{i % 50}").inc()
                i += 1

        def scraper() -> None:
            while not stop.is_set():
                try:
                    for name, entry in reg.to_dict().items():
                        if entry["kind"] == "histogram" \
                                and sum(entry["counts"]) != entry["count"]:
                            failures.append(f"torn histogram {name}")
                            return
                    reg.to_prometheus()
                    reg.format()
                    reg.names()
                except Exception as exc:  # noqa: BLE001 - recorded
                    failures.append(f"{type(exc).__name__}: {exc}")
                    return

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(writers)]
        threads += [threading.Thread(target=scraper) for _ in range(2)]
        for thread in threads:
            thread.start()
        threading.Event().wait(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert failures == []
        # Quiesced: every per-writer histogram's tear-safe snapshot
        # matches its exact totals, and its writer's counter agrees.
        for tid in range(writers):
            hist = reg.get(f"lat.{tid}")
            entry = hist.to_dict()
            assert sum(entry["counts"]) == entry["count"] == hist.count
            assert reg.value(f"hot.{tid}") == hist.count
            assert hist.count > 0


# ---------------------------------------------------------------------
# Zero-cost-when-off: tracing must not change simulated behaviour
# ---------------------------------------------------------------------


class TestTracingIsPureObservation:
    @pytest.mark.parametrize("mode", ["scalar", "dyser"])
    def test_events_off_means_no_stream(self, mode):
        result = run_workload(RunConfig(workload="saxpy", mode=mode,
                                        scale="tiny"))
        assert result.events is None

    @pytest.mark.parametrize("mode", ["scalar", "dyser"])
    def test_traced_run_matches_untraced_cycles(self, mode):
        plain = run_workload(RunConfig(workload="saxpy", mode=mode,
                                       scale="tiny"))
        traced = run_workload(
            RunConfig(workload="saxpy", mode=mode, scale="tiny").traced())
        assert traced.events is not None and len(traced.events) > 0
        assert traced.cycles == plain.cycles
        assert traced.correct and plain.correct
        assert traced.stats.to_dict()["stall_cycles"] == \
            plain.stats.to_dict()["stall_cycles"]


# ---------------------------------------------------------------------
# Timeline export
# ---------------------------------------------------------------------


def _valid_trace_event(entry: dict) -> bool:
    if not {"name", "ph", "pid", "tid"} <= set(entry):
        return False
    if entry["ph"] == "M":
        return "name" in entry["args"]
    if "ts" not in entry or "cat" not in entry:
        return False
    if entry["ph"] == "X":
        return "dur" in entry and entry["dur"] >= 0
    if entry["ph"] == "i":
        return entry.get("s") in ("t", "p", "g")
    if entry["ph"] == "C":
        return isinstance(entry.get("args"), dict)
    return False


class TestChromeTrace:
    def test_export_schema_validates(self, tmp_path):
        traced = run_workload(RunConfig(workload="mm", scale="tiny").traced())
        path = write_chrome_trace(traced.events, tmp_path / "trace.json",
                                  metadata={"workload": "mm"})
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert all(_valid_trace_event(e) for e in doc["traceEvents"])
        assert doc["otherData"]["workload"] == "mm"
        # Both clock domains present, on distinct synthetic processes.
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2}
        # JSON is self-contained: a re-dump parses identically.
        assert json.loads(json.dumps(doc)) == doc

    def test_wall_events_rebased_to_zero(self):
        s = EventStream()
        s.complete("a", "compiler", ts=5_000_000.0, dur=10, domain=WALL)
        s.complete("b", "compiler", ts=5_000_500.0, dur=10, domain=WALL)
        doc = to_chrome_trace(s)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["ts"] for e in xs] == [0.0, 500.0]

    def test_dropped_events_reported(self):
        s = EventStream(capacity=1)
        s.instant("a", "cpu", ts=0)
        s.instant("b", "cpu", ts=1)
        doc = to_chrome_trace(s)
        assert doc["otherData"]["dropped_events"] == 1


class TestAttributionTables:
    def test_invocation_rows_bin_stalls_between_fires(self):
        s = EventStream()
        s.complete("branch", "cpu.stall", ts=4, dur=4)
        s.complete("invocation", "dyser.invoke", ts=10, dur=6,
                   config=0, index=0)
        s.complete("dyser_config", "cpu.stall", ts=12, dur=8)
        s.complete("invocation", "dyser.invoke", ts=30, dur=6,
                   config=0, index=1)
        rows = invocation_rows(s)
        assert len(rows) == 2
        assert rows[0]["stalls"] == {"branch": 4}
        assert rows[0]["gap"] == 10
        assert rows[1]["stalls"] == {"dyser_config": 8}
        assert rows[1]["gap"] == 20

    def test_invocation_table_on_real_run(self):
        traced = run_workload(
            RunConfig(workload="saxpy", scale="tiny").traced())
        text = invocation_table(traced.events)
        assert "per-invocation cycle attribution" in text
        assert "fire@" in text

    def test_invocation_table_empty_for_scalar(self):
        traced = run_workload(
            RunConfig(workload="saxpy", mode="scalar", scale="tiny").traced())
        assert "no DySER invocations" in invocation_table(traced.events)

    def test_phase_table_lists_compiler_passes(self):
        traced = run_workload(
            RunConfig(workload="saxpy", scale="tiny").traced())
        text = phase_table(traced.events)
        for phase in ("parse", "lower", "optimize", "codegen"):
            assert phase in text


# ---------------------------------------------------------------------
# profile_workload / ProfileReport
# ---------------------------------------------------------------------


class TestProfileReport:
    def test_summary_and_export(self, tmp_path):
        report = profile_workload(RunConfig(workload="saxpy", scale="tiny"))
        assert isinstance(report, ProfileReport)
        text = report.summary()
        assert "profile saxpy" in text and "OK" in text
        assert "events recorded" in text
        path = report.export(tmp_path / "out" / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["otherData"]["workload"] == "saxpy"

    def test_profile_accepts_trace_options(self):
        report = profile_workload(RunConfig(
            workload="saxpy", scale="tiny",
            trace=TraceOptions(capacity=64, categories=("cpu.stall",))))
        assert report.events.capacity == 64
        assert all(e.category == "cpu.stall" for e in report.events)

    def test_dyser_metrics_registered_uniquely(self):
        traced = run_workload(
            RunConfig(workload="saxpy", scale="tiny").traced())
        metrics = traced.stats.metrics
        names = metrics.names()
        assert len(names) == len(set(names))
        assert "dyser.config.stall_cycles" in names
