"""Tests for the redesigned run API (RunConfig) and its bridges.

Covers: RunConfig validation and derivation helpers (including the
``backend`` field), the removal of the legacy kwargs shim, the lossless
JobSpec <-> RunConfig conversion, content-hash stability (golden hashes
pin that neither the RunConfig redesign nor the backend field
invalidated warm caches), run-summary serialization round trips, and
the format_series zero-bar fix.
"""

from __future__ import annotations

import warnings

import pytest

from repro import (
    CompilerOptions,
    DyserTimingParams,
    Fabric,
    FabricGeometry,
    JobSpec,
    RunConfig,
    TraceOptions,
    WorkloadError,
    format_series,
    run_workload,
)
from repro.harness.runner import Comparison, RunResult, compare

#: Golden job hashes, captured before the RunConfig redesign.  If these
#: move, every user's warm artifact cache goes cold — treat a failure
#: here as an API break, not a test to update.
GOLDEN_HASHES = {
    ("mm", "dyser"):
        "2271a120c34146ac4994f5811385cf2d4952685436b3661ebc355595570c032e",
    ("mm", "scalar"):
        "9aef86fd98b80638c935fba8d73f5ece943ac549f9abbca9d2540322741511d9",
}


class TestRunConfig:
    def test_defaults_match_historical_kwargs_defaults(self):
        config = RunConfig(workload="mm")
        assert (config.mode, config.scale, config.seed) == \
            ("dyser", "small", 7)
        assert config.memory_bytes == 1 << 22
        assert config.options is None and config.timing is None
        assert config.trace == TraceOptions()

    def test_rejects_unknown_mode_and_empty_workload(self):
        with pytest.raises(WorkloadError):
            RunConfig(workload="mm", mode="vliw")
        with pytest.raises(WorkloadError):
            RunConfig(workload="")

    def test_with_and_traced_derivations(self):
        base = RunConfig(workload="mm", scale="tiny")
        other = base.with_(seed=11)
        assert other.seed == 11 and other.workload == "mm"
        assert base.seed == 7  # frozen: original untouched
        traced = base.traced(capacity=128)
        assert traced.trace.enabled and traced.trace.capacity == 128
        assert "[traced]" in traced.describe()
        assert "[traced]" not in base.describe()

    def test_is_hashable(self):
        a = RunConfig(workload="mm", scale="tiny")
        b = RunConfig(workload="mm", scale="tiny")
        assert a == b and hash(a) == hash(b)


class TestLegacyShimRemoved:
    """The pre-1.1 ``run_workload(name, **kwargs)`` form is gone."""

    def test_name_form_raises_type_error(self):
        with pytest.raises(TypeError, match="takes a RunConfig"):
            run_workload("saxpy")

    def test_kwargs_form_raises_type_error(self):
        with pytest.raises(TypeError):
            run_workload("saxpy", mode="dyser", scale="tiny")

    def test_run_kwargs_bridge_is_gone(self):
        spec = JobSpec(workload="saxpy", mode="scalar", scale="tiny")
        assert not hasattr(spec, "run_kwargs")

    def test_config_form_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_workload(RunConfig(workload="saxpy", scale="tiny"))

    def test_config_plus_kwargs_is_an_error(self):
        with pytest.raises(TypeError):
            run_workload(RunConfig(workload="saxpy"), scale="tiny")
        with pytest.raises(TypeError):
            run_workload()


class TestBackendField:
    def test_default_backend_is_batched(self):
        from repro import DEFAULT_BACKEND

        assert (RunConfig(workload="mm").backend == DEFAULT_BACKEND
                == "batched")
        assert JobSpec(workload="mm").backend == DEFAULT_BACKEND

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(WorkloadError, match="unknown backend"):
            RunConfig(workload="mm", backend="verilator")
        with pytest.raises(WorkloadError, match="unknown backend"):
            JobSpec(workload="mm", backend="verilator")

    def test_backend_survives_the_jobspec_bridge(self):
        spec = JobSpec(workload="mm", backend="reference")
        config = spec.to_run_config()
        assert config.backend == "reference"
        assert JobSpec.from_run_config(config) == spec

    def test_backend_does_not_enter_the_job_hash(self):
        # Both backends are cycle-exact-equal, so a cached result is
        # valid regardless of which backend computed it.
        batched = JobSpec(workload="mm", backend="batched")
        ref = JobSpec(workload="mm", backend="reference")
        assert batched.job_hash == ref.job_hash

    def test_backend_in_describe_only_when_non_default(self):
        assert "backend" not in RunConfig(workload="mm").describe()
        assert "backend=reference" in RunConfig(
            workload="mm", backend="reference").describe()


class TestJobSpecBridge:
    def test_round_trip_is_lossless(self):
        spec = JobSpec(workload="saxpy", mode="dyser", scale="tiny",
                       seed=3, geometry=(4, 4), unroll=2,
                       input_fifo_depth=8, config_cache_capacity=2)
        clone = JobSpec.from_run_config(spec.to_run_config())
        assert clone == spec
        assert clone.job_hash == spec.job_hash

    def test_round_trip_default_spec(self):
        spec = JobSpec(workload="mm")
        assert JobSpec.from_run_config(spec.to_run_config()) == spec

    def test_trace_options_do_not_enter_the_hash(self):
        spec = JobSpec(workload="mm")
        traced = spec.to_run_config(
            trace=TraceOptions(enabled=True, capacity=7))
        assert traced.trace.enabled
        assert JobSpec.from_run_config(traced).job_hash == spec.job_hash

    def test_bare_config_maps_to_default_spec(self):
        config = RunConfig(workload="mm", mode="scalar", scale="tiny")
        spec = JobSpec.from_run_config(config)
        assert spec == JobSpec(workload="mm", mode="scalar", scale="tiny")

    def test_explicit_parameter_objects_survive(self):
        config = RunConfig(
            workload="mm", scale="tiny",
            options=CompilerOptions(
                fabric=Fabric(FabricGeometry(4, 4)), unroll=4),
            timing=DyserTimingParams(input_fifo_depth=16))
        spec = JobSpec.from_run_config(config)
        assert spec.geometry == (4, 4)
        assert spec.unroll == 4
        assert spec.input_fifo_depth == 16
        back = spec.to_run_config()
        assert back.options.unroll == 4
        assert back.timing.input_fifo_depth == 16


class TestHashStability:
    @pytest.mark.parametrize("mode", ["dyser", "scalar"])
    def test_golden_job_hashes_unchanged(self, mode):
        assert JobSpec(workload="mm", mode=mode).job_hash == \
            GOLDEN_HASHES[("mm", mode)]

    def test_cached_hashes_stay_out_of_fields_and_pickles(self):
        import pickle
        from dataclasses import asdict

        spec = JobSpec(workload="mm", mode="dyser")
        fresh = asdict(spec)
        assert spec.job_hash is spec.job_hash   # computed once
        assert spec.shape_hash
        assert asdict(spec) == fresh
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.job_hash == GOLDEN_HASHES[("mm", "dyser")]
        assert clone.shape_hash == spec.shape_hash

    def test_hash_ignores_run_config_round_trip(self):
        for spec in (JobSpec(workload="mm"),
                     JobSpec(workload="saxpy", geometry=(4, 4))):
            assert JobSpec.from_run_config(
                spec.to_run_config()).job_hash == spec.job_hash


class TestRunSummarySerialization:
    def test_run_result_round_trip(self):
        result = run_workload(RunConfig(workload="saxpy", scale="tiny"))
        clone = RunResult.from_dict(result.to_dict())
        assert clone.cycles == result.cycles
        assert clone.correct == result.correct
        assert clone.energy.total_j == pytest.approx(result.energy.total_j)
        assert clone.stats.to_dict() == result.stats.to_dict()
        assert [r.loop_header for r in clone.compile_result.regions] == \
            [r.loop_header for r in result.compile_result.regions]
        assert clone.compile_result.program is None
        assert clone.events is None

    def test_run_result_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            RunResult.from_dict({"format": "something-else"})

    def test_comparison_round_trip(self):
        comp = compare("saxpy", scale="tiny")
        clone = Comparison.from_dict(comp.to_dict())
        assert clone.workload == "saxpy"
        assert clone.speedup == pytest.approx(comp.speedup)
        assert clone.energy_ratio == pytest.approx(comp.energy_ratio)

    def test_traced_results_never_serialize_the_stream(self):
        result = run_workload(
            RunConfig(workload="saxpy", scale="tiny",
                      trace=TraceOptions(enabled=True)))
        assert result.events is not None
        data = result.to_dict()
        assert "events" not in data
        assert RunResult.from_dict(data).events is None


class TestFormatSeries:
    def test_zero_renders_empty_bar(self):
        text = format_series("speedup", ["a", "b", "c"], [2.0, 0.0, 1.0])
        lines = text.splitlines()
        assert lines[1].count("#") == 24      # peak
        assert lines[2].count("#") == 0       # y == 0: no sliver
        assert lines[3].count("#") == 12
        assert not lines[2].endswith(" ")     # no trailing whitespace

    def test_nonzero_values_keep_at_least_one_mark(self):
        text = format_series("s", [1, 2], [100.0, 0.001])
        assert text.splitlines()[2].count("#") == 1
