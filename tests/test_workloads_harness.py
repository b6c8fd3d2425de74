"""Tests for the workload suite and the experiment harness.

The execution-equivalence test here is the suite's backbone: every
workload runs scalar AND DySER at tiny scale and must pass its numpy
reference check in both modes.
"""

import gc
import weakref

import pytest

from repro.cpu import Memory
from repro.errors import WorkloadError
from repro.harness import (
    RunConfig,
    compare,
    format_series,
    format_table,
    geomean,
    run_workload,
    runner,
)
from repro.workloads import (
    CATEGORIES,
    IRREGULAR_COMPUTE,
    IRREGULAR_CONTROL,
    REGULAR,
    SUITE,
    get,
    names,
)

ALL_NAMES = sorted(SUITE)


class TestSuiteStructure:
    def test_suite_has_expected_breadth(self):
        assert len(SUITE) >= 14
        for category in CATEGORIES:
            assert len(names(category)) >= 3, category

    def test_every_workload_compiles_scalar(self):
        from repro.compiler import compile_scalar

        for name in ALL_NAMES:
            program = compile_scalar(get(name).source).program
            program.validate()

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            get("not_a_kernel")

    def test_unknown_category_rejected(self):
        with pytest.raises(WorkloadError, match="unknown category"):
            names("bogus")

    def test_unknown_scale_rejected(self):
        workload = get("vecadd")
        with pytest.raises(WorkloadError, match="unknown scale"):
            workload.prepare(Memory(1 << 20), "galactic", 1)

    def test_prepare_is_seed_deterministic(self):
        workload = get("dotprod")
        m1, m2 = Memory(1 << 20), Memory(1 << 20)
        i1 = workload.prepare(m1, "tiny", 5)
        i2 = workload.prepare(m2, "tiny", 5)
        assert i1.int_args == i2.int_args
        a = m1.load_block(i1.int_args[1], 8)
        b = m2.load_block(i2.int_args[1], 8)
        assert a == b


class TestExecutionAcrossSuite:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_scalar_matches_reference(self, name):
        result = run_workload(RunConfig(workload=name, mode="scalar",
                                        scale="tiny"))
        assert result.correct, f"{name} scalar output wrong"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_dyser_matches_reference(self, name):
        result = run_workload(RunConfig(workload=name, mode="dyser",
                                        scale="tiny"))
        assert result.correct, f"{name} DySER output wrong"

    def test_regular_kernels_speed_up(self):
        for name in names(REGULAR):
            c = compare(name, scale="tiny")
            assert c.speedup > 1.0, f"{name}: {c.speedup}"

    def test_curtailing_shapes_gain_little(self):
        """Paper finding ii: the two control-flow shapes curtail the
        compiler — speedups stay far below the regular kernels'."""
        curtailing = ("newton_lcd", "tpacf_bin")
        for name in curtailing:
            c = compare(name, scale="tiny")
            assert c.speedup < 2.0, f"{name}: {c.speedup}"

    def test_seed_changes_inputs_not_correctness(self):
        for seed in (1, 2, 3):
            result = run_workload(RunConfig(workload="kmeans",
                                            mode="dyser", scale="tiny",
                                            seed=seed))
            assert result.correct


class TestHarness:
    def test_comparison_metrics(self):
        c = compare("saxpy", scale="tiny")
        assert c.speedup == c.scalar.cycles / c.dyser.cycles
        assert c.energy_ratio > 0
        assert c.edp_ratio > c.energy_ratio / 2

    def test_run_result_throughput(self):
        r = run_workload(RunConfig(workload="vecadd", mode="dyser",
                                   scale="tiny"))
        assert r.work_items == 32
        assert r.cycles_per_item == r.cycles / 32

    def test_bad_mode_rejected(self):
        # The mode is validated at RunConfig construction now.
        with pytest.raises(WorkloadError, match="unknown mode"):
            RunConfig(workload="vecadd", mode="quantum")

    def test_finished_run_frees_its_memory(self, monkeypatch):
        # Reference counting alone must free a run's memory image: a
        # reference cycle through a frame that ``execute`` called would
        # keep its locals alive until the next full collection.
        images = []

        class TrackedMemory(Memory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                images.append(weakref.ref(self))

        monkeypatch.setattr(runner, "Memory", TrackedMemory)
        gc.collect()
        gc.disable()
        try:
            for name in ALL_NAMES:
                if name.startswith("dsl:"):
                    continue  # registered at run time by other tests
                for mode in ("scalar", "dyser"):
                    runner.clear_caches()  # compile cold, as a first run
                    run_workload(RunConfig(workload=name, mode=mode,
                                           scale="tiny"))
                    assert images[-1]() is None, (name, mode)
        finally:
            gc.enable()

    def test_compile_memo_keys_every_compiler_option(self):
        # A build memoized without reassociation must not be served to
        # a run that asks for it, or the other way round.
        from repro.compiler import CompilerOptions, compile_dyser
        from repro.dyser.serialize import config_to_dict

        def configs(compiled):
            return [config_to_dict(c) for _, c in
                    sorted(compiled.program.dyser_configs.items())]

        runner.clear_caches()
        built = {}
        for reassociate in (True, False):
            options = CompilerOptions(reassociate=reassociate)
            result = run_workload(RunConfig(
                workload="dotprod", mode="dyser", scale="tiny",
                options=options))
            fresh = compile_dyser(get("dotprod").source, options)
            assert configs(result.compile_result) == configs(fresh)
            built[reassociate] = configs(fresh)
        assert built[True] != built[False]

    def test_options_key_covers_every_field_but_verify_passes(self):
        from dataclasses import fields, replace

        from repro.compiler import CompilerOptions
        from repro.dyser import Fabric, FabricGeometry
        from repro.dyser.fabric import uniform_capabilities

        default = CompilerOptions()
        base = runner.options_key(default)
        changed = {
            "fabric": Fabric(FabricGeometry(8, 8, ports_per_edge_switch=3)),
            "min_region_ops": 3, "unroll": 4, "vectorize": False,
            "reassociate": False, "pipeline_invocations": False,
            "if_convert": False, "max_region_ops": 9,
        }
        assert set(changed) == {
            f.name for f in fields(CompilerOptions)} - {"verify_passes"}
        for name, value in changed.items():
            key = runner.options_key(replace(default, **{name: value}))
            assert key != base, name
        capabilities = uniform_capabilities(FabricGeometry())
        assert runner.options_key(replace(
            default, fabric=Fabric(capabilities=capabilities))) != base
        assert runner.options_key(replace(default, verify_passes=True)) \
            == base
        assert runner.options_key(CompilerOptions()) == base

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_format_table(self):
        text = format_table(["name", "x"], [["a", 1.5], ["b", 123.4]],
                            title="T")
        assert "T" in text and "a" in text and "123" in text

    def test_format_series(self):
        text = format_series("s", [1, 2], [0.5, 1.0])
        assert "#" in text
