"""Static performance-bound analyzer (repro.analysis.perf).

Three layers of coverage:

- **golden attributions** — the three bottleneck stories the model must
  tell correctly: dotprod's loop-carried recurrence (RPR401), scalar
  saxpy's interface-port pressure (RPR400), and a hand-built
  two-config program thrashing a capacity-1 configuration cache
  (RPR402);
- **contracts** — exactness parity against the lockstep core (the
  walk runs the reference core's own loop, so that is the independent
  check) on real kernels, plus a hypothesis property that the
  perfbound fuzz oracle finds nothing on generated programs (soundness
  + exactness on adversarial inputs);
- **plumbing** — CLI exit codes for ``repro lint [--perf]``, the
  diagnostics ordering guarantee, the engine cost pre-flight ordering,
  and the service scheduler's calibrated wait estimates.

Golden walker digests pin every walk bit for bit: one sha256 over
``PerfPrediction.to_dict()`` per suite kernel, mode and seed at
``tiny``, per timing-knob variant, for a walk that runs out of its
step budget, for two hand-built programs (one that stalls every
kind of instruction on a slow producer, one whose walk goes inexact),
and over walks of the first 900 generated fuzz cases.  E11 gates
exact cycle totals only; these also pin lower bounds, notes and the
per-region attribution.  A change meant to move a walk regenerates the table with
``PYTHONPATH=src python tests/test_perfmodel.py``.
"""

import hashlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.perf import (
    DEFAULT_STEP_LIMIT,
    analyze_program,
    analyze_workload,
    clear_cost_memo,
    emit_region_diagnostics,
    estimate_job_cost,
    perf_report,
)
from repro.cpu import CoreConfig, Memory
from repro.cpu.cache import l2_config
from repro.dyser import (
    ConstRef,
    Dfg,
    DyserConfig,
    Fabric,
    FabricGeometry,
    FuOp,
    PortRef,
)
from repro.dyser.config_cache import ConfigCacheParams
from repro.dyser.timing import DyserTimingParams
from repro.engine.jobs import JobSpec
from repro.harness import RunConfig
from repro.isa import assemble
from repro.workloads import SUITE


def codes(report: DiagnosticReport) -> list[str]:
    return [d.code for d in report.diagnostics]


# ---------------------------------------------------------------------
# golden attributions
# ---------------------------------------------------------------------


class TestGoldenAttributions:
    def test_dotprod_is_recurrence_bound(self):
        # The compiled dot product accumulates through the core: every
        # invocation waits on the previous result round-tripping the
        # fabric.  That is the E6 gap story, and the analyzer must name
        # it without simulating.
        report = perf_report(RunConfig(workload="dotprod", mode="dyser"))
        assert "RPR401" in codes(report)
        assert "RPR404" in codes(report)

    def test_unvectorized_saxpy_is_port_bound(self):
        from repro.compiler import CompilerOptions

        report = perf_report(RunConfig(
            workload="saxpy", mode="dyser",
            options=CompilerOptions(fabric=Fabric(FabricGeometry(8, 8)),
                                    vectorize=False)))
        assert "RPR400" in codes(report)

    def test_vectorized_saxpy_is_not_port_bound(self):
        # Wide vector transfers collapse both the per-element sends and
        # the address-generation chains; the residual host loop is the
        # limit, which has no dedicated RPR40x code.
        report = perf_report(RunConfig(workload="saxpy", mode="dyser"))
        assert "RPR400" not in codes(report)
        assert "RPR401" not in codes(report)
        assert "RPR402" not in codes(report)
        assert "RPR404" in codes(report)

    def test_scalar_mode_has_no_region_diagnostics(self):
        report = perf_report(RunConfig(workload="dotprod", mode="scalar"))
        assert codes(report) == ["RPR404"]


# ---------------------------------------------------------------------
# config-thrash golden (hand-built E9b shape)
# ---------------------------------------------------------------------

#: Two configs used alternately inside one loop: with a capacity-1
#: configuration cache every ``dinit`` is a full reload, so reload
#: stalls dominate each invocation — the E9b thrash axis in miniature.
THRASH_SRC = """
    li   r1, 0
    li   r2, 8
loop:
    dinit 0
    dfsend p0, f8
    dfrecv f1, p0
    dinit 1
    dfsend p0, f8
    dfrecv f2, p0
    addi r1, r1, 1
    blt  r1, r2, loop
    halt
"""


def _unary_config(config_id: int, constant: float) -> DyserConfig:
    # Wide but shallow: a balanced constant tree folded into the one
    # live input.  One send and one recv per invocation keeps the
    # interface cheap, while the many mapped FUs make every reload
    # stream a large configuration — so thrash stalls dominate.
    dfg = Dfg(f"tree{config_id}")
    nodes = [dfg.add_node(FuOp.FADD,
                          [ConstRef(constant), ConstRef(constant + i)])
             for i in range(6)]
    while len(nodes) > 1:
        nodes = ([dfg.add_node(FuOp.FADD, [nodes[i], nodes[i + 1]])
                  for i in range(0, len(nodes) - 1, 2)]
                 + ([nodes[-1]] if len(nodes) % 2 else []))
    root = dfg.add_node(FuOp.FADD, [nodes[0], PortRef(0)])
    dfg.set_output(0, root)
    return DyserConfig(config_id, dfg, Fabric(FabricGeometry(4, 4)))


class TestConfigThrash:
    def analyze(self, capacity: int):
        program = assemble(THRASH_SRC)
        program.dyser_configs[0] = _unary_config(0, 1.0)
        program.dyser_configs[1] = _unary_config(1, 2.0)
        return analyze_program(
            program,
            memory=Memory(1 << 16),
            fp_args=(3.0,),
            fabric=Fabric(FabricGeometry(4, 4)),
            cache_params=ConfigCacheParams(capacity=1),
            subject="thrash")

    def test_alternating_configs_are_config_bound(self):
        prediction = self.analyze(capacity=1)
        assert prediction.exact
        assert prediction.invocations == 16
        assert prediction.regions
        for region in prediction.regions:
            assert region.bottleneck == "config"
            assert region.config_ii > 0

    def test_thrash_emits_rpr402(self):
        prediction = self.analyze(capacity=1)
        report = DiagnosticReport(subject="thrash:perf")
        emit_region_diagnostics(report, "thrash", prediction)
        assert "RPR402" in codes(report)

    def test_prediction_matches_simulator(self):
        from repro.cpu import LaneOfOne
        from repro.dyser import DyserDevice

        prediction = self.analyze(capacity=1)

        program = assemble(THRASH_SRC)
        program.dyser_configs[0] = _unary_config(0, 1.0)
        program.dyser_configs[1] = _unary_config(1, 2.0)
        dyser = DyserDevice(
            fabric=Fabric(FabricGeometry(4, 4)),
            cache_params=ConfigCacheParams(capacity=1))
        # The walk runs the reference core's loop: measure on the
        # lockstep core, the independent implementation.
        core = LaneOfOne(program, Memory(1 << 16), dyser=dyser)
        core.set_args(fp_args=(3.0,))
        stats = core.run()
        assert prediction.predicted_cycles == stats.cycles
        assert prediction.lower_bound <= stats.cycles


# ---------------------------------------------------------------------
# contracts: exactness parity and the fuzz-oracle property
# ---------------------------------------------------------------------


class TestExactnessParity:
    @pytest.mark.parametrize("name,mode", [
        ("dotprod", "dyser"),
        ("dotprod", "scalar"),
        ("saxpy", "dyser"),
        ("fir", "dyser"),
        ("spmv", "scalar"),
    ])
    def test_prediction_matches_run(self, name, mode):
        from repro import run_workload

        config = RunConfig(workload=name, mode=mode, scale="small")
        prediction = analyze_workload(config)
        result = run_workload(config)
        assert prediction.exact
        assert prediction.predicted_cycles == result.stats.cycles
        assert prediction.lower_bound <= result.stats.cycles

    def test_unknown_workload_raises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            analyze_workload(RunConfig(workload="nosuchkernel"))


class TestPerfboundOracleProperty:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=40),
           index=st.integers(min_value=0, max_value=40),
           irregularity=st.sampled_from([0.2, 0.5, 0.8]))
    def test_bound_sound_on_generated_programs(self, seed, index,
                                               irregularity):
        from repro.harness.fuzz.generator import CaseGenerator
        from repro.harness.fuzz.oracles import perfbound_oracle

        case = CaseGenerator(seed, irregularity).generate(index)
        if case.kind == "kernel":
            return  # oracle covers scalar + dyser cases
        finding = perfbound_oracle(case)
        assert finding is None, finding.detail


# ---------------------------------------------------------------------
# plumbing: CLI, diagnostics ordering, engine, service
# ---------------------------------------------------------------------


class TestLintCli:
    def test_lint_error_exits_nonzero(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "nosuchkernel"]) == 1

    def test_lint_clean_exits_zero(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "dotprod"]) == 0

    def test_lint_perf_prints_prediction(self, tmp_path, monkeypatch,
                                         capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "dotprod", "--perf"]) == 0
        out = capsys.readouterr().out
        assert "RPR401" in out
        assert "RPR404" in out

    def test_lint_perf_json(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["lint", "dotprod", "--perf", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        perf = [r for r in doc["reports"]
                if r["subject"].endswith(":perf")]
        assert perf
        codes_seen = {d["code"] for r in perf for d in r["diagnostics"]}
        assert "RPR404" in codes_seen

    @pytest.mark.parametrize("geometry", [None, "4x4"])
    def test_lint_perf_predicts_the_matching_config(self, geometry,
                                                    capsys):
        """One RPR404 whose cycles are the walk of the same config."""
        import json

        from repro.cli import main
        from repro.compiler import CompilerOptions

        argv = ["lint", "mm", "--perf", "--json"]
        config = RunConfig(workload="mm")
        if geometry is not None:
            argv += ["--geometry", geometry]
            config = config.with_(options=CompilerOptions(
                fabric=Fabric(FabricGeometry(4, 4))))
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        (perf,) = [r for r in doc["reports"]
                   if r["subject"] == "mm/dyser:perf"]
        (found,) = [d for d in perf["diagnostics"] if d["code"] == "RPR404"]
        predicted = analyze_workload(config).predicted_cycles
        assert predicted is not None
        assert found["context"]["predicted_cycles"] == predicted


class TestDiagnosticOrdering:
    def test_to_dict_sorts_by_code_then_location(self):
        report = DiagnosticReport(subject="x")
        report.emit("RPR404", "m", location="b", source="perf")
        report.emit("RPR400", "m", location="z", source="perf")
        report.emit("RPR400", "m", location="a", source="perf")
        got = [(d["code"], d["location"])
               for d in report.to_dict()["diagnostics"]]
        assert got == [("RPR400", "a"), ("RPR400", "z"),
                       ("RPR404", "b")]


class TestEngineCostPreflight:
    @pytest.fixture
    def memo(self):
        """An empty cost memo, emptied again afterwards."""
        clear_cost_memo()
        yield
        clear_cost_memo()

    def test_cost_memo_is_bounded(self, memo):
        from types import SimpleNamespace

        from repro.analysis import perf

        limit = perf._COST_MEMO_LIMIT
        # Fakes carry one distinct shape each: the memo keys on shapes.
        specs = [SimpleNamespace(shape_hash=f"s{seed}", seed=seed)
                 for seed in range(limit + 5)]
        for spec in specs:
            perf.record_job_cycles(spec, spec.seed * 10)
            assert estimate_job_cost(spec) == spec.seed * 10
            assert len(perf._COST_MEMO) <= limit + 1
        # Clearing once past the bound kept only the newest entries,
        # which still answer from the memo.
        assert len(perf._COST_MEMO) == 4
        assert estimate_job_cost(specs[-1]) == specs[-1].seed * 10
        assert estimate_job_cost(specs[0]) is None

    def test_shape_leaves_out_the_seed_only(self):
        spec = JobSpec(workload="vecadd", scale="tiny", seed=1)
        assert replace(spec, seed=2).shape_hash == spec.shape_hash
        assert replace(spec, seed=2).job_hash != spec.job_hash
        assert replace(spec, scale="small").shape_hash != spec.shape_hash
        # Scalar specs keep the dyser-only normalisation.
        scalar = replace(spec, mode="scalar")
        assert replace(scalar, unroll=2).shape_hash == scalar.shape_hash

    def test_fresh_seed_of_a_run_shape_is_not_walked(self, memo):
        from repro.engine.pool import run_jobs

        spec = JobSpec(workload="vecadd", scale="tiny", seed=1)
        assert estimate_job_cost(spec) is None
        report = run_jobs([spec], jobs=1)
        cycles = report.results[0].stats.cycles
        for seed in (2, 3, 4):
            assert estimate_job_cost(replace(spec, seed=seed)) == cycles

    def test_run_jobs_fills_memo_with_observed_cycles(self, memo):
        from repro.analysis import perf
        from repro.engine.pool import run_jobs

        specs = [JobSpec(workload="vecadd", scale="tiny"),
                 JobSpec(workload="vecadd", mode="scalar", scale="tiny")]
        report = run_jobs(specs, jobs=1)
        for spec, result in zip(specs, report.results, strict=True):
            assert perf._COST_MEMO[spec.shape_hash] == result.stats.cycles

    def test_admission_cache_hit_fills_memo(self, memo, tmp_path):
        import asyncio

        from repro.analysis import perf
        from repro.engine import ArtifactCache
        from repro.engine.pool import run_jobs
        from repro.service import protocol as P
        from repro.service.admission import AdmissionController
        from repro.service.scheduler import Scheduler

        cache = ArtifactCache(tmp_path)
        spec = JobSpec(workload="vecadd", scale="tiny")
        cycles = run_jobs([spec], cache=cache).results[0].stats.cycles
        clear_cost_memo()   # as in a restarted daemon over a warm cache

        async def admit():
            admission = AdmissionController(
                Scheduler(queue_limit=8, jobs=1), cache=cache)
            return await admission.admit_run(spec)

        assert asyncio.run(admit()).status == P.STATUS_HIT
        assert perf._COST_MEMO == {spec.shape_hash: cycles}
        assert estimate_job_cost(replace(spec, seed=99)) == cycles

    def test_new_mode_or_timing_knob_is_a_new_shape(self, memo):
        from repro.analysis import perf

        spec = JobSpec(workload="vecadd", scale="tiny")
        perf.record_job_cycles(spec, 123)
        assert estimate_job_cost(spec) == 123
        for other in (replace(spec, mode="scalar"),
                      replace(spec, input_fifo_depth=2),
                      replace(spec, initiation_interval=2)):
            assert estimate_job_cost(other) is None

    def test_pricing_never_compiles_or_walks(self, memo, monkeypatch):
        import asyncio

        from repro.analysis import perf
        from repro.harness import runner
        from repro.service import protocol as P
        from repro.service.admission import AdmissionController
        from repro.service.scheduler import JobOutcome, Scheduler

        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("pricing compiled or walked")

        monkeypatch.setattr(perf, "analyze_workload", refuse)
        monkeypatch.setattr(runner, "_compile", refuse)
        spec = JobSpec(workload="vecadd", scale="tiny", seed=5)
        assert estimate_job_cost(spec) is None

        async def admit():
            sched = Scheduler(queue_limit=8, jobs=1)   # never started
            task = asyncio.create_task(
                AdmissionController(sched).admit_run(spec))
            for _ in range(500):
                job = sched.find_inflight(spec.job_hash)
                if job is not None or task.done():
                    break
                await asyncio.sleep(0.01)
            assert job is not None
            sched._resolve(job, JobOutcome(P.STATUS_FAILED, error="x"))
            await task
            return job.cost

        assert asyncio.run(admit()) is None
        assert calls == []

    def test_plan_orders_solo_jobs_longest_first(self):
        from repro.engine.pool import _plan_lanes

        specs = [JobSpec(workload=w) for w in ("a", "b", "c")]
        pending = [0, 1, 2]
        lanes, _ = _plan_lanes(specs, pending,
                               costs={0: 10, 1: 300, 2: 50})
        assert lanes == [[1], [2], [0]]

    def test_plan_keeps_index_order_without_full_costs(self):
        from repro.engine.pool import _plan_lanes

        specs = [JobSpec(workload=w) for w in ("a", "b", "c")]
        lanes, _ = _plan_lanes(specs, [0, 1, 2],
                               costs={0: 10, 1: None, 2: 50})
        assert lanes == [[0], [1], [2]]

    def test_run_jobs_records_cost(self, memo):
        from repro.engine.pool import run_jobs

        specs = [JobSpec(workload="dotprod"),
                 JobSpec(workload="saxpy")]
        cold = run_jobs(specs, jobs=2)
        assert [r.cost for r in cold.records] == [None, None]
        # Fresh seeds of the same shapes: priced by the cold run.
        warm = run_jobs([replace(spec, seed=8) for spec in specs], jobs=2)
        assert [r.cost for r in warm.records] == [
            result.stats.cycles for result in cold.results]


class TestSchedulerEstimates:
    def make(self):
        from repro.service.scheduler import Scheduler

        return Scheduler(queue_limit=8, jobs=1)

    def test_no_calibration_means_no_estimate(self):
        sched = self.make()
        assert sched.cycles_per_s() is None
        assert sched.estimated_wait_s() is None
        assert sched.retry_after_s() == 0.5

    def test_calibrated_wait_estimate(self):
        import asyncio

        from repro.service.scheduler import Scheduler

        async def scenario():
            sched = Scheduler(queue_limit=8, jobs=1)
            sched._cycles_done = 1_000_000
            sched._wall_done = 1.0
            sched.submit(JobSpec(workload="a"), cost=500_000)
            sched.submit(JobSpec(workload="b"), cost=250_000)
            assert sched.cycles_per_s() == pytest.approx(1e6)
            assert sched.estimated_wait_s() == pytest.approx(0.75)
            assert sched.retry_after_s() == pytest.approx(0.75)
            return True

        assert asyncio.run(scenario())

    def test_uncosted_queued_job_disables_estimate(self):
        import asyncio

        from repro.service.scheduler import Scheduler

        async def scenario():
            sched = Scheduler(queue_limit=8, jobs=1)
            sched._cycles_done = 1_000_000
            sched._wall_done = 1.0
            sched.submit(JobSpec(workload="a"), cost=500_000)
            sched.submit(JobSpec(workload="b"), cost=None)
            assert sched.estimated_wait_s() is None
            return True

        assert asyncio.run(scenario())

    @pytest.fixture(scope="class")
    def run(self):
        """One real ``vecadd`` tiny run: its result and its payload."""
        from repro.engine.cache import result_to_dict
        from repro.harness import run_workload

        result = run_workload(RunConfig(workload="vecadd", scale="tiny"))
        return result, result_to_dict(result)

    def test_uncosted_executed_job_calibrates(self, run):
        import asyncio

        from repro.service.scheduler import Scheduler

        result, payload = run

        async def scenario():
            sched = Scheduler(queue_limit=8, jobs=1,
                              worker=lambda spec, cache=None: dict(payload))
            sched.start()
            job = sched.submit(JobSpec(workload="vecadd", scale="tiny"),
                               cost=None)
            await job.future
            await sched.stop()
            return sched

        sched = asyncio.run(scenario())
        assert sched._cycles_done == result.stats.cycles
        assert sched.cycles_per_s() == pytest.approx(
            result.stats.cycles / sched._wall_done)

    def test_predicted_wait_past_deadline_answers_504(self, run):
        import asyncio

        from repro.analysis import perf
        from repro.service import protocol as P
        from repro.service.admission import AdmissionController
        from repro.service.scheduler import Scheduler

        _, payload = run
        ran = []

        def worker(spec, cache=None):
            ran.append(spec)
            return dict(payload)

        queued = JobSpec(workload="vecadd", scale="tiny", seed=1)
        late = replace(queued, seed=2)

        async def scenario():
            sched = Scheduler(queue_limit=8, jobs=1, worker=worker)
            sched._cycles_done = 1_000_000
            sched._wall_done = 1.0
            perf.record_job_cycles(queued, 500_000)
            sched.submit(queued, cost=perf.estimate_job_cost(queued))
            assert sched.estimated_wait_s() == pytest.approx(0.5)
            outcome = await AdmissionController(sched).admit_run(
                late, timeout_s=0.1)
            assert sched.find_inflight(late.job_hash) is None
            sched.start()
            await sched.stop()   # drains what was queued
            return outcome

        clear_cost_memo()
        try:
            outcome = asyncio.run(scenario())
        finally:
            clear_cost_memo()
        assert outcome.status == P.STATUS_EXPIRED
        assert "predicted queue wait 0.500s" in outcome.error
        assert ran == [queued]


# ---------------------------------------------------------------------
# golden walker digests
# ---------------------------------------------------------------------

#: Kernels every timing-knob variant walks.
KNOB_KERNELS = ("dotprod", "fir", "mm", "saxpy", "spmv")

#: Every FP op in the first lines faults or overflows, so the walk loses
#: values: both branches are guessed, and host and DySER memory ops go
#: through unresolved addresses and a dirtied memory image.
INEXACT_SRC = """
    fli  f1, 1e308
    fmul f1, f1, f1
    f2i  r1, f1
    f2i  r1, f1
    li   r2, 4
    li   r3, 0
back:
    addi r3, r3, 1
    blt  r1, r2, back
    bgt  r1, r3, fwd
fwd:
    ld   r4, r1, 0
    add  r5, r4, r2
    sel  r6, r1, r2, r3
    st   r5, r1, 8
    li   r7, 64
    ld   r8, r7, 0
    fld  f3, r7, 0
    dinit 0
    dfsend p0, f3
    dfrecv f4, p0
    dfld p0, r1, 0
    dfst p0, r1, 0
    dfldv p0, r7, 2
    dfstv p0, r1, 2
    halt
"""


#: Every load, store, move, branch and FPU op waits on a multi-cycle
#: producer (multiply, divide, FP divide or load) of one of its
#: sources, and DySER vector transfers hold the LSU for a later load.
#: The walk is exact, so it must also match the reference core.
HAZARD_SRC = """
    li   r1, 3
    li   r2, 512
    muli r3, r1, 8
    fld  f1, r3, 64
    muli r4, r1, 16
    ld   r5, r4, 64
    ld   r6, r5, 128
    muli r7, r1, 8
    st   r1, r7, 256
    div  r8, r2, r1
    st   r8, r2, 264
    muli r9, r1, 8
    fst  f1, r9, 272
    fdiv f2, f1, f1
    fst  f2, r2, 280
    mov  r10, r8
    fmov f3, f2
    mul  r11, r1, r1
    beq  r11, r1, skip
    muli r12, r1, 2
    i2f  f5, r12
    fsel f6, r12, f1, f5
    muli r13, r1, 5
    sel  r13, r13, r1, r2
skip:
    dinit 0
    muli r14, r1, 8
    dfld p0, r14, 64
    dfrecv f7, p0
    dfldv p0, r2, 2
    dfstv p0, r2, 2
    ld   r15, r2, 0
    halt
"""


def walk_fields(variant: str, mode: str) -> dict:
    """The :class:`RunConfig` fields of one golden walk variant (the
    ``budget`` variant's walk also gets ``step_limit=500``)."""
    if variant == "budget":
        return {}
    core = {"has_dyser": mode == "dyser"}
    timing = {}
    if variant == "fifo2":
        timing["input_fifo_depth"] = 2
    elif variant == "ii2":
        timing["initiation_interval"] = 2
    elif variant == "port4":
        core["vector_port_words_per_cycle"] = 4
    elif variant == "l2":
        core["l2"] = l2_config()
    return {"core_config": CoreConfig(**core),
            "timing": DyserTimingParams(**timing)}


def walker_cases() -> list[str]:
    """``name/mode/seed/variant`` keys of the golden workload walks."""
    # Content-addressed ``dsl:`` kernels other tests register at run
    # time are not part of the shipped suite.
    suite = sorted(name for name in SUITE if not name.startswith("dsl:"))
    cases = [f"{name}/{mode}/{seed}/base" for name in suite
             for mode in ("scalar", "dyser") for seed in (7, 11)]
    cases += [f"{name}/dyser/7/{variant}" for name in KNOB_KERNELS
              for variant in ("fifo2", "ii2", "port4")]
    cases += [f"{name}/{mode}/7/l2" for name in KNOB_KERNELS
              for mode in ("scalar", "dyser")]
    cases += ["mm/scalar/7/budget", "mm/dyser/7/budget"]
    return cases


def digest(doc) -> str:
    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def workload_walk_digest(case: str) -> str:
    name, mode, seed, variant = case.split("/")
    config = RunConfig(workload=name, mode=mode, scale="tiny",
                       seed=int(seed), **walk_fields(variant, mode))
    step_limit = 500 if variant == "budget" else DEFAULT_STEP_LIMIT
    prediction = analyze_workload(config, step_limit=step_limit)
    return digest(prediction.to_dict())


def inexact_walk_digest() -> str:
    program = assemble(INEXACT_SRC)
    program.dyser_configs[0] = _unary_config(0, 1.0)
    prediction = analyze_program(program, memory=Memory(1 << 16),
                                 fabric=Fabric(FabricGeometry(4, 4)),
                                 subject="inexact")
    assert not prediction.exact and prediction.walked
    return digest(prediction.to_dict())


def hazard_walk_digest() -> str:
    from repro.cpu import LaneOfOne
    from repro.dyser import DyserDevice

    def build():
        program = assemble(HAZARD_SRC)
        program.dyser_configs[0] = _unary_config(0, 1.0)
        return program

    fabric = Fabric(FabricGeometry(4, 4))
    prediction = analyze_program(build(), memory=Memory(1 << 16),
                                 fabric=fabric, subject="hazards")
    core = LaneOfOne(build(), Memory(1 << 16),
                     dyser=DyserDevice(fabric=fabric))
    assert prediction.exact
    assert prediction.predicted_cycles == core.run().cycles
    return digest(prediction.to_dict())


#: Generated cases (``CaseGenerator(seed=0)``) the ``generated`` walk
#: digest covers: the same cases ``tests/test_core_scalar.py`` pins the
#: reference core's outcomes over.
GENERATED_CASES = 900


def generated_walks_digest() -> str:
    """Walks of the generated cases, as the perfbound oracle walks
    them; a case the walk refuses contributes its stable error."""
    from repro.errors import ReproError, stable_error_string
    from repro.harness.fuzz.generator import CaseGenerator, default_fabric
    from repro.harness.fuzz.oracles import build_program

    walks = []
    for case in CaseGenerator(seed=0).cases(GENERATED_CASES):
        try:
            walks.append(analyze_program(
                build_program(case), fabric=default_fabric(),
                subject=case.key).to_dict())
        except ReproError as exc:
            walks.append(stable_error_string(exc))
    return digest(walks)


#: Walk key -> sha256 over the walk's ``PerfPrediction.to_dict()``.
WALKER_DIGESTS: dict[str, str] = {
    'collatz_diamonds/scalar/7/base':
        'd52cc1493d53e11a9d1c9edca2e99773cc33bb6676506f654431b22fa9684830',
    'collatz_diamonds/scalar/11/base':
        '8b9f02ac1491eee276ddbfdc2d8fe1bd9cb00bd7dc899678f81ec988f631029b',
    'collatz_diamonds/dyser/7/base':
        '6b79c63e00cb0ecae8a277086cfd5d4c3d797d204eb767a258d7720c0dbc0de3',
    'collatz_diamonds/dyser/11/base':
        '6b79c63e00cb0ecae8a277086cfd5d4c3d797d204eb767a258d7720c0dbc0de3',
    'conv2d/scalar/7/base':
        'f694678ee171ca4cadb63ac31fb24a4890345b2479e62996b4c20b90f628dba2',
    'conv2d/scalar/11/base':
        'f694678ee171ca4cadb63ac31fb24a4890345b2479e62996b4c20b90f628dba2',
    'conv2d/dyser/7/base':
        'eb9168a8b88e48995c25041dba384f823fa59a409f183c77d22a6e347cbe3966',
    'conv2d/dyser/11/base':
        'eb9168a8b88e48995c25041dba384f823fa59a409f183c77d22a6e347cbe3966',
    'dag_reduce_dsl/scalar/7/base':
        'd6047891afbaa5fbcf10ebf5aa6282616d320b308144ead32d64d2c7983eb1e3',
    'dag_reduce_dsl/scalar/11/base':
        'd6047891afbaa5fbcf10ebf5aa6282616d320b308144ead32d64d2c7983eb1e3',
    'dag_reduce_dsl/dyser/7/base':
        'bf9a98f9eedc72d5209bdb9a001372bceeb831e5d6cbc2eea4ab51b21ed8cca9',
    'dag_reduce_dsl/dyser/11/base':
        'bf9a98f9eedc72d5209bdb9a001372bceeb831e5d6cbc2eea4ab51b21ed8cca9',
    'dotprod/scalar/7/base':
        '98d1672ce9b9b509fdc122cb134167bbdd62ec24023c5da03099d6acf75c8f61',
    'dotprod/scalar/11/base':
        '98d1672ce9b9b509fdc122cb134167bbdd62ec24023c5da03099d6acf75c8f61',
    'dotprod/dyser/7/base':
        '81361380e0e1f990b66f24033b707cf1d5855abfba14964e1ced867fa6a1473a',
    'dotprod/dyser/11/base':
        '81361380e0e1f990b66f24033b707cf1d5855abfba14964e1ced867fa6a1473a',
    'fft_stage/scalar/7/base':
        '38168f3c5c7384863fb38a039a2cfaf68f90b209ed5b6bc66725ea507c447567',
    'fft_stage/scalar/11/base':
        '38168f3c5c7384863fb38a039a2cfaf68f90b209ed5b6bc66725ea507c447567',
    'fft_stage/dyser/7/base':
        '9e6f4215fa7c1582eb9dd7ea64a697e5fcf46c4128090bc09ba131a11137859c',
    'fft_stage/dyser/11/base':
        '9e6f4215fa7c1582eb9dd7ea64a697e5fcf46c4128090bc09ba131a11137859c',
    'fir/scalar/7/base':
        '1e71bb619693251d86f310933a5cf2816b005f2f6211e28b6dea890b2cfc4b71',
    'fir/scalar/11/base':
        '1e71bb619693251d86f310933a5cf2816b005f2f6211e28b6dea890b2cfc4b71',
    'fir/dyser/7/base':
        'a539b4d6f88b31d9e197df2403cb5b1ea333fb21dde04e09cc812e44d6fa3011',
    'fir/dyser/11/base':
        'a539b4d6f88b31d9e197df2403cb5b1ea333fb21dde04e09cc812e44d6fa3011',
    'hist_branchy_dsl/scalar/7/base':
        'e77d57a441071746baffc761150eda3d02fdf2bb3aac42ca84977b5e3cdf0d93',
    'hist_branchy_dsl/scalar/11/base':
        '3bf0a3ef0e7cfc4ae01ee28c18d57316f4c1f153e4ec2d0baca2872263391557',
    'hist_branchy_dsl/dyser/7/base':
        '460845b6f3dae9f726c9eaa77c514ead5a69092b23fd86dd6622159142599b71',
    'hist_branchy_dsl/dyser/11/base':
        '96387d20006a03874948e2aa4a392a1ed74cf21c9f0173671dcc9032604e3a00',
    'hist_weighted/scalar/7/base':
        '022d1ec33cd47ece55c725f37294e9dc53cfce8c675d5e02d6ada2157bd6da54',
    'hist_weighted/scalar/11/base':
        '022d1ec33cd47ece55c725f37294e9dc53cfce8c675d5e02d6ada2157bd6da54',
    'hist_weighted/dyser/7/base':
        '02b91086f9b5b3b148315a476cda369bb746040e52511afeda6e4a4c5d4e9404',
    'hist_weighted/dyser/11/base':
        '02b91086f9b5b3b148315a476cda369bb746040e52511afeda6e4a4c5d4e9404',
    'kmeans/scalar/7/base':
        '5c464ac4b9894a8619cf169e003e82fb74398498afbfa1ed30633f5517674724',
    'kmeans/scalar/11/base':
        '5cfa48ffdde1f84cdc03a389bf682712c22bfcc423e14ede4780f157a102ea30',
    'kmeans/dyser/7/base':
        '5f270f08bc4eab7f56f047a366c643bd5b4f9fc24a1c92ee7d2e41570b9bed84',
    'kmeans/dyser/11/base':
        '5f270f08bc4eab7f56f047a366c643bd5b4f9fc24a1c92ee7d2e41570b9bed84',
    'mm/scalar/7/base':
        'e543725379e89118e6f312c0bf64b48588927681c2f074ab8bd360d62f1f326e',
    'mm/scalar/11/base':
        'e543725379e89118e6f312c0bf64b48588927681c2f074ab8bd360d62f1f326e',
    'mm/dyser/7/base':
        'a03dc2f0d305e28dc6b72af533b45bb0b8191966e3048920e13eec49918a66bf',
    'mm/dyser/11/base':
        'a03dc2f0d305e28dc6b72af533b45bb0b8191966e3048920e13eec49918a66bf',
    'mriq/scalar/7/base':
        'f6c50677d1b10a7a3ea0710c08e44b2a7fe70e4bd4ddf899e4ea84947f2aef45',
    'mriq/scalar/11/base':
        'f6c50677d1b10a7a3ea0710c08e44b2a7fe70e4bd4ddf899e4ea84947f2aef45',
    'mriq/dyser/7/base':
        '5136e5fddc61f1883b24f4adb4b13bbe1e2c3ded3e27414359cfd3165511bb9c',
    'mriq/dyser/11/base':
        '5136e5fddc61f1883b24f4adb4b13bbe1e2c3ded3e27414359cfd3165511bb9c',
    'nbody/scalar/7/base':
        'b058c88e9696e0d0c22bac8375baf8587ae8f67a06995b41d2331a4e49cb3f79',
    'nbody/scalar/11/base':
        'b058c88e9696e0d0c22bac8375baf8587ae8f67a06995b41d2331a4e49cb3f79',
    'nbody/dyser/7/base':
        '0cdcf968d723a0675164f461fb21235fa5f692ba2419e4e958d520e3840ff15c',
    'nbody/dyser/11/base':
        '0cdcf968d723a0675164f461fb21235fa5f692ba2419e4e958d520e3840ff15c',
    'needle/scalar/7/base':
        '35374371f640059f34bcdf2a9cecbf8aa8f1f0a1ada8d32fecb4afcbc5d7ac27',
    'needle/scalar/11/base':
        '35374371f640059f34bcdf2a9cecbf8aa8f1f0a1ada8d32fecb4afcbc5d7ac27',
    'needle/dyser/7/base':
        'ba9c212fd1f9f6aa78f6e9c1428629ac68709df2e70bdec990a5d09879ba7a88',
    'needle/dyser/11/base':
        'ba9c212fd1f9f6aa78f6e9c1428629ac68709df2e70bdec990a5d09879ba7a88',
    'newton_lcd/scalar/7/base':
        '12799a794e668cd5e6e496f9bf7f4d222d8137e0d90c5ce24ea30850b264dfdd',
    'newton_lcd/scalar/11/base':
        '2963c4c758e112aadc6bef38827b7a0543ec7af7111befb234575cf687d2a3bc',
    'newton_lcd/dyser/7/base':
        '4c2f77f0398a5e044bbdb46b1dfffb41fee09aab6c0d10854e50a09d35ad5f0d',
    'newton_lcd/dyser/11/base':
        '7e13248b6affad1b91909c573a2c5d66d43c4961e39fc800edb097b931a85695',
    'ptr_chase_dsl/scalar/7/base':
        'df5791155d26d5bc4559031fd0d520c489b58f5881e885dd33b86e0736c44230',
    'ptr_chase_dsl/scalar/11/base':
        'df5791155d26d5bc4559031fd0d520c489b58f5881e885dd33b86e0736c44230',
    'ptr_chase_dsl/dyser/7/base':
        '4af306b237894d9f0cf275b527b14b7bc3fb099aa632f1f42548559dd8d0cfa1',
    'ptr_chase_dsl/dyser/11/base':
        '24446abf49f6e878c05b47dcc9636e10efaed9e68c52d62cfb77f585ad56aea9',
    'sad/scalar/7/base':
        'b3aced4c63dfb74e694ca1975d859a32f8104003337374b14a39ca37526c3250',
    'sad/scalar/11/base':
        'b3aced4c63dfb74e694ca1975d859a32f8104003337374b14a39ca37526c3250',
    'sad/dyser/7/base':
        'f933154fe943168ed55b1967149ce862e799693f2c22e147b5ecae3a0fd5531a',
    'sad/dyser/11/base':
        'f933154fe943168ed55b1967149ce862e799693f2c22e147b5ecae3a0fd5531a',
    'saxpy/scalar/7/base':
        '20c29e66a4c183bd37ecf14497c77d0768894b0bda7b48ef4304833c5f847a95',
    'saxpy/scalar/11/base':
        '20c29e66a4c183bd37ecf14497c77d0768894b0bda7b48ef4304833c5f847a95',
    'saxpy/dyser/7/base':
        '7b9ee365524a1cdda23602885a633ba6475a32ee8d0dde670733206de625e027',
    'saxpy/dyser/11/base':
        '7b9ee365524a1cdda23602885a633ba6475a32ee8d0dde670733206de625e027',
    'spmv/scalar/7/base':
        '4b0b596f4f3ff829fbdcd7d83749adec4bdd863b4b98af89b6344ad2833f4a4b',
    'spmv/scalar/11/base':
        'a1f0d97c3c0dc0aed3966bd8e5f9e1df21b572d4d547e7cdb3454e2d5cefca63',
    'spmv/dyser/7/base':
        'ebbe56a38dca301481f11fedf723a1315d9662e0a0b63315d08fdcf2872e417b',
    'spmv/dyser/11/base':
        'b78756eaf283ed3c55c6e3fc8809380104c64778437ceff35bc9c379ff82c88e',
    'spmv_csr_dsl/scalar/7/base':
        '00938f807c47b206b11814d9237b0232ec8aea5189ee7fb09989dd63387b6720',
    'spmv_csr_dsl/scalar/11/base':
        '00938f807c47b206b11814d9237b0232ec8aea5189ee7fb09989dd63387b6720',
    'spmv_csr_dsl/dyser/7/base':
        '464a7a425f43ff0157b0d0e0d19b7434fa3b0986088a9a07a0deebc5b51a7b1b',
    'spmv_csr_dsl/dyser/11/base':
        'f6f05c41dcba86dfc658dffb7e272e41af311c1fa2f637bc7b4d175326037331',
    'stencil2d/scalar/7/base':
        '4893d5da71bd507b1e85c075a9e9d09437ba1c1633f27dddf2704c032a75dae1',
    'stencil2d/scalar/11/base':
        '4893d5da71bd507b1e85c075a9e9d09437ba1c1633f27dddf2704c032a75dae1',
    'stencil2d/dyser/7/base':
        'b085d222ab76ee01ff072494118ea46b84007fee31cd0bf27195c5ba3fb54f2c',
    'stencil2d/dyser/11/base':
        'b085d222ab76ee01ff072494118ea46b84007fee31cd0bf27195c5ba3fb54f2c',
    'tpacf_bin/scalar/7/base':
        'e435cd650b5274e664e39d4b1fe4ec88159dd9a926f95099907f6fb07cd29740',
    'tpacf_bin/scalar/11/base':
        'e435cd650b5274e664e39d4b1fe4ec88159dd9a926f95099907f6fb07cd29740',
    'tpacf_bin/dyser/7/base':
        '4a56b86413b4fd152cb49d142423b37fefdbb0fee5e180a9ecf6f3a10fa8a447',
    'tpacf_bin/dyser/11/base':
        '4a56b86413b4fd152cb49d142423b37fefdbb0fee5e180a9ecf6f3a10fa8a447',
    'vecadd/scalar/7/base':
        '5e49d02079c466c5ded56e1ce6e817fd0d1ac255587d2493d7ee64110ebea73e',
    'vecadd/scalar/11/base':
        '5e49d02079c466c5ded56e1ce6e817fd0d1ac255587d2493d7ee64110ebea73e',
    'vecadd/dyser/7/base':
        'a68e329ab67cae5be3b7f0409aa9993834c45784d8ad8f7060c2e84fb6980147',
    'vecadd/dyser/11/base':
        'a68e329ab67cae5be3b7f0409aa9993834c45784d8ad8f7060c2e84fb6980147',
    'dotprod/dyser/7/fifo2':
        '81361380e0e1f990b66f24033b707cf1d5855abfba14964e1ced867fa6a1473a',
    'dotprod/dyser/7/ii2':
        '81361380e0e1f990b66f24033b707cf1d5855abfba14964e1ced867fa6a1473a',
    'dotprod/dyser/7/port4':
        'c4237f543a1a652b5335c8078f9fa219e7d4f6b0928d20b3053799740d5e434e',
    'fir/dyser/7/fifo2':
        'a539b4d6f88b31d9e197df2403cb5b1ea333fb21dde04e09cc812e44d6fa3011',
    'fir/dyser/7/ii2':
        'a539b4d6f88b31d9e197df2403cb5b1ea333fb21dde04e09cc812e44d6fa3011',
    'fir/dyser/7/port4':
        '853491599046bccf1a94738345c08c1c59314926979da5b9fe33af8c22bda99e',
    'mm/dyser/7/fifo2':
        'a03dc2f0d305e28dc6b72af533b45bb0b8191966e3048920e13eec49918a66bf',
    'mm/dyser/7/ii2':
        'a03dc2f0d305e28dc6b72af533b45bb0b8191966e3048920e13eec49918a66bf',
    'mm/dyser/7/port4':
        'f03657b608614effe4b7d93ab810eb67b359508c3317080dd0ffec2d8cf6ccb9',
    'saxpy/dyser/7/fifo2':
        '7b9ee365524a1cdda23602885a633ba6475a32ee8d0dde670733206de625e027',
    'saxpy/dyser/7/ii2':
        '7b9ee365524a1cdda23602885a633ba6475a32ee8d0dde670733206de625e027',
    'saxpy/dyser/7/port4':
        '05b20cd207048eb2699afc544028ff09f1376304fc9fab2dff6317dbf5f5104f',
    'spmv/dyser/7/fifo2':
        'ebbe56a38dca301481f11fedf723a1315d9662e0a0b63315d08fdcf2872e417b',
    'spmv/dyser/7/ii2':
        'ebbe56a38dca301481f11fedf723a1315d9662e0a0b63315d08fdcf2872e417b',
    'spmv/dyser/7/port4':
        'ebbe56a38dca301481f11fedf723a1315d9662e0a0b63315d08fdcf2872e417b',
    'dotprod/scalar/7/l2':
        'e39028002cf37effd30eb6f9434381e48544f404318ed11d13aeb18c7f4c6b9d',
    'dotprod/dyser/7/l2':
        '17232ada9325c892dcc35a576548fbb451d46d32afbb5a6edcb777d10bfa3c8c',
    'fir/scalar/7/l2':
        '143964366cca91abc5ddfc417481d695bee6b5596cd096f15da2d5eb9072e16c',
    'fir/dyser/7/l2':
        '58eea4698806ce01b330b3ef600de2908fc555d9a702c8fdb8328e4516fb6dbb',
    'mm/scalar/7/l2':
        '34694ded46ad2004271fd7413a7d10b5d5a99362200840710b30a866733749e4',
    'mm/dyser/7/l2':
        '4c8a09b2c1043ed2526c63d237e5876c6600bb0a22fcbfa2838627b240087706',
    'saxpy/scalar/7/l2':
        'f172bbc718a5d9a970619f1eed921541e3a323a7997c3e47e19938f056d5736d',
    'saxpy/dyser/7/l2':
        '26e4f3d35deca4a4e7c590d4d77e85a00e2648485f7cd59251159277651ec232',
    'spmv/scalar/7/l2':
        '6fab111cceaed77c51b36b5d85094bc69dcb04813944816fa6a2e3387c22b8f7',
    'spmv/dyser/7/l2':
        '4553a9b99d39df5b1c0200a8c720135601bfe74473f4aa62d459b1d17db7209a',
    'mm/scalar/7/budget':
        '567f17334f905a88b3374b358f429f36cd0fb72af7bd2ab014ba3a94d5adb2cc',
    'mm/dyser/7/budget':
        '54fb9be81666800f5f4b804d44ef767e183fa78e9ce4597ab2d068b5027b34b6',
    'hazards':
        '310656167b394903dcce3d241e67644e1d35af01e40b749fd109c93dc760db29',
    'inexact':
        'be84a4233a46190fdd14b079261bc90fd940b727cf9d317f5f7e2caa2b2d9c32',
    'generated':
        '33f2849c1dcd93684d04f365f0c1b9b4dc5a687d535b151558a3ad2ec73ee19f',
}


def test_walker_table_covers_cases():
    assert sorted(WALKER_DIGESTS) == sorted(
        walker_cases() + ["hazards", "inexact", "generated"])


@pytest.mark.parametrize("case", walker_cases())
def test_workload_walk_is_pinned(case):
    assert workload_walk_digest(case) == WALKER_DIGESTS[case]


def test_hazard_walk_is_pinned():
    assert hazard_walk_digest() == WALKER_DIGESTS["hazards"]


def test_inexact_walk_is_pinned():
    assert inexact_walk_digest() == WALKER_DIGESTS["inexact"]


def test_generated_walks_are_pinned():
    assert generated_walks_digest() == WALKER_DIGESTS["generated"]


_INF_TO_INT = "walk aborted: cannot convert float infinity to integer"


@pytest.mark.parametrize("source,walked,executed,notes", [
    ("li r2, 5\nadd r3, r2, r2\nli r1, 1e400\nhalt", False, 3,
     [_INF_TO_INT]),
    ("li r2, 8\naddi r1, r2, 1e400\nhalt", False, 2, [_INF_TO_INT]),
    ("li r2, 8\nld r1, r2, 1e400\nhalt", False, 2, [_INF_TO_INT]),
    ("li r2, 8\ndldv p0, r2, 1e400\nhalt", False, 2, [_INF_TO_INT]),
    (f"fli f1, {10 ** 400}\nhalt", False, 1,
     ["walk aborted: int too large to convert to float"]),
    # Through an unresolved base the immediate is never needed.
    ("fli f1, 1e308\nfmul f1, f1, f1\nf2i r1, f1\nf2i r1, f1\n"
     "ld r3, r1, 1e400\nst r3, r1, 1e400\nhalt", True, 7,
     ["fp op f2i faulted", "load from unresolved address",
      "store to unresolved address"]),
])
def test_unconvertible_immediate_aborts_where_used(source, walked,
                                                   executed, notes):
    prediction = analyze_program(assemble(source))
    assert prediction.walked == walked
    assert prediction.instructions == executed
    assert prediction.notes == notes


def test_walker_refuses_too_many_kernel_args():
    """The walk refuses the argument lists ``Core.set_args`` refuses,
    rather than predicting a run that can never start."""
    from repro.cpu import Core
    from repro.errors import SimulationError

    source = "addi r1, r1, 1\nhalt"
    with pytest.raises(SimulationError, match="too many kernel arguments"):
        Core(assemble(source), Memory(1 << 16)).set_args(range(20))
    with pytest.raises(SimulationError, match="too many kernel arguments"):
        analyze_program(assemble(source), int_args=range(20))
    with pytest.raises(SimulationError, match="too many kernel arguments"):
        analyze_program(assemble(source), fp_args=[0.0] * 20)


#: Every timing knob the walker and the core share, off its default.
_KNOBS = {"alu_latency": 2, "mul_latency": 3, "div_latency": 11,
          "fpu_latency": 5, "fdiv_latency": 9, "fpu_pipelined": True,
          "branch_taken_penalty": 2}


#: The hazard program plus back-to-back FPU work (so the pipelined-FPU
#: knob matters) and a loop (so the taken-branch penalty does).
_HAZARD_LOOP_SRC = HAZARD_SRC.replace("    halt\n", """\
    fadd  f8, f1, f1
    fmul  f9, f8, f1
    fsqrt f10, f1
    fdiv  f11, f1, f9
    li    r20, 3
again:
    addi  r20, r20, -1
    add   r21, r20, r20
    bne   r20, r0, again
    halt
""")


@pytest.mark.parametrize("source,knobs,cycles", [
    (HAZARD_SRC, _KNOBS, 199),
    (_HAZARD_LOOP_SRC, _KNOBS, 210),
    (_HAZARD_LOOP_SRC,
     {**_KNOBS, "fpu_pipelined": False, "branch_taken_penalty": 7}, 229),
], ids=["hazards", "hazards-loop", "hazards-loop-unpipelined"])
def test_hazard_walk_matches_core_under_non_default_timing(source, knobs,
                                                           cycles):
    # The walk runs the reference core's loop: measure on the lockstep
    # core, the independent implementation.
    from repro.cpu import LaneOfOne
    from repro.dyser import DyserDevice

    def build():
        program = assemble(source)
        program.dyser_configs[0] = _unary_config(0, 1.0)
        return program

    fabric = Fabric(FabricGeometry(4, 4))
    config = CoreConfig(**knobs)
    prediction = analyze_program(build(), memory=Memory(1 << 16),
                                 fabric=fabric, core_config=config)
    core = LaneOfOne(build(), Memory(1 << 16),
                     dyser=DyserDevice(fabric=fabric), config=config)
    measured = core.run().cycles
    assert prediction.exact
    assert prediction.predicted_cycles == measured
    default = LaneOfOne(build(), Memory(1 << 16),
                        dyser=DyserDevice(fabric=fabric)).run().cycles
    assert measured != default
    assert measured == cycles


if __name__ == "__main__":
    table = {case: workload_walk_digest(case) for case in walker_cases()}
    table["hazards"] = hazard_walk_digest()
    table["inexact"] = inexact_walk_digest()
    table["generated"] = generated_walks_digest()
    for key, value in table.items():
        print(f"    {key!r}:\n        {value!r},")
