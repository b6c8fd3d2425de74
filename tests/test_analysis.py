"""Static analysis layer: mutation-style negative tests.

Strategy: take *known-good* artifacts (SSA straight from the compiler,
placed-and-routed configurations straight from the scheduler), corrupt
them one invariant at a time, and assert the verifier/linter names the
damage with the right stable code.  A final aggregate test asserts the
mutation corpus exercises a wide spread of distinct diagnostic codes —
the acceptance bar for this layer.
"""

import copy
import json
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro import (
    Diagnostic,
    DiagnosticReport,
    JobSpec,
    Severity,
    describe_code,
    lint_config,
    lint_spec,
    lint_workload,
    verify_function,
)
from repro.analysis.diagnostics import CODES
from repro.analysis.lint import lint_dfg
from repro.analysis.verifier import check_function
from repro.compiler.driver import CompilerOptions, compile_dyser, frontend
from repro.compiler.dyser_ir import DyserInit, DyserSend
from repro.compiler.ir import Compute, Copy, Jump, Ret, Block, Scalar
from repro.compiler.region import offload_regions
from repro.dyser import ConstRef, Dfg, FuOp, NodeRef
from repro.dyser.fabric import Fabric, FabricGeometry
from repro.errors import (
    ConfigurationError,
    PassVerificationError,
    ReproError,
)
from repro.workloads import SUITE


# -- known-good artifacts (compiled once, deep-copied per mutation) ----


@lru_cache(maxsize=4)
def _pristine_func(name="mm"):
    func = frontend(SUITE[name].source)
    func, _ = offload_regions(func, CompilerOptions())
    return func


@lru_cache(maxsize=4)
def _pristine_config(name="mm"):
    result = compile_dyser(SUITE[name].source)
    assert result.program.dyser_configs, "fixture workload must offload"
    return result.program.dyser_configs[
        min(result.program.dyser_configs)]


def _func():
    return copy.deepcopy(_pristine_func())


def _config():
    return copy.deepcopy(_pristine_config())


def _some_block_with_terminator(func, kind=None):
    for name in sorted(func.blocks):
        term = func.blocks[name].terminator
        if term is not None and (kind is None or isinstance(term, kind)):
            return func.blocks[name]
    raise AssertionError("no such block in fixture")


def _find_instr(func, klass):
    for name in sorted(func.blocks):
        for instr in func.blocks[name].instrs:
            if isinstance(instr, klass):
                return func.blocks[name], instr
    raise AssertionError(f"no {klass.__name__} in fixture")


# -- IR mutations ------------------------------------------------------


def _mut_drop_terminator(func):
    _some_block_with_terminator(func).terminator = None


def _mut_unknown_edge(func):
    _some_block_with_terminator(func, Jump).terminator = Jump("nosuch")


def _mut_double_def(func):
    for name in sorted(func.blocks):
        for instr in func.blocks[name].instrs:
            if isinstance(instr, Compute) and instr.result is not None:
                dup = Copy(result=instr.result, src=instr.result)
                func.blocks[name].instrs.append(dup)
                return
    raise AssertionError("no Compute in fixture")


def _mut_undefined_use(func):
    ghost = func.new_value(Scalar.INT, "ghost")
    _, instr = _find_instr(func, Compute)
    instr.args[0] = ghost


def _mut_dominance(func):
    # Move a definition after a same-block use of its result.
    for name in sorted(func.blocks):
        instrs = func.blocks[name].instrs
        for i, producer in enumerate(instrs):
            if producer.result is None:
                continue
            for j in range(i + 1, len(instrs)):
                if producer.result in instrs[j].uses():
                    instrs.insert(j + 1, instrs.pop(i))
                    return
    raise AssertionError("no same-block def-use pair in fixture")


def _mut_phi_mismatch(func):
    for name in sorted(func.blocks):
        block = func.blocks[name]
        if block.phis:
            phi = block.phis[0]
            value = next(iter(phi.incomings.values()))
            phi.incomings["nosuch_pred"] = value
            return
    raise AssertionError("no phi in fixture")


def _mut_unreachable_block(func):
    orphan = Block("orphan")
    orphan.terminator = Ret()
    func.blocks["orphan"] = orphan


def _mut_init_unknown_config(func):
    _, init = _find_instr(func, DyserInit)
    init.config_id = 999


def _mut_send_bad_port(func):
    _, send = _find_instr(func, DyserSend)
    send.port = 99


def _mut_drop_send(func):
    block, send = _find_instr(func, DyserSend)
    block.instrs.remove(send)


def _mut_send_before_init(func):
    from repro.compiler.ir import const_int

    stray = DyserSend(result=None, port=0, value=const_int(1))
    func.blocks[func.entry].instrs.insert(0, stray)


IR_MUTATIONS = [
    ("RPR101", _mut_drop_terminator),
    ("RPR102", _mut_unknown_edge),
    ("RPR103", _mut_double_def),
    ("RPR104", _mut_undefined_use),
    ("RPR105", _mut_dominance),
    ("RPR106", _mut_phi_mismatch),
    ("RPR107", _mut_unreachable_block),
    ("RPR108", _mut_init_unknown_config),
    ("RPR109", _mut_send_bad_port),
    ("RPR110", _mut_drop_send),
    ("RPR111", _mut_send_before_init),
]


class TestVerifierMutations:
    def test_pristine_function_verifies_clean(self):
        report = verify_function(_func())
        assert report.ok, report.render()
        assert not report.warnings, report.render()

    @pytest.mark.parametrize("code,mutate", IR_MUTATIONS,
                             ids=[c for c, _ in IR_MUTATIONS])
    def test_mutation_is_caught(self, code, mutate):
        func = _func()
        mutate(func)
        report = verify_function(func)
        assert code in report.codes(), (
            f"expected {code} ({describe_code(code).title}); "
            f"got: {report.render()}")

    def test_check_function_names_the_pass(self):
        func = _func()
        _mut_undefined_use(func)
        with pytest.raises(PassVerificationError) as exc:
            check_function(func, "evil-pass")
        assert "evil-pass" in str(exc.value)
        assert "RPR104" in str(exc.value)
        assert exc.value.pass_name == "evil-pass"
        assert exc.value.diagnostics


# -- configuration mutations -------------------------------------------


def _node_with_noderef_input(dfg):
    for nid in sorted(dfg.nodes):
        for slot, src in enumerate(dfg.nodes[nid].inputs):
            if isinstance(src, NodeRef):
                return nid, slot, src
    raise AssertionError("no node-to-node edge in fixture")


def _cmut_arity(config):
    nid = min(config.dfg.nodes)
    config.dfg.nodes[nid].inputs.append(ConstRef(0))


def _cmut_dangling_ref(config):
    _nid, _slot, ref = _node_with_noderef_input(config.dfg)
    del config.dfg.nodes[ref.node]
    config.placement.pop(ref.node, None)


def _cmut_no_outputs(config):
    config.dfg.outputs.clear()


def _cmut_cycle(config):
    nid, _slot, ref = _node_with_noderef_input(config.dfg)
    producer = config.dfg.nodes[ref.node]
    producer.inputs[0] = NodeRef(nid)


def _cmut_dead_node(config):
    config.dfg.add_node(FuOp.ADD, [ConstRef(1), ConstRef(2)])


def _cmut_port_range(config):
    nid = min(config.dfg.nodes)
    config.dfg.outputs[99] = NodeRef(nid)


def _cmut_unplace(config):
    nid = min(config.placement)
    del config.placement[nid]


def _cmut_double_place(config):
    nids = sorted(config.placement)
    assert len(nids) >= 2
    config.placement[nids[1]] = config.placement[nids[0]]


def _cmut_capability(config):
    nid = min(config.placement)
    fu = config.placement[nid]
    config.fabric.capabilities[fu] = set()


def _cmut_bad_hop(config):
    for key in sorted(config.routes):
        path = config.routes[key]
        if len(path) >= 3:
            del path[1]
            return
    raise AssertionError("no multi-hop route in fixture")


def _cmut_link_conflict(config):
    keys = sorted(config.routes)
    donor = next(k for k in keys if len(config.routes[k]) >= 2)
    victim = next(k for k in keys if k[0] != donor[0])
    config.routes[victim] = list(config.routes[donor])


def _cmut_drop_route(config):
    del config.routes[sorted(config.routes)[0]]


def _cmut_capacity(config):
    config.fabric = Fabric(FabricGeometry(1, 1))


def _cmut_const_output(config):
    port = min(config.dfg.outputs)
    config.dfg.outputs[port] = ConstRef(5)


CONFIG_MUTATIONS = [
    ("RPR201", _cmut_arity),
    ("RPR202", _cmut_dangling_ref),
    ("RPR203", _cmut_no_outputs),
    ("RPR204", _cmut_cycle),
    ("RPR205", _cmut_dead_node),
    ("RPR206", _cmut_port_range),
    ("RPR207", _cmut_unplace),
    ("RPR208", _cmut_double_place),
    ("RPR209", _cmut_capability),
    ("RPR210", _cmut_bad_hop),
    ("RPR211", _cmut_link_conflict),
    ("RPR212", _cmut_drop_route),
    ("RPR213", _cmut_capacity),
    ("RPR214", _cmut_const_output),
]


class TestConfigLintMutations:
    def test_pristine_config_lints_clean(self):
        report = lint_config(_config())
        assert report.ok, report.render()

    @pytest.mark.parametrize("code,mutate", CONFIG_MUTATIONS,
                             ids=[c for c, _ in CONFIG_MUTATIONS])
    def test_mutation_is_caught(self, code, mutate):
        config = _config()
        mutate(config)
        report = lint_config(config)
        assert code in report.codes(), (
            f"expected {code} ({describe_code(code).title}); "
            f"got: {report.render()}")

    def test_lint_dfg_standalone(self):
        dfg = Dfg("loose")
        n = dfg.add_node(FuOp.ADD, [ConstRef(1), ConstRef(2)])
        dfg.set_output(0, n)
        assert lint_dfg(dfg).ok

    def test_mutation_corpus_spans_enough_codes(self):
        """The acceptance bar: >= 8 distinct diagnostic codes fire."""
        fired = set()
        for code, mutate in CONFIG_MUTATIONS:
            config = _config()
            mutate(config)
            fired |= lint_config(config).codes()
        for code, mutate in IR_MUTATIONS:
            func = _func()
            mutate(func)
            fired |= verify_function(func).codes()
        distinct = {c for c in fired if c.startswith("RPR")}
        assert len(distinct) >= 8, sorted(distinct)
        # Every advertised mutation target actually fired somewhere.
        expected = ({c for c, _ in IR_MUTATIONS}
                    | {c for c, _ in CONFIG_MUTATIONS})
        assert expected <= fired


# -- throwing validators carry codes -----------------------------------


class TestErrorPayloads:
    def test_configuration_error_carries_code_and_context(self):
        config = _config()
        _cmut_unplace(config)
        with pytest.raises(ConfigurationError) as exc:
            config.validate()
        assert exc.value.code == "RPR207"
        assert "node" in exc.value.context

    def test_diagnostic_lifts_error(self):
        try:
            _config_with_unplaced().validate()
        except ReproError as exc:
            diag = Diagnostic.from_error(exc, location="here",
                                         source="test")
            assert diag.code == "RPR207"
            assert diag.severity is Severity.ERROR
            assert diag.context["node"] == min(_pristine_config().placement)
            assert diag.to_dict()["title"] == describe_code("RPR207").title
        else:  # pragma: no cover
            pytest.fail("validate() accepted a broken config")

    def test_unknown_code_is_synthetic_error(self):
        info = describe_code("RPR999")
        assert info.severity is Severity.ERROR
        assert info.title == "unregistered diagnostic"

    def test_every_raised_code_is_registered(self):
        # A code raised but never registered would render as
        # "unregistered diagnostic".
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        raised = {
            code
            for path in src.rglob("*.py")
            for code in re.findall(r"""code=["'](RPR\d{3})["']""",
                                   path.read_text(encoding="utf-8"))
        }
        assert "RPR218" in raised
        assert sorted(raised - set(CODES)) == []


def _config_with_unplaced():
    config = _config()
    _cmut_unplace(config)
    return config


# -- spec lint + engine pre-flight -------------------------------------


class TestSpecLint:
    def test_good_spec_is_clean(self):
        assert lint_spec(JobSpec(workload="mm")).ok

    def test_bad_spec_fires_many_codes(self):
        spec = JobSpec(workload="nope", scale="huge", unroll=0,
                       input_fifo_depth=0, memory_bytes=128,
                       energy_overrides=(("bogus", 1.0),))
        report = lint_spec(spec)
        assert not report.ok
        assert {"RPR251", "RPR252", "RPR253", "RPR254", "RPR255",
                "RPR256"} <= report.codes()

    def test_every_owned_int_knob_is_range_checked(self):
        # The lists come from the JobSpec knob table; the codes,
        # messages and order are those of the hand-written lists.
        spec = JobSpec(workload="mm", input_fifo_depth=0,
                       output_fifo_depth=0, initiation_interval=0,
                       config_cache_capacity=0,
                       vector_port_words_per_cycle=0, unroll=0,
                       min_region_ops=0)
        assert [(d.code, d.message) for d in lint_spec(spec)] == [
            ("RPR253", "hardware knob input_fifo_depth=0 must be >= 1"),
            ("RPR253", "hardware knob output_fifo_depth=0 must be >= 1"),
            ("RPR253", "hardware knob initiation_interval=0 must be >= 1"),
            ("RPR253", "hardware knob config_cache_capacity=0 must be >= 1"),
            ("RPR253",
             "hardware knob vector_port_words_per_cycle=0 must be >= 1"),
            ("RPR256", "compiler knob unroll=0 must be >= 1"),
            ("RPR256", "compiler knob min_region_ops=0 must be >= 1"),
        ]

    def test_max_below_min_region_ops(self):
        spec = JobSpec(workload="mm", min_region_ops=4, max_region_ops=2)
        report = lint_spec(spec)
        assert "RPR256" in report.codes()


class TestEnginePreflight:
    def test_illegal_spec_rejected_without_worker(self):
        from repro.engine.pool import run_jobs
        from repro.engine.report import REJECTED

        calls = []

        def worker(spec, cache):  # pragma: no cover - must not run
            calls.append(spec)
            return {}

        good = JobSpec(workload="mm", scale="tiny")
        bad = JobSpec(workload="mm", scale="tiny", input_fifo_depth=0)
        report = run_jobs([bad], worker=worker)
        record = report.records[0]
        assert record.status == REJECTED
        assert not calls, "worker must not be invoked for rejected specs"
        assert any(d.code == "RPR253" for d in record.diagnostics)
        assert "RPR253" in (record.error or "")
        assert report.failures and report.rejected
        assert "REJECTED" in report.summary()
        with pytest.raises(ReproError):
            report.raise_on_failure()
        # Sanity: the knob, not the workload, was the problem.
        assert lint_spec(good).ok

    def test_mixed_batch_runs_good_jobs(self):
        from repro.engine.pool import run_jobs
        from repro.engine.report import EXECUTED, REJECTED

        def worker(spec, cache):
            from repro.engine.cache import result_to_dict
            from repro.engine.pool import execute_job
            return result_to_dict(execute_job(spec, cache))

        good = JobSpec(workload="vecadd", scale="tiny")
        bad = JobSpec(workload="vecadd", scale="tiny",
                      config_cache_capacity=0)
        report = run_jobs([good, bad], worker=worker)
        assert report.records[0].status == EXECUTED
        assert report.records[1].status == REJECTED
        assert report.results[0] is not None
        assert report.results[1] is None


# -- workload lint + report rendering ----------------------------------


class TestLintWorkload:
    def test_suite_workload_is_ok(self):
        report = lint_workload("mm")
        assert report.ok, report.render()
        assert "RPR300" in report.codes()  # offload advisory

    def test_unknown_workload_is_a_diagnostic(self):
        report = lint_workload("not-a-workload")
        assert not report.ok
        assert "RPR251" in report.codes()

    def test_scalar_mode_skips_config_lint(self):
        report = lint_workload("mm", mode="scalar")
        assert report.ok
        assert not report.by_code("RPR300")

    def test_curtailing_shape_advisory(self):
        # kmeans offloads a loop whose continue-condition consumes
        # loop-carried data: the paper's E7 shape, as tool output.
        report = lint_workload("kmeans")
        assert "RPR302" in report.codes()
        advisory = report.by_code("RPR302")[0]
        assert advisory.severity is Severity.WARNING
        assert advisory.context["shape"] == "loop_carried_control"

    def test_report_json_roundtrip(self):
        report = lint_workload("kmeans")
        data = json.loads(report.to_json())
        assert data["ok"] == report.ok
        back = DiagnosticReport.from_dict(data)
        assert back.codes() == report.codes()
        assert len(back) == len(report)


class TestVerifyPassesKnob:
    def test_verified_compile_is_byte_identical(self):
        source = SUITE["fir"].source
        plain = compile_dyser(source, CompilerOptions())
        checked = compile_dyser(
            source, CompilerOptions(verify_passes=True))
        assert plain.ir_dump == checked.ir_dump
        assert len(plain.program.instructions) == \
            len(checked.program.instructions)
        assert sorted(plain.program.dyser_configs) == \
            sorted(checked.program.dyser_configs)


class TestLintCli:
    def test_lint_json_validates(self, capsys):
        from repro.cli import main

        rc = main(["lint", "mm", "fir", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert len(payload["reports"]) == 2
        for rep in payload["reports"]:
            for diag in rep["diagnostics"]:
                assert diag["code"].startswith("RPR")
                assert diag["severity"] in ("error", "warning", "note")

    def test_lint_text_mode(self, capsys):
        from repro.cli import main

        rc = main(["lint", "kmeans"])
        out = capsys.readouterr().out
        assert rc == 0  # warnings do not fail the lint
        assert "RPR302" in out
