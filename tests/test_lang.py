"""Tests for the validated kernel DSL (``repro.lang``, ISSUE 10).

Covers: the recursive-descent parser and the content-hash identity
contract (formatting never changes ``kernel_hash``), the fail-closed
validation pipeline with one negative case per RPR5xx code, the
resource lint on oversized dyser regions, lowering into the standard
:class:`Workload` form (correct in both modes, byte-identical across
the reference/fast/batched backends), the content-addressed
:class:`KernelStore` with its tamper check, the suite's lazy ``dsl:``
resolution plus the difflib nearest-name suggestions, and the ``dsl``
fuzz oracle (stream determinism, planted mutants rejected with their
specific code, regression classification, corpus replay).
"""

from __future__ import annotations

import json

import pytest

from repro import (
    KernelStore,
    RunConfig,
    WorkloadError,
    check_source,
    lower_spec,
    parse_kernel_source,
    run_workload,
    verify_parity,
)
from repro.dyser import DyserTimingParams
from repro.errors import ParseError
from repro.harness import verify_batch_parity
from repro.harness.fuzz import CaseGenerator, save_entry, replay_entry
from repro.harness.fuzz.generator import DSL_MUTATIONS
from repro.harness.fuzz.oracles import Finding, dsl_oracle
from repro.lang import IRREGULAR_DSL, load_workload, lowered_source
from repro.workloads import SUITE, suite
from repro.workloads.dsl_kernels import DSL_SOURCES

MINIMAL = """
kernel tiny_copy {
    size n = { tiny: 8, small: 16, medium: 32 };
    in  float a[n] = uniform(0.0, 1.0);
    in  int   count = n;
    out float y[n];
    for (int i = 0; i < count; i = i + 1) {
        y[i] = a[i];
    }
}
"""


def _checked(source: str):
    spec, report = check_source(source)
    assert spec is not None, report.render()
    return spec


# ---------------------------------------------------------------------
# Parser and content-hash identity
# ---------------------------------------------------------------------


class TestParser:
    @pytest.mark.parametrize("name", sorted(DSL_SOURCES))
    def test_shipped_sources_parse(self, name):
        spec = parse_kernel_source(DSL_SOURCES[name])
        assert spec.name
        assert spec.workload_name == f"dsl:{spec.kernel_hash[:16]}"

    def test_formatting_never_changes_the_hash(self):
        reformatted = (
            "// a comment\n"
            "kernel tiny_copy {\n"
            "  size n={tiny:8,small:16,medium:32};\n"
            "  in float a[n]=uniform(0.0,1.0);\n"
            "  in int count=n;  // trailing comment\n"
            "  out float y[n];\n"
            "  for(int i=0;i<count;i=i+1){y[i]=a[i];}\n"
            "}\n")
        a = parse_kernel_source(MINIMAL)
        b = parse_kernel_source(reformatted)
        assert a.kernel_hash == b.kernel_hash
        assert a.workload_name == b.workload_name

    def test_distinct_kernels_hash_differently(self):
        other = MINIMAL.replace("y[i] = a[i];", "y[i] = a[i] + 1.0;")
        assert (parse_kernel_source(MINIMAL).kernel_hash
                != parse_kernel_source(other).kernel_hash)

    def test_float_cast_parses_in_call_position(self):
        spec = _checked(MINIMAL.replace(
            "y[i] = a[i];", "y[i] = float(i) * a[i];"))
        assert spec.name == "tiny_copy"

    def test_leading_zero_literal_is_decimal(self):
        # The same source text that the kernel language parses as 8.
        zero = _checked(_body("int z = 08;\n        y[i] = a[z];"))
        plain = _checked(_body("int z = 8;\n        y[i] = a[z];"))
        assert zero.kernel_hash == plain.kernel_hash

    def test_kernel_language_literal_forms_parse(self):
        spec = _checked(_body("/* block comment */ int z = 0x3;\n"
                              "        y[i] = a[z] * 1.5e1;"))
        plain = _checked(_body("int z = 3;\n        y[i] = a[z] * 15.0;"))
        assert spec.kernel_hash == plain.kernel_hash

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_kernel_source("kernel broken {")
        assert err.value.line >= 1


# ---------------------------------------------------------------------
# Validation: one negative case per RPR5xx code
# ---------------------------------------------------------------------


def _body(stmt: str) -> str:
    return MINIMAL.replace("y[i] = a[i];", stmt)


_WIDE_DYSER = MINIMAL.replace(
    "y[i] = a[i];",
    "dyser { y[i] = " + " + ".join(["a[i]"] * 70) + "; }")

_MANY_LIVE = MINIMAL.replace(
    "for (int i = 0;",
    "".join(f"float v{k} = a[{k}];\n    " for k in range(40))
    + "for (int i = 0;").replace(
    "y[i] = a[i];",
    "dyser { y[i] = " + " + ".join(f"v{k}" for k in range(40)) + "; }")


REJECTIONS = [
    ("RPR500", MINIMAL.replace("size n", "@ size n")),
    ("RPR501", MINIMAL.rstrip()[:-1]),
    ("RPR510", _body("y[i] = qz;")),
    ("RPR511", _body("y[i] = a[i] + count;")),
    ("RPR512", _body("y[i] = count[i];")),
    ("RPR513", _body("a[i] = 1.0;\n        y[i] = a[i];")),
    ("RPR514", _body("int h = count / 2;\n        y[i] = a[h];")),
    ("RPR515", _body("float v = a[i];")),
    ("RPR516", _body("y[i] = clamp(a[i]);")),
    ("RPR517", MINIMAL.replace("in  int   count = n;",
                               "in  float bad = n;")),
    ("RPR518", MINIMAL.replace("in  int   count = n;",
                               "in  int   count = n;\n"
                               "    in  int   count = n;")),
    ("RPR519", MINIMAL.replace(" = uniform(0.0, 1.0)", "")),
    ("RPR520", _WIDE_DYSER),
    ("RPR521", _MANY_LIVE),
    ("RPR522", MINIMAL.replace("small: 16, ", "")),
    ("RPR523", MINIMAL.replace("tiny: 8", "tiny: 0")),
    ("RPR524", MINIMAL.replace("out float y[n];",
                               "in float y[n] = zeros();")
               .replace("y[i] = a[i];", "float v = a[i];")),
    ("RPR525", _body("dyser { dyser { y[i] = a[i]; } }")),
    ("RPR526", MINIMAL.replace("}\n}", "}\n    break;\n}")),
]


#: An int ``uniform()`` bound past the float range.
_HUGE_UNIFORM = MINIMAL.replace("uniform(0.0, 1.0)",
                                "uniform(0.0, 1" + "0" * 400 + ")")


class TestValidation:
    @pytest.mark.parametrize("code,source",
                             REJECTIONS, ids=[c for c, _ in REJECTIONS])
    def test_rejected_with_stable_code(self, code, source):
        spec, report = check_source(source)
        assert spec is None
        codes = {d.code for d in report.errors}
        assert code in codes, (code, report.render())
        # fail-closed: every rejection code is from the DSL bank and
        # registered (a registered code never renders the synthetic
        # "unregistered diagnostic" title).
        from repro.analysis.diagnostics import describe_code

        for diag in report.errors:
            assert diag.code.startswith("RPR5")
            assert describe_code(diag.code).title != "unregistered diagnostic"

    @pytest.mark.parametrize("op", ["&", "|", "^", "<<", ">>"])
    def test_operators_outside_the_subset_fail_to_tokenize(self, op):
        spec, report = check_source(
            _body(f"int z = count {op} 1;\n        y[i] = a[i];"))
        assert spec is None
        [diag] = report.errors
        assert diag.code == "RPR500"
        assert diag.message.startswith("8:23: ")   # at the operator

    def test_int_cast_is_an_unknown_intrinsic(self):
        spec, report = check_source(
            _body("int z = int(a[i]);\n        y[i] = a[i];"))
        assert spec is None
        assert [(d.code, d.location) for d in report.errors] == [
            ("RPR516", "8:17")]

    def test_while_loop_is_warning_not_rejection(self):
        source = _body("int k = 0;\n"
                       "        while (k < 3) { k = k + 1; }\n"
                       "        y[i] = a[i];")
        spec, report = check_source(source)
        assert spec is not None
        assert "RPR540" in {d.code for d in report.warnings}

    def test_uniform_bound_past_float_range_is_rejected(self):
        spec, report = check_source(_HUGE_UNIFORM)
        assert spec is None
        assert [(d.code, d.location) for d in report.errors] == [
            ("RPR519", "4:35")]                    # at the literal

    @pytest.mark.parametrize("literal", ["1e999", "1" + "0" * 400 + ".0"],
                             ids=["exponent", "decimal"])
    def test_float_literal_past_float_range_is_rejected(self, literal):
        spec, report = check_source(_body(f"y[i] = a[i] * {literal};"))
        assert spec is None
        [diag] = report.errors
        assert diag.code == "RPR501"
        assert diag.message.startswith("8:23: ")   # at the literal

    def test_check_source_never_raises(self):
        for junk in ("", "@@@", "kernel", "kernel x {",
                     "kernel x { size n = {tiny: 1}; }", "\x00\x01",
                     _body("int z = 2\u00b2;"),          # not a digit
                     _body("int z = " + "9" * 5000 + ";"),  # too long
                     MINIMAL.replace("size n", "flops = 0x" + "f" * 300
                                     + ";\n    size n"),
                     _HUGE_UNIFORM):
            spec, report = check_source(junk)
            assert spec is None
            assert not report.ok


# ---------------------------------------------------------------------
# Lowering: the standard Workload contract
# ---------------------------------------------------------------------


class TestLowering:
    def test_lowered_kernel_runs_correctly_both_modes(self):
        spec = _checked(MINIMAL)
        workload = lower_spec(spec)
        assert workload.category == IRREGULAR_DSL
        suite.register_workload(workload, replace=True)
        try:
            for mode in ("scalar", "dyser"):
                result = run_workload(RunConfig(
                    workload=workload.name, mode=mode, scale="tiny"))
                assert result.correct, mode
        finally:
            SUITE.pop(workload.name, None)

    # ``fast`` checks solo runs (lanes of one), ``batched`` two-point
    # lanes.
    @pytest.mark.parametrize("lane", [1, 2], ids=["fast", "batched"])
    def test_dsl_kernel_backend_parity(self, lane):
        # Acceptance criterion: DSL kernels byte-identical between the
        # reference and the batched backend, solo and in lanes (the
        # shipped tier is registered).
        configs = [RunConfig(workload="spmv_csr_dsl", mode=mode,
                             scale="tiny",
                             timing=DyserTimingParams(input_fifo_depth=d))
                   for mode in ("scalar", "dyser")
                   for d in (2, 8)[:lane]]
        report = (verify_parity(configs) if lane == 1
                  else verify_batch_parity(configs))
        assert report.ok, report.summary()

    def test_lowered_source_is_compilable_kernel_language(self):
        spec = _checked(DSL_SOURCES["spmv_csr_dsl"])
        text = lowered_source(spec)
        from repro import compile_dyser

        result = compile_dyser(text)
        assert result.program.instructions


# ---------------------------------------------------------------------
# Store: content-addressed persistence
# ---------------------------------------------------------------------


class TestStore:
    def test_put_load_roundtrip(self, tmp_path):
        store = KernelStore(tmp_path)
        spec = _checked(MINIMAL)
        entry = store.put(MINIMAL, spec)
        assert entry["kernel_hash"] == spec.kernel_hash
        assert store.path_for(spec.workload_name).exists()
        assert store.load_source(spec.workload_name) == MINIMAL
        assert store.names() == [spec.workload_name]
        workload = load_workload(spec.workload_name, store=store)
        assert workload is not None
        assert workload.name == spec.workload_name

    def test_put_is_idempotent(self, tmp_path):
        store = KernelStore(tmp_path)
        spec = _checked(MINIMAL)
        assert store.put(MINIMAL, spec) == store.put(MINIMAL, spec)
        assert len(store.names()) == 1

    def test_tampered_entry_is_rejected(self, tmp_path):
        store = KernelStore(tmp_path)
        spec = _checked(MINIMAL)
        store.put(MINIMAL, spec)
        path = store.path_for(spec.workload_name)
        doc = json.loads(path.read_text())
        doc["source"] = doc["source"].replace("a[i]", "(a[i] + 1.0)")
        path.write_text(json.dumps(doc))
        # content no longer matches the content-addressed name
        with pytest.raises(WorkloadError, match="refusing the mismatched"):
            load_workload(spec.workload_name, store=store)

    def test_missing_kernel_is_none(self, tmp_path):
        store = KernelStore(tmp_path)
        assert load_workload("dsl:" + "0" * 16, store=store) is None


# ---------------------------------------------------------------------
# Suite integration: dsl tier + lazy resolution + suggestions
# ---------------------------------------------------------------------


class TestSuiteIntegration:
    def test_dsl_tier_is_registered(self):
        tier = suite.names(category=IRREGULAR_DSL)
        assert set(DSL_SOURCES) <= set(tier)
        assert len(tier) >= 4

    def test_get_resolves_dsl_names_from_store(self, tmp_path, monkeypatch):
        spec = _checked(MINIMAL)
        KernelStore(tmp_path).put(MINIMAL, spec)
        monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path))
        try:
            SUITE.pop(spec.workload_name, None)
            workload = suite.get(spec.workload_name)
            assert workload.name == spec.workload_name
        finally:
            SUITE.pop(spec.workload_name, None)

    def test_unknown_workload_suggests_nearest(self):
        with pytest.raises(WorkloadError) as err:
            suite.get("vecad")
        msg = str(err.value)
        assert "unknown workload" in msg
        assert "'vecadd'" in msg

    def test_unknown_category_suggests_nearest(self):
        with pytest.raises(WorkloadError) as err:
            suite.names(category="iregular-dsl")
        msg = str(err.value)
        assert "unknown category" in msg
        assert "'irregular-dsl'" in msg


# ---------------------------------------------------------------------
# The dsl fuzz oracle
# ---------------------------------------------------------------------


class TestDslFuzz:
    def test_dsl_stream_is_deterministic(self):
        a = CaseGenerator(seed=13)
        b = CaseGenerator(seed=13)
        for index in range(20):
            assert (a.generate_dsl(index).to_dict()
                    == b.generate_dsl(index).to_dict())

    def test_main_stream_never_emits_dsl(self):
        kinds = {CaseGenerator(seed=0).generate(i).kind
                 for i in range(40)}
        assert kinds == {"scalar", "dyser", "kernel"}

    def test_every_mutation_rejected_with_its_code(self):
        gen = CaseGenerator(seed=1, irregularity=1.0)
        seen: set[str] = set()
        index = 0
        while seen != set(DSL_MUTATIONS) and index < 2000:
            case = gen.generate_dsl(index)
            index += 1
            if not case.expect_error:
                continue
            mutation = case.label.split("/", 1)[1]
            if mutation in seen:
                continue
            seen.add(mutation)
            assert dsl_oracle(case) is None, case.describe()
            spec, report = check_source(case.source)
            assert spec is None
            assert DSL_MUTATIONS[mutation] in {d.code
                                               for d in report.errors}
        assert seen == set(DSL_MUTATIONS)

    def test_oracle_flags_a_mutant_that_validation_accepts(self):
        # Regression shape: a case tagged expect_error whose source is
        # actually legal models validation having gone soft.
        gen = CaseGenerator(seed=4)
        legal = next(gen.generate_dsl(i) for i in range(100)
                     if not gen.generate_dsl(i).expect_error)
        from dataclasses import replace

        soft = replace(legal, expect_error=True, label="dsl/garbage")
        finding = dsl_oracle(soft)
        assert finding is not None
        assert finding.kind == "mutant-accepted"

    def test_oracle_flags_legal_source_rejected(self):
        gen = CaseGenerator(seed=4)
        mutant = next(gen.generate_dsl(i) for i in range(200)
                      if gen.generate_dsl(i).expect_error)
        from dataclasses import replace

        broken = replace(mutant, expect_error=False, label="dsl/plain")
        finding = dsl_oracle(broken)
        assert finding is not None
        assert finding.kind == "legal-rejected"

    def test_dsl_corpus_entry_roundtrip(self, tmp_path):
        case = CaseGenerator(seed=2026).generate_dsl(1)
        finding = Finding("dsl", case.key, "legal-rejected", "x",
                          seed=case.seed, index=case.index)
        path = save_entry(case, finding, tmp_path)
        assert path.name.startswith("dsl-")
        assert replay_entry(path) is None  # green on main


# ---------------------------------------------------------------------
# Golden digests of the DSL front end
# ---------------------------------------------------------------------
#
# One sha256 per shipped irregular-dsl kernel over its ``kernel_hash``
# and ``lowered_source``, and one over the ``check_source`` outcome of
# the first 300 generated dsl fuzz cases (seed 0): the ``kernel_hash``
# of an accepted case, the sorted error codes of a rejected one.  A
# refactor of the parser, the AST or the hashing must leave every
# entry alone; ``PYTHONPATH=src python tests/test_lang.py`` prints a
# fresh table for a change that is meant to move them.

GENERATED_DSL_CASES = 300


def _digest(doc) -> str:
    import hashlib

    blob = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def shipped_kernel_digest(name: str) -> str:
    spec = _checked(DSL_SOURCES[name])
    return _digest([spec.kernel_hash, lowered_source(spec)])


def generated_outcomes_digest() -> str:
    gen = CaseGenerator(seed=0)
    rows = []
    for index in range(GENERATED_DSL_CASES):
        spec, report = check_source(gen.generate_dsl(index).source)
        rows.append(spec.kernel_hash if spec is not None
                    else sorted(d.code for d in report.errors))
    return _digest(rows)


def dsl_frontend_table() -> dict[str, str]:
    table = {name: shipped_kernel_digest(name)
             for name in sorted(DSL_SOURCES)}
    table["generated"] = generated_outcomes_digest()
    return table


#: Key -> sha256; see the comment above ``GENERATED_DSL_CASES``.
DSL_FRONTEND_DIGEST: dict[str, str] = {
    'dag_reduce_dsl':
        '80d95568f237c07ea5bfd0a727c07dc7dd5b3ea6e0f55cf8cf20e2654a7e08e0',
    'hist_branchy_dsl':
        '1b73cd6320349ba79cf4d8ca6176190e45acc2e6d6ddab8b6098f81682c43b39',
    'ptr_chase_dsl':
        '51954012e426aed7e32da1071101982aa7f2f2350abb83898369b4346e473cac',
    'spmv_csr_dsl':
        'f75120ee9d795143906e8198f083528ede8426b9c0fdb6da2c7a145c3fffeb54',
    'generated':
        'f3806d5e9c74c5698061abe3ef2d55369cc1c1ba5b669f94c0ddda6da5474ec2',
}


@pytest.mark.parametrize("name", sorted(DSL_SOURCES))
def test_shipped_kernel_digest(name):
    assert shipped_kernel_digest(name) == DSL_FRONTEND_DIGEST[name]


def test_generated_outcomes_digest():
    assert sorted(DSL_FRONTEND_DIGEST) == sorted(
        [*DSL_SOURCES, "generated"])
    assert generated_outcomes_digest() == DSL_FRONTEND_DIGEST["generated"]


if __name__ == "__main__":
    for key, value in dsl_frontend_table().items():
        print(f"    {key!r}:\n        {value!r},")
