"""Tests for the differential fuzzing + chaos subsystem.

Covers: generator determinism and replayability from (seed, index)
alone, the oracle matrix (parity / lint / IR agreement on main), the
planted-mutation self-check (caught -> shrunk -> corpus entry that
replays red against the mutant and green against the real backend),
corpus round-trips and replay of the committed entries, chaos
scenarios, byte-reproducible findings reports, the ``repro fuzz`` CLI,
and the satellite hardening: corrupt-cache miss-and-evict, stable
error strings, and the parity harness's failure path against a
deliberately miscounting stub backend.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import (
    ArtifactCache,
    Backend,
    Core,
    Memory,
    RunConfig,
    WorkloadError,
    stable_error_string,
    temporary_backend,
    unregister_backend,
    verify_parity,
)
from repro.cli import main
from repro.cpu import LaneOfOne
from repro.errors import MemoryFault, ReproError, SimulationError
from repro.harness.fuzz import (
    CaseGenerator,
    FuzzCase,
    FuzzOptions,
    MutantBatchCore,
    iter_corpus,
    load_entry,
    replay_entry,
    run_case,
    run_chaos,
    run_fuzz,
    save_entry,
    shrink_case,
)
from repro.harness.fuzz.generator import MUTATIONS, _gen_dyser, case_rng
from repro.harness.fuzz.oracles import (
    MUST_CRASH_CODES,
    Finding,
    lint_case,
    lint_oracle,
    parity_oracle,
)

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"


# ---------------------------------------------------------------------
# Generator: determinism and structure
# ---------------------------------------------------------------------


class TestGenerator:
    def test_same_seed_same_cases(self):
        a = CaseGenerator(seed=42)
        b = CaseGenerator(seed=42)
        for index in range(25):
            assert a.generate(index).to_dict() == b.generate(index).to_dict()

    def test_generation_order_is_irrelevant(self):
        gen = CaseGenerator(seed=7)
        forward = [gen.generate(i).to_dict() for i in range(10)]
        backward = [gen.generate(i).to_dict()
                    for i in reversed(range(10))]
        assert forward == list(reversed(backward))

    def test_different_seeds_differ(self):
        a = [CaseGenerator(seed=1).generate(i).to_dict()
             for i in range(10)]
        b = [CaseGenerator(seed=2).generate(i).to_dict()
             for i in range(10)]
        assert a != b

    def test_case_round_trips_through_dict(self):
        gen = CaseGenerator(seed=3)
        for index in range(15):
            case = gen.generate(index)
            assert FuzzCase.from_dict(
                json.loads(json.dumps(case.to_dict()))) == case

    def test_all_kinds_appear(self):
        kinds = {CaseGenerator(seed=0).generate(i).kind
                 for i in range(40)}
        assert kinds == {"scalar", "dyser", "kernel"}

    def test_irregularity_validated(self):
        with pytest.raises(ValueError):
            CaseGenerator(seed=0, irregularity=1.5)

    def test_every_case_runs_or_faults_cleanly(self):
        # No generated case may hang or escape the ReproError domain.
        gen = CaseGenerator(seed=11, irregularity=0.8)
        for index in range(20):
            case = gen.generate(index)
            if case.kind == "kernel":
                continue
            verdict, _ = run_case(case, Core)
            assert verdict in ("ok", "error")
            if case.expect_error:
                assert verdict == "error", case.describe()


# ---------------------------------------------------------------------
# Oracles on main: everything must agree
# ---------------------------------------------------------------------


class TestOraclesOnMain:
    def test_no_findings_at_default_irregularity(self):
        report = run_fuzz(FuzzOptions(
            seed=5, cases=30, oracles=("parity", "lint", "ir")))
        assert report.ok, report.summary()
        assert report.cases_run == 30

    def test_lint_agrees_on_every_planted_mutation(self):
        # Force each mutation kind and check lint-vs-crash agreement.
        seen: set[str] = set()
        for index in range(400):
            if seen == set(MUTATIONS):
                break
            case = _gen_dyser(case_rng(1, index), 1, index, 1.0)
            if not case.expect_error:
                continue
            seen.add(case.label.split("/", 1)[1])
            assert lint_oracle(case) is None, case.describe()
            codes = lint_case(case)
            assert codes & MUST_CRASH_CODES, case.describe()
        assert seen == set(MUTATIONS)

    def test_parity_oracle_names_diverging_key(self):
        gen = CaseGenerator(seed=0)
        finding = None
        for index in range(30):
            case = gen.generate(index)
            if case.kind not in ("scalar", "dyser"):
                continue
            finding = parity_oracle(case, candidate_cls=MutantBatchCore)
            if finding is not None:
                break
        assert finding is not None
        assert finding.oracle == "parity"
        assert "stats." in finding.detail

    def test_findings_report_is_byte_reproducible(self):
        opts = FuzzOptions(seed=9, cases=20,
                           oracles=("parity", "lint", "ir"))
        a = json.dumps(run_fuzz(opts).to_dict(), sort_keys=True)
        b = json.dumps(run_fuzz(opts).to_dict(), sort_keys=True)
        assert a == b


# ---------------------------------------------------------------------
# The planted-mutation self-check (the acceptance criterion)
# ---------------------------------------------------------------------


class TestSelfCheck:
    def test_mutant_is_caught_shrunk_and_replayable(self, tmp_path):
        report = run_fuzz(FuzzOptions(
            seed=0, cases=12, oracles=("parity",),
            candidate_cls=MutantBatchCore, corpus_dir=str(tmp_path)))
        assert not report.ok, "planted off-by-one was never caught"
        entries = iter_corpus(tmp_path)
        assert entries, "finding was not persisted to the corpus"
        for path in entries:
            case, finding = load_entry(path)
            assert finding.oracle == "parity"
            # Red against the mutant, green against the real backend.
            assert replay_entry(path, MutantBatchCore) is not None
            assert replay_entry(path) is None
            # The shrunk case still assembles and runs standalone.
            verdict, _ = run_case(case, Core)
            assert verdict in ("ok", "error")

    def test_batch_mutant_is_caught_shrunk_and_replayable(self, tmp_path):
        report = run_fuzz(FuzzOptions(
            seed=2026, cases=2, oracles=("batched",),
            candidate_cls=MutantBatchCore, corpus_dir=str(tmp_path)))
        assert not report.ok, "planted batch off-by-one was never caught"
        entries = iter_corpus(tmp_path)
        assert entries, "finding was not persisted to the corpus"
        for path in entries:
            case, finding = load_entry(path)
            assert finding.oracle == "batched"
            # Red against the mutant lane, green against the real one.
            assert replay_entry(path, MutantBatchCore) is not None
            assert replay_entry(path) is None
            verdict, _ = run_case(case, Core)
            assert verdict in ("ok", "error")

    def test_shrinking_reduces_the_case(self):
        gen = CaseGenerator(seed=0)
        check = lambda c: parity_oracle(c, MutantBatchCore)  # noqa: E731
        for index in range(30):
            case = gen.generate(index)
            if case.kind == "kernel" or check(case) is None:
                continue
            shrunk = shrink_case(case, check)
            assert check(shrunk) is not None, "shrink lost the finding"
            assert (len(shrunk.source.splitlines())
                    <= len(case.source.splitlines()))
            return
        pytest.fail("no case triggered the planted mutant")

    def test_shrink_keeps_unreproducible_case_untouched(self):
        case = CaseGenerator(seed=1).generate(0)
        assert shrink_case(case, lambda c: None) == case


# ---------------------------------------------------------------------
# Corpus round-trips and the committed entries
# ---------------------------------------------------------------------


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        case = CaseGenerator(seed=2).generate(4)
        finding = Finding("parity", case.key, "summary-mismatch",
                          "stats.cycles: reference=1 candidate=2",
                          seed=case.seed, index=case.index)
        path = save_entry(case, finding, tmp_path)
        loaded_case, loaded_finding = load_entry(path)
        assert loaded_case == case
        assert loaded_finding == finding

    def test_bad_format_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other", "case": {}}))
        with pytest.raises(WorkloadError):
            load_entry(path)

    def test_iter_corpus_missing_dir_is_empty(self, tmp_path):
        assert iter_corpus(tmp_path / "nope") == []

    @pytest.mark.parametrize(
        "path", sorted(CORPUS_DIR.glob("*.json")),
        ids=lambda p: p.name)
    def test_committed_corpus_entry_stays_fixed(self, path):
        assert replay_entry(path) is None, (
            f"{path.name}: a previously-fixed fuzz finding fires again")

    def test_committed_corpus_is_nonempty(self):
        assert len(sorted(CORPUS_DIR.glob("*.json"))) >= 2


# ---------------------------------------------------------------------
# Chaos scenarios
# ---------------------------------------------------------------------


class TestChaos:
    def test_worker_crash_and_cache_corruption_scenarios(self):
        findings = run_chaos(
            seed=0, scenarios=("worker-crash", "cache-corruption"))
        assert findings == [], "\n".join(f.describe() for f in findings)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_chaos(scenarios=("nope",))


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------


class TestCli:
    def test_fuzz_smoke_exits_zero(self, capsys):
        rc = main(["fuzz", "--seed", "1", "--cases", "6",
                   "--oracle", "parity", "--oracle", "lint"])
        out = capsys.readouterr().out
        report = json.loads(out)
        assert rc == 0
        assert report["format"] == "repro-fuzz-report-v1"
        assert report["cases_run"] == 6
        assert report["findings"] == []

    def test_fuzz_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc = main(["fuzz", "--seed", "1", "--cases", "4",
                   "--oracle", "parity", "--report", str(target)])
        capsys.readouterr()
        assert rc == 0
        assert json.loads(target.read_text())["cases_run"] == 4

    def test_fuzz_replay_corpus(self, capsys):
        rc = main(["fuzz", "--replay", str(CORPUS_DIR)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out

    def test_fuzz_replay_empty_dir_fails(self, tmp_path, capsys):
        rc = main(["fuzz", "--replay", str(tmp_path)])
        capsys.readouterr()
        assert rc == 1


# ---------------------------------------------------------------------
# Satellite: corrupt artifact-cache entries are a miss-and-evict
# ---------------------------------------------------------------------


class TestCacheCorruption:
    def _store(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"stats": {"cycles": 123}, "blob": "x" * 64}
        cache.store("run", "deadbeef", payload)
        return cache, cache._path("run", "deadbeef"), payload

    def test_round_trip_with_checksum(self, tmp_path):
        cache, path, payload = self._store(tmp_path)
        assert cache.load("run", "deadbeef") == payload
        assert "_sha256" in json.loads(path.read_text())

    def test_truncated_entry_misses_and_evicts(self, tmp_path):
        cache, path, _ = self._store(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        assert cache.load("run", "deadbeef") is None
        assert not path.exists()

    def test_bitflip_valid_json_misses_and_evicts(self, tmp_path):
        # The nasty case: still valid JSON, wrong bytes.
        cache, path, _ = self._store(tmp_path)
        data = json.loads(path.read_text())
        data["stats"]["cycles"] = 124
        path.write_text(json.dumps(data))
        assert cache.load("run", "deadbeef") is None
        assert not path.exists()

    def test_garbage_misses_and_evicts(self, tmp_path):
        cache, path, _ = self._store(tmp_path)
        path.write_text("{this is not json")
        assert cache.load("run", "deadbeef") is None
        assert not path.exists()

    def test_entry_without_checksum_is_evicted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache._path("run", "cafe")
        stored = {"stats": {"cycles": 123}}
        for strip in (True, False):
            cache.store("run", "cafe", stored)
            data = json.loads(path.read_text())
            digest = data.pop("_sha256")
            if not strip:   # renamed key, and the payload edited
                data["_sha257"] = digest
                data["stats"]["cycles"] = 124
            path.write_text(json.dumps(data))
            assert cache.load("run", "cafe") is None
            assert not path.exists()

    def test_load_returns_what_store_wrote(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("run", "feed", {"v": 2})
        assert cache.load("run", "feed") == {"v": 2}


# ---------------------------------------------------------------------
# Satellite: stable error strings
# ---------------------------------------------------------------------


class TestStableErrorString:
    def test_code_and_message(self):
        text = stable_error_string(MemoryFault(0x40, "out of range"))
        assert text.startswith("MemoryFault")
        # Semantic addresses identify the fault and must survive.
        assert "memory fault at 0x40" in text

    def test_context_is_sorted(self):
        a = SimulationError("boom", code="RPR999", zulu=1, alpha=2)
        b = SimulationError("boom", code="RPR999", alpha=2, zulu=1)
        assert stable_error_string(a) == stable_error_string(b)
        assert "alpha=2, zulu=1" in stable_error_string(a)

    def test_memory_addresses_are_scrubbed(self):
        exc = SimulationError(
            "bad object <repro.cpu.memory.Memory object at 0x7f3a2b1c>")
        text = stable_error_string(exc)
        assert "0x7f3a2b1c" not in text
        assert "at 0x…" in text

    def test_identical_faults_compare_equal_across_backends(self):
        program_src = "L0:\nj L0\nhalt"
        from repro import CoreConfig, assemble

        program = assemble(program_src, name="spin")
        rendered = []
        for cls in (Core, LaneOfOne):
            try:
                cls(program, Memory(1 << 16),
                    config=CoreConfig(max_instructions=5)).run()
            except ReproError as exc:
                rendered.append(stable_error_string(exc))
        assert len(rendered) == 2
        assert rendered[0] == rendered[1]


# ---------------------------------------------------------------------
# Satellite: parity harness failure path (miscounting stub backend)
# ---------------------------------------------------------------------


class _MiscountingCore(LaneOfOne):
    """Deliberately inflates the cycle count by one."""

    def run(self):
        stats = super().run()
        stats.cycles += 1
        return stats


class TestParityFailurePath:
    def test_miscounting_backend_yields_readable_diff(self):
        with temporary_backend(Backend(
                name="miscount", core_cls=_MiscountingCore,
                supports_tracing=False,
                description="off-by-one cycle stub")):
            report = verify_parity(
                [RunConfig(workload="vecadd", mode="dyser",
                           scale="tiny")],
                candidate="miscount")
        assert not report.ok
        mismatch = report.mismatches[0]
        # Cycles drive derived energy keys too; the diff must name the
        # primary counter among the diverging keys it describes.
        assert "stats.cycles" in mismatch.keys
        described = mismatch.describe()
        assert "stats.cycles" in described or "energy." in described
        assert "reference=" in described and "candidate=" in described
        assert "miscount" in report.summary()

    def test_temporary_backend_unregisters_on_exit(self):
        from repro import backend_names, get_backend

        with temporary_backend(Backend("stub2", _MiscountingCore,
                                       False)):
            assert "stub2" in backend_names()
        assert "stub2" not in backend_names()
        with pytest.raises(WorkloadError):
            get_backend("stub2")

    def test_builtin_backends_cannot_be_unregistered(self):
        with pytest.raises(WorkloadError):
            unregister_backend("fast")
        with pytest.raises(WorkloadError):
            unregister_backend("reference")
        with pytest.raises(WorkloadError):
            unregister_backend("never-registered")

    def test_crashing_candidate_is_a_mismatch_not_a_harness_error(self):
        class _ExplodingCore(LaneOfOne):
            def run(self):
                raise SimulationError("synthetic fault", code="RPR998")

        with temporary_backend(Backend("exploder", _ExplodingCore,
                                       False)):
            report = verify_parity(
                [RunConfig(workload="vecadd", mode="dyser",
                           scale="tiny")],
                candidate="exploder")
        assert not report.ok
        assert report.mismatches[0].candidate == {
            "error": "SimulationError[RPR998]: synthetic fault"}
