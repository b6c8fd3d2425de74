"""Tests for the CLI and the core's instruction trace."""

import pytest

from repro.cli import main
from repro.compiler import compile_scalar
from repro.cpu import Core, CoreConfig, Memory
from repro.obs.events import EventStream


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vecadd" in out and "irregular-control" in out

    def test_run_scalar(self, capsys):
        assert main(["run", "vecadd", "--mode", "scalar",
                     "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "cycles=" in out

    def test_run_dyser_reports_regions(self, capsys):
        assert main(["run", "saxpy", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "region" in out and "offloaded" in out
        assert "dyser" in out

    def test_compile_by_name(self, capsys):
        assert main(["compile", "--name", "dotprod"]) == 0
        out = capsys.readouterr().out
        assert "dinit" in out
        assert "configuration #0" in out

    def test_compile_scalar_flag(self, capsys):
        assert main(["compile", "--name", "dotprod", "--scalar"]) == 0
        out = capsys.readouterr().out
        assert "dinit" not in out

    def test_compile_dump_ir(self, capsys):
        assert main(["compile", "--name", "vecadd", "--dump-ir"]) == 0
        out = capsys.readouterr().out
        assert "function vecadd" in out

    def test_compile_from_file(self, tmp_path, capsys):
        src = tmp_path / "k.dy"
        src.write_text(
            "kernel k(out int y[], int a) { y[0] = a * a + 1; }")
        assert main(["compile", "--file", str(src)]) == 0
        out = capsys.readouterr().out
        assert "k.entry" in out

    def test_fpga(self, capsys):
        assert main(["fpga", "--width", "2", "--height", "2"]) == 0
        assert "dyser_2x2" in capsys.readouterr().out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestTrace:
    """The instruction trace: one ``cpu.issue`` event per issued
    instruction, with its pc and issue cycle."""

    SRC = """
    kernel f(out int y[], int n) {
        int s = 0;
        for (int i = 0; i < n; i = i + 1) { s = s + i; }
        y[0] = s;
    }
    """

    def run_traced(self, instructions=True):
        result = compile_scalar(self.SRC)
        memory = Memory(1 << 16)
        py = memory.alloc(1)
        events = EventStream()
        core = Core(result.program, memory,
                    config=CoreConfig(has_dyser=False), events=events,
                    trace_instructions=instructions)
        core.set_args((py, 5))
        stats = core.run()
        return result.program, events.by_category("cpu.issue"), stats

    def test_trace_disabled_by_default(self):
        _, issued, _ = self.run_traced(instructions=False)
        assert issued == []

    def test_trace_entries_structured(self):
        program, issued, _ = self.run_traced()
        cycles = [e.ts for e in issued]
        assert cycles == sorted(cycles)
        assert all(e.dur >= 1 for e in issued)
        for e in issued:
            assert e.name == program.instructions[e.args["pc"]].op.value

    def test_trace_covers_whole_run_when_large(self):
        program, issued, stats = self.run_traced()
        assert len(issued) == stats.instructions
        assert program.instructions[issued[-1].args["pc"]].text() == "halt"
