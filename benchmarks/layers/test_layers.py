"""Self-test of the layer benchmark at its smoke size (about 40 s).

    pytest benchmarks/layers

Runs ``run.py --smoke`` twice at one seed, traced and untraced, and
checks the output contract, the tracer and the comparison method.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import tracer  # noqa: E402

SEED = 7


def _run(tmp: pathlib.Path, trace: int) -> tuple[str, list[dict]]:
    records = tmp / f"trace{trace}.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed",
         str(SEED), "--trace", str(trace), "--trace-dir",
         str(tmp / "traces"), "--json", str(records)],
        capture_output=True, text=True, timeout=150)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, [json.loads(line)
                         for line in records.read_text().splitlines()]


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("layers")
    return {"traced": _run(tmp, 1), "plain": _run(tmp, 0), "tmp": tmp}


def _sections(stdout: str) -> dict[str, set[tuple[str, str]]]:
    """``name unit`` pairs printed with a numeric value, per workload."""
    sections: dict[str, set] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = sections.setdefault(line.split()[1], set())
            continue
        parts = line.split()
        if current is None or len(parts) < 3:
            continue
        try:
            float(parts[2])
        except ValueError:
            continue
        current.add((parts[0], parts[1]))
    return sections


def test_every_declared_metric_is_printed_with_its_unit(runs, spec):
    names = [w["name"] for w in spec["workloads"]]
    declared = {(m["name"], m["unit"])
                for m in spec["end_to_end"] + spec["per_layer"]}
    traced = _sections(runs["traced"][0])
    assert sorted(traced) == sorted(names)
    for workload, printed in traced.items():
        assert declared <= printed, (workload, declared - printed)
    plain = _sections(runs["plain"][0])
    for printed in plain.values():
        assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} \
            <= printed
    for stdout, kind in ((runs["traced"][0], "per_layer"),
                         (runs["plain"][0], "end_to_end")):
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == {
            f"{w}/{m['name']}" for w in names for m in spec[kind]}
        for value in last["metrics"].values():
            assert isinstance(value["value"], (int, float))


def test_no_operation_fails(runs):
    for records in (runs["traced"][1], runs["plain"][1]):
        for record in records:
            assert record["attempted"] >= 1
            assert record["failed"] == 0, record["errors"]
            assert record["correct"]
    assert "failed_share ratio 0.0" in runs["plain"][0]


def test_every_tracer_site_fires(runs):
    fired: dict[str, int] = {}
    for record in runs["traced"][1]:
        for key, count in record["fired"].items():
            fired[key] = fired.get(key, 0) + count
    silent = [key for key in tracer.site_keys() if not fired.get(key)]
    assert not silent, f"sites no caller reaches any more: {silent}"


def test_self_times_nest(runs):
    for record in runs["traced"][1]:
        assert record["violations"] == []
        for name, row in record["layers"].items():
            assert 0 <= row["self_s"] <= row["total_s"] + 1e-9, name
    for workload in {r["workload"] for r in runs["traced"][1]}:
        assert (runs["tmp"] / "traces" / f"{workload}.json").exists()


def test_same_seed_gives_identical_exact_counts(runs):
    traced = {r["workload"]: r for r in runs["traced"][1]}
    for record in runs["plain"][1]:
        other = traced[record["workload"]]
        assert record["exact"] == other["exact"] == other["traced_exact"]
        assert (record["results_sha256"] == other["results_sha256"]
                == other["traced_results_sha256"])


def test_compare_flags_changed_exact_counts(runs, tmp_path, capsys):
    parent = tmp_path / "parent.jsonl"
    change = tmp_path / "change.jsonl"
    records = list(runs["plain"][1])
    parent.write_text("".join(json.dumps(r) + "\n" for r in records))
    records[0] = dict(records[0], exact=dict(
        records[0]["exact"], **{"cpu.sim_cycles": -1}))
    change.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert compare.main([str(parent), str(change)]) == 1
    assert "EXACT CHANGED" in capsys.readouterr().out
    records = list(runs["plain"][1])
    change.write_text("".join(json.dumps(r) + "\n" for r in records))
    compare.main([str(parent), str(change)])
    assert "EXACT CHANGED" not in capsys.readouterr().out


def test_compare_withholds_gains_from_failing_runs(runs, tmp_path, capsys):
    parent = tmp_path / "parent.jsonl"
    change = tmp_path / "change.jsonl"
    base = runs["plain"][1][0]
    faster = dict(base, metrics=dict(
        base["metrics"], ops_per_s=2 * base["metrics"]["ops_per_s"]))
    parent.write_text("".join(json.dumps(base) + "\n" for _ in range(10)))
    change.write_text("".join(json.dumps(faster) + "\n" for _ in range(10)))
    assert compare.main([str(parent), str(change)]) == 0
    assert "improved" in capsys.readouterr().out
    broken = dict(faster, failed=1, correct=False)
    change.write_text(json.dumps(broken) + "\n" + "".join(
        json.dumps(faster) + "\n" for _ in range(9)))
    assert compare.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "improved" not in out


@pytest.mark.parametrize("parent, change, better, expected", [
    ([100 + i for i in range(10)], [80 + i for i in range(10)], "lower",
     "improved"),
    ([100 + i for i in range(10)], [120 + i for i in range(10)], "lower",
     "worse"),
    ([100 + i for i in range(10)], [101 + i for i in range(10)], "lower",
     "unchanged"),
    ([60, 140] * 5, [50, 150] * 5, "higher", "unresolved"),
    ([100 + i for i in range(5)], [80 + i for i in range(5)], "lower",
     "unchanged"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1)[0] == expected
