"""E11 — Static performance model accuracy (predicted vs measured).

The static performance-bound analyzer (:mod:`repro.analysis.perf`)
predicts every suite kernel's cycle count — and a sound lower bound —
by abstract interpretation alone, with zero simulation.  This benchmark
holds it to both contracts across every suite kernel x both modes at
the standard small scale:

- **accuracy** — mean absolute percentage error (MAPE) of the
  prediction vs the reference simulator, gated at
  :data:`MAPE_CEILING`;
- **soundness** — the static lower bound never exceeds measured
  cycles, anywhere.

Two entry points:

- ``pytest benchmarks/bench_e11_perfmodel.py --benchmark-only``
  measures and archives the table under ``results/e11.txt``;
- ``python benchmarks/bench_e11_perfmodel.py --check`` recomputes the
  gate for CI, printing the table either way: exit 1 on a violation or
  when the table differs from the committed ``results/e11.txt`` by a
  single byte (a walker change that moves any prediction, bound or
  bottleneck must regenerate the table in the same change).
"""

from __future__ import annotations

import difflib
import sys

from common import RESULTS_DIR, SCALE, emit, once

#: Acceptance ceiling for suite mean absolute percentage error.
MAPE_CEILING = 0.15


def measure():
    from repro import RunConfig, analyze_workload, run_workload
    from repro.workloads import SUITE

    rows = []
    errors = []
    unsound = []
    for name in sorted(SUITE):
        for mode in ("scalar", "dyser"):
            prediction = analyze_workload(name, mode=mode, scale=SCALE)
            result = run_workload(
                RunConfig(workload=name, mode=mode, scale=SCALE))
            measured = result.stats.cycles
            predicted = prediction.predicted_cycles
            ape = (abs(predicted - measured) / measured
                   if predicted is not None and measured else None)
            if ape is not None:
                errors.append(ape)
            if prediction.lower_bound > measured:
                unsound.append((name, mode, prediction.lower_bound,
                                measured))
            bottleneck = "-"
            if prediction.regions:
                worst = max(prediction.regions,
                            key=lambda r: r.invocations)
                bottleneck = worst.bottleneck
            rows.append([
                f"{name}/{mode}",
                str(predicted) if predicted is not None else "-",
                str(measured),
                str(prediction.lower_bound),
                f"{ape:.2%}" if ape is not None else "-",
                "yes" if prediction.exact else "no",
                bottleneck,
            ])
    mape = sum(errors) / len(errors) if errors else 1.0
    return rows, mape, unsound, len(errors)


def render(rows, mape, unsound, predicted_count) -> str:
    from repro.harness import format_table

    table = format_table(
        ["config", "predicted", "measured", "bound", "abs err",
         "exact", "bottleneck"],
        rows,
        title="E11: static performance model vs simulator "
              f"(scale={SCALE})",
    )
    lines = [
        table,
        "",
        f"configs predicted: {predicted_count}/{len(rows)}",
        f"suite MAPE: {mape:.2%} (ceiling {MAPE_CEILING:.0%})",
        f"bound violations: {len(unsound)}",
    ]
    return "\n".join(lines)


def validate(mape, unsound, predicted_count, total) -> list[str]:
    problems = []
    if predicted_count < total:
        problems.append(
            f"only {predicted_count}/{total} configs produced a "
            f"prediction")
    if mape > MAPE_CEILING:
        problems.append(
            f"suite MAPE {mape:.2%} exceeds ceiling "
            f"{MAPE_CEILING:.0%}")
    for name, mode, bound, measured in unsound:
        problems.append(
            f"UNSOUND bound: {name}/{mode} bound={bound} > "
            f"measured={measured}")
    return problems


def drift(text: str) -> list[str]:
    """The fresh table's differences from the committed one, if any."""
    committed = (RESULTS_DIR / "e11.txt").read_text()
    if committed == text + "\n":
        return []
    diff = difflib.unified_diff(
        committed.splitlines(), text.splitlines(),
        "results/e11.txt", "fresh", lineterm="")
    return ["table differs from the committed results/e11.txt:\n"
            + "\n".join(diff)]


def test_e11_perf_model(benchmark):
    rows, mape, unsound, predicted_count = once(benchmark, measure)
    emit("E11: static perf model",
         render(rows, mape, unsound, predicted_count))
    problems = validate(mape, unsound, predicted_count, len(rows))
    assert not problems, "; ".join(problems)


def main(argv) -> int:
    check = "--check" in argv
    rows, mape, unsound, predicted_count = measure()
    text = render(rows, mape, unsound, predicted_count)
    if check:
        print(text)
        drifted = drift(text)
        problems = validate(mape, unsound, predicted_count, len(rows))
        problems += drifted
        for problem in problems:
            print(f"GATE FAILURE: {problem}", file=sys.stderr)
        print(f"perf-model gate: MAPE {mape:.2%} <= "
              f"{MAPE_CEILING:.0%}, {len(unsound)} bound violations, "
              f"table {'differs from' if drifted else 'matches'} "
              f"results/e11.txt: {'FAIL' if problems else 'ok'}")
        return 1 if problems else 0
    emit("E11: static perf model", text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
