"""Differential oracles: what makes a generated case a *finding*.

Five per-case oracles plus the planted-mutation cores used by the
self-check:

- **parity** — run the case on the reference core and as a lane of one
  on the batched core; any difference in the full summary (stats,
  registers, touched scratch memory) or in the error outcome is a
  finding.  Raising is an outcome too: both must fault with the same
  stable error string.
- **lint** — static/dynamic agreement.  A run that crashes with no
  error-severity lint diagnostic is a finding (the linter missed it);
  a lint diagnostic from the *must-crash* set on a run that completes
  cleanly is a finding in the other direction.  Codes outside that set
  (capacity RPR213, style RPR205/RPR214) are advisory: the validator
  deliberately accepts abstract configs the linter flags.
- **ir** — kernels must compile in both modes with the pass verifier
  on, and the verifier must be observer-only: identical listings, IR
  dumps and configurations with ``verify_passes`` on and off.
- **batched** — run the case as one multi-point lockstep lane
  (differing per-point knobs) and demand each point reproduce its
  reference run exactly, evicted points included via the harness's
  lane-of-one fallback.
- **perfbound** — the static performance analyzer's lower bound must
  never exceed a lane of one's measured cycles, and an ``exact`` walk
  must predict them exactly.
- **dsl** — the kernel-DSL pipeline (``repro.lang``) must fail closed:
  validation never raises, every rejection carries stable ``RPR5xx``
  codes (planted mutants tripping their specific code), and anything
  accepted must lower and run correctly in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import lint_config
from repro.cpu import BatchCore, Core, CoreConfig, Memory
from repro.dyser import ConfigCacheParams, DyserDevice, DyserTimingParams
from repro.dyser.serialize import config_from_dict, config_to_dict
from repro.errors import ReproError, stable_error_string
from repro.harness.fuzz.generator import (
    _BASE,
    DSL_MUTATIONS,
    FuzzCase,
    default_fabric,
)
from repro.harness.parity import diff_summaries
from repro.isa import assemble

#: Lint codes whose error-severity firing *must* coincide with a
#: simulator rejection: arity (RPR201), undefined node (RPR202), no
#: outputs (RPR203), cycle (RPR204), port out of range (RPR206).
#: Everything else error-severity is lint-only by design (e.g. fabric
#: capacity RPR213 on abstract configs).
MUST_CRASH_CODES = frozenset(
    {"RPR201", "RPR202", "RPR203", "RPR204", "RPR206"})


@dataclass(frozen=True)
class Finding:
    """One oracle violation, reproducible from ``(seed, index)``."""

    oracle: str     # parity | lint | ir | chaos | replay
    case_key: str   # "s<seed>-i<index>", or the chaos scenario name
    kind: str       # machine tag: summary-mismatch, crash-not-predicted...
    detail: str
    seed: int = 0
    index: int = -1

    def describe(self) -> str:
        return f"[{self.oracle}] {self.case_key} {self.kind}: {self.detail}"

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "case_key": self.case_key,
            "kind": self.kind,
            "detail": self.detail,
            "seed": self.seed,
            "index": self.index,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(oracle=data["oracle"], case_key=data["case_key"],
                   kind=data["kind"], detail=data["detail"],
                   seed=int(data.get("seed", 0)),
                   index=int(data.get("index", -1)))


class MutantBatchCore(BatchCore):
    """BatchCore with a planted off-by-one in the memory-access timing.

    The fuzz self-check pits this against the reference: any generated
    program that touches memory diverges in ``stats.cycles``, so the
    harness must catch it, shrink it, and produce a corpus entry that
    replays red against this core and green against the real one.  The
    parity oracle runs it as a lane of one; the batched oracle plants
    it in the three-point lane while the replays of evicted points stay
    on the real core.
    """

    def _data_access(self, addr: int, is_write: bool = False) -> int:
        return Core._data_access(self, addr, is_write) + 1


def build_program(case: FuzzCase):
    """Assemble the case and attach its configurations unvalidated —
    validation is the simulator's job and exactly what the lint oracle
    cross-examines."""
    program = assemble(case.source, name=f"fuzz-{case.key}")
    for payload in case.configs:
        program.dyser_configs[payload["config_id"]] = (
            config_from_dict(payload, default_fabric(), validate=False))
    return program


def _summary(core, memory, stats) -> dict:
    """Everything observable after a run: stats, both register files,
    and the scratch window every generated program confines its memory
    traffic to.  Floats are rendered with ``repr`` so the comparison
    is exact (and NaN-proof) rather than ``==``-based."""
    return {
        "stats": stats.to_dict(),
        "iregs": list(core.iregs._regs),
        "fregs": [repr(v) for v in core.fregs._regs],
        "mem": [repr(memory.load_word(_BASE + 8 * i))
                for i in range(32)],
    }


def run_case(case: FuzzCase, core_cls: type = Core, config=None,
             timing=None, cache_params=None) -> tuple[str, object]:
    """``("ok", summary)`` or ``("error", stable_error_string)`` for
    one point; a :class:`BatchCore` subclass runs it as a lane of one."""
    try:
        program = build_program(case)
        memory = Memory(1 << 16)
        device = DyserDevice(fabric=default_fabric(),
                             timing=timing or DyserTimingParams(),
                             cache_params=cache_params
                             or ConfigCacheParams())
        if issubclass(core_cls, BatchCore):
            core = core_cls(program, memory, [device],
                            [config or CoreConfig()])
            [stats] = core.run()
        else:
            core = core_cls(program, memory, dyser=device, config=config)
            stats = core.run()
        return ("ok", _summary(core, memory, stats))
    except ReproError as exc:
        return ("error", stable_error_string(exc))


def _render_diff(ref: dict, cand: dict, keys: list[str],
                 limit: int = 4) -> str:
    from repro.harness.parity import _flatten

    fr, fc = _flatten(ref), _flatten(cand)
    parts = [f"{k}: reference={fr.get(k)!r} candidate={fc.get(k)!r}"
             for k in keys[:limit]]
    if len(keys) > limit:
        parts.append(f"... and {len(keys) - limit} more keys")
    return "; ".join(parts)


def parity_oracle(case: FuzzCase,
                  candidate_cls: type | None = None) -> Finding | None:
    """Reference vs a lane of one (or a planted-mutant candidate)."""
    ref = run_case(case, Core)
    cand = run_case(case, candidate_cls or BatchCore)
    if ref == cand:
        return None
    if ref[0] == "ok" and cand[0] == "ok":
        keys = diff_summaries(ref[1], cand[1])
        kind, detail = "summary-mismatch", _render_diff(ref[1], cand[1],
                                                        keys)
    elif ref[0] != cand[0]:
        kind = "outcome-mismatch"
        detail = f"reference={ref[0]} candidate={cand[0]}: {cand[1]!r}"
    else:
        kind = "error-mismatch"
        detail = f"reference={ref[1]} candidate={cand[1]}"
    return Finding("parity", case.key, kind, detail,
                   seed=case.seed, index=case.index)


#: Per-point knob grid the batched oracle runs as one lane: exactly
#: the kinds of variation a real sweep packs into a batch — the two
#: per-point CoreConfig fields plus per-device FIFO/II/config-cache
#: knobs.  Point 2's tight instruction limit makes longer cases evict
#: mid-batch, exercising split-and-fallback against live siblings.
_BATCH_POINTS = (
    ({}, {}, {}),
    ({"vector_port_words_per_cycle": 1},
     {"input_fifo_depth": 2, "initiation_interval": 2},
     {"capacity": 1}),
    ({"max_instructions": 250}, {"output_fifo_depth": 2}, {}),
)


def batched_oracle(case: FuzzCase,
                   candidate_cls: type | None = None) -> Finding | None:
    """Batched lockstep vs the reference, point by point.

    The case runs once as a three-point lane (:data:`_BATCH_POINTS`)
    and every point's summary — or error string — must match a
    reference run with identical knobs.  Evicted points are replayed as
    lanes of one on the real core, just like the harness fallback, so
    what this oracle really pins down is the lockstep machinery: shared
    functional state, per-point timing vectors, and eviction leaving
    siblings unpoisoned.

    ``candidate_cls`` swaps the lane core (the self-check plants
    :class:`MutantBatchCore`).
    """
    if case.kind not in ("scalar", "dyser"):
        return None
    batch_cls = candidate_cls or BatchCore
    points = [(CoreConfig(**ck), DyserTimingParams(**tk),
               ConfigCacheParams(**pk))
              for ck, tk, pk in _BATCH_POINTS]
    expected = [run_case(case, Core, *point) for point in points]
    shared = None
    try:
        program = build_program(case)
        memory = Memory(1 << 16)
        devices = [DyserDevice(fabric=default_fabric(), timing=timing,
                               cache_params=cache_params)
                   for _, timing, cache_params in points]
        core = batch_cls(program, memory, devices,
                         [config for config, _, _ in points])
        stats_list = core.run()
        shared = (core, memory)
    except ReproError:
        # A setup/shared fault evicts the whole lane; solo replay (the
        # fallback below) must reproduce each point's exact outcome.
        stats_list = [None] * len(points)
    for p, stats in enumerate(stats_list):
        got = (run_case(case, BatchCore, *points[p])
               if stats is None
               else ("ok", _summary(shared[0], shared[1], stats)))
        exp = expected[p]
        if got == exp:
            continue
        if exp[0] == "ok" and got[0] == "ok":
            keys = diff_summaries(exp[1], got[1])
            kind = "summary-mismatch"
            detail = f"point {p}: " + _render_diff(exp[1], got[1], keys)
        elif exp[0] != got[0]:
            kind = "outcome-mismatch"
            detail = (f"point {p}: reference={exp[0]} "
                      f"batched={got[0]}: {got[1]!r}")
        else:
            kind = "error-mismatch"
            detail = f"point {p}: reference={exp[1]} batched={got[1]}"
        return Finding("batched", case.key, kind, detail,
                       seed=case.seed, index=case.index)
    return None


def lint_case(case: FuzzCase) -> set[str]:
    """Error-severity diagnostic codes across the case's configs."""
    predicted: set[str] = set()
    for payload in case.configs:
        report = lint_config(
            config_from_dict(payload, default_fabric(), validate=False))
        predicted |= {d.code for d in report.errors}
    return predicted


def lint_oracle(case: FuzzCase) -> Finding | None:
    """Lint-vs-crash agreement (dyser cases only)."""
    if case.kind != "dyser":
        return None
    predicted = lint_case(case)
    outcome = run_case(case, Core)
    crashed = outcome[0] == "error"
    if crashed and not predicted:
        return Finding(
            "lint", case.key, "crash-not-predicted",
            f"run crashed ({outcome[1]}) but lint reported no errors",
            seed=case.seed, index=case.index)
    must_crash = predicted & MUST_CRASH_CODES
    if not crashed and must_crash:
        return Finding(
            "lint", case.key, "predicted-crash-ran-clean",
            f"lint reported {sorted(must_crash)} but the run completed",
            seed=case.seed, index=case.index)
    return None


def _compile_fingerprint(result) -> str:
    """A stable rendering of everything a compile produces."""
    configs = "\n".join(
        repr(sorted(config_to_dict(c).items()))
        for _, c in sorted(result.program.dyser_configs.items()))
    return f"{result.program.listing()}\n--\n{result.ir_dump}\n--\n{configs}"


def ir_oracle(case: FuzzCase) -> Finding | None:
    """Compiler acceptance + verifier-is-observer-only (kernel cases)."""
    if case.kind != "kernel":
        return None
    from repro.compiler import CompilerOptions, compile_dyser, compile_scalar

    # The fuzz fabric and a small unroll keep the spatial scheduler
    # fast (the default 8x8/unroll-8 routing costs seconds per kernel)
    # while still exercising every pass the verifier watches.
    def options(verify: bool) -> CompilerOptions:
        return CompilerOptions(fabric=default_fabric(), unroll=2,
                               verify_passes=verify)

    try:
        compile_scalar(case.source, verify=True)
        verified = compile_dyser(case.source, options(True))
        plain = compile_dyser(case.source, options(False))
    except ReproError as exc:
        return Finding("ir", case.key, "compile-failure",
                       stable_error_string(exc),
                       seed=case.seed, index=case.index)
    if _compile_fingerprint(verified) != _compile_fingerprint(plain):
        return Finding(
            "ir", case.key, "verifier-not-observer-only",
            "listing/IR/configs differ with verify_passes on vs off",
            seed=case.seed, index=case.index)
    return None


def perfbound_oracle(case: FuzzCase) -> Finding | None:
    """Static prediction vs a lockstep run (scalar + dyser cases).

    Holds the perf analyzer to its two contracts on every generated
    program whose run completes:

    - **soundness** — the static lower bound never exceeds the
      measured cycle count;
    - **exactness** — a walk that claims ``exact`` must predict the
      measured cycles, well, exactly.

    The walk runs the reference core's own loop, so the measured side
    is the independent implementation: a :class:`BatchCore` lane of
    one.  The analyzer crashing on a case the simulator accepts is a
    finding too: static analysis must be total over valid programs.
    """
    from repro.analysis.perf import analyze_program

    outcome = run_case(case, BatchCore)
    if outcome[0] != "ok":
        return None
    measured = outcome[1]["stats"]["cycles"]
    try:
        prediction = analyze_program(build_program(case),
                                     fabric=default_fabric(),
                                     subject=case.key)
    except ReproError as exc:
        return Finding(
            "perfbound", case.key, "analyzer-crash",
            f"run ok but analyze_program raised: "
            f"{stable_error_string(exc)}",
            seed=case.seed, index=case.index)
    if prediction.lower_bound > measured:
        return Finding(
            "perfbound", case.key, "bound-unsound",
            f"static lower bound {prediction.lower_bound} exceeds "
            f"measured {measured} cycles",
            seed=case.seed, index=case.index)
    if prediction.exact and prediction.predicted_cycles != measured:
        return Finding(
            "perfbound", case.key, "exact-walk-mismatch",
            f"walk claimed exact but predicted "
            f"{prediction.predicted_cycles} vs measured {measured}",
            seed=case.seed, index=case.index)
    return None


def dsl_oracle(case: FuzzCase) -> Finding | None:
    """The kernel-DSL pipeline contract (dsl cases only).

    Four promises, cross-examined on every generated case:

    - ``check_source`` never raises — bad input yields diagnostics,
      not exceptions (``harness-crash`` otherwise);
    - every rejection carries only stable ``RPR5xx`` codes, and a
      planted mutant's rejection includes the *specific* code its
      breakage must trip (``rejection-without-rpr5xx`` /
      ``wrong-code``);
    - the gate is exact: planted mutants never pass
      (``mutant-accepted``) and unmutated grammatical kernels never
      get rejected (``legal-rejected``);
    - whatever passes the gate actually runs: the lowered workload
      must complete correctly in both scalar and dyser mode
      (``accepted-crashed`` / ``accepted-incorrect``).
    """
    if case.kind != "dsl":
        return None
    from repro.lang import check_source, lower_spec

    try:
        spec, report = check_source(case.source)
    except Exception as exc:  # noqa: BLE001 — the contract under test
        return Finding(
            "dsl", case.key, "harness-crash",
            f"check_source raised {type(exc).__name__}: {exc}",
            seed=case.seed, index=case.index)
    if spec is None:
        codes = sorted({d.code for d in report.errors})
        if not codes or not all(c.startswith("RPR5") for c in codes):
            return Finding(
                "dsl", case.key, "rejection-without-rpr5xx",
                f"rejected with codes {codes}",
                seed=case.seed, index=case.index)
        if not case.expect_error:
            return Finding(
                "dsl", case.key, "legal-rejected",
                f"unmutated source rejected with {codes}",
                seed=case.seed, index=case.index)
        planted = DSL_MUTATIONS.get(case.label.split("/", 1)[-1])
        if planted is not None and planted not in codes:
            return Finding(
                "dsl", case.key, "wrong-code",
                f"{case.label} must trip {planted}; got {codes}",
                seed=case.seed, index=case.index)
        return None
    if case.expect_error:
        return Finding(
            "dsl", case.key, "mutant-accepted",
            f"planted {case.label} passed validation",
            seed=case.seed, index=case.index)
    from repro.harness import RunConfig, run_workload
    from repro.workloads import SUITE
    from repro.workloads.suite import register_workload

    workload = lower_spec(spec)
    register_workload(workload, replace=True)
    try:
        for mode in ("scalar", "dyser"):
            try:
                result = run_workload(RunConfig(
                    workload=workload.name, mode=mode, scale="tiny"))
            except ReproError as exc:
                return Finding(
                    "dsl", case.key, "accepted-crashed",
                    f"{mode}: {stable_error_string(exc)}",
                    seed=case.seed, index=case.index)
            except Exception as exc:  # noqa: BLE001
                return Finding(
                    "dsl", case.key, "harness-crash",
                    f"{mode} run raised {type(exc).__name__}: {exc}",
                    seed=case.seed, index=case.index)
            if not result.correct:
                return Finding(
                    "dsl", case.key, "accepted-incorrect",
                    f"{mode} run produced a wrong result",
                    seed=case.seed, index=case.index)
    finally:
        # Keep the process-wide suite clean: fuzz kernels are
        # throwaway, not registrations.
        SUITE.pop(workload.name, None)
    return None


#: Oracle dispatch used by the driver and by corpus replay.
def check_case(case: FuzzCase, oracle: str,
               candidate_cls: type | None = None) -> Finding | None:
    if oracle == "parity":
        return parity_oracle(case, candidate_cls)
    if oracle == "batched":
        return batched_oracle(case, candidate_cls)
    if oracle == "lint":
        return lint_oracle(case)
    if oracle == "ir":
        return ir_oracle(case)
    if oracle == "perfbound":
        return perfbound_oracle(case)
    if oracle == "dsl":
        return dsl_oracle(case)
    raise ValueError(f"unknown per-case oracle {oracle!r}")
