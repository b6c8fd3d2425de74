"""The fuzz driver: generate, check, shrink, save, report.

One :func:`run_fuzz` call is a complete campaign: a deterministic case
stream from :class:`CaseGenerator`, the per-case differential oracles,
the chaos scenarios, shrinking of every finding, corpus persistence
and a JSON report.  The report is **byte-reproducible**: for the same
options (and unexhausted time budget) two runs produce identical
``to_dict()`` output — no wall-clock, no host state, no iteration-
order dependence.  That property is itself pinned by a test.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.harness.fuzz import corpus as corpus_mod
from repro.harness.fuzz.chaos import run_chaos
from repro.harness.fuzz.generator import CASE_KINDS, CaseGenerator
from repro.harness.fuzz.oracles import Finding, check_case
from repro.obs import MetricsRegistry, maybe_span

ALL_ORACLES = ("parity", "batched", "lint", "ir", "perfbound", "chaos",
               "dsl")
REPORT_FORMAT = "repro-fuzz-report-v1"

#: Which case kinds each per-case oracle applies to.  The ``dsl``
#: oracle is absent: its cases come from the dedicated
#: ``generate_dsl`` stream (a post-loop block, like chaos) so the main
#: case stream stays byte-identical across versions.
_ORACLE_KINDS = {
    "parity": ("scalar", "dyser"),
    "batched": ("scalar", "dyser"),
    "lint": ("dyser",),
    "ir": ("kernel",),
    "perfbound": ("scalar", "dyser"),
}

#: Oracles that accept a planted-mutant candidate class.
_CANDIDATE_ORACLES = ("parity", "batched")


@dataclass(frozen=True)
class FuzzOptions:
    """Knobs of one fuzz campaign (CLI flags map 1:1)."""

    seed: int = 0
    cases: int = 100
    time_budget_s: float | None = None
    oracles: tuple = ALL_ORACLES
    irregularity: float = 0.35
    shrink: bool = True
    #: Directory to persist shrunk findings into (None: don't persist).
    corpus_dir: str | None = None
    #: Candidate override for the parity/batched oracles — the
    #: self-check plants ``MutantBatchCore`` here.
    candidate_cls: type | None = None
    chaos_scenarios: tuple | None = None

    def __post_init__(self) -> None:
        bad = [o for o in self.oracles if o not in ALL_ORACLES]
        if bad:
            raise ValueError(
                f"unknown oracles {bad} (have: {', '.join(ALL_ORACLES)})")
        if not 0.0 <= self.irregularity <= 1.0:
            raise ValueError("irregularity must be in [0, 1]")
        if self.cases < 0:
            raise ValueError("cases must be >= 0")


@dataclass
class FuzzReport:
    """Outcome of one campaign, JSON-ready and reproducible."""

    seed: int
    requested_cases: int
    cases_run: int
    oracles: tuple
    irregularity: float
    kinds: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)
    corpus_entries: list = field(default_factory=list)
    truncated: bool = False
    #: Campaign counters (not serialized — values ride in the report).
    metrics: MetricsRegistry | None = field(default=None, repr=False,
                                            compare=False)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "seed": self.seed,
            "requested_cases": self.requested_cases,
            "cases_run": self.cases_run,
            "oracles": list(self.oracles),
            "irregularity": self.irregularity,
            "kinds": {k: self.kinds.get(k, 0) for k in CASE_KINDS},
            "findings": [f.to_dict() for f in self.findings],
            "corpus_entries": list(self.corpus_entries),
            "truncated": self.truncated,
        }

    def summary(self) -> str:
        mix = ", ".join(f"{self.kinds.get(k, 0)} {k}"
                        for k in CASE_KINDS)
        head = (f"fuzz seed={self.seed}: {self.cases_run}/"
                f"{self.requested_cases} cases ({mix}), "
                f"{len(self.findings)} findings")
        if self.truncated:
            head += " [time budget hit]"
        if self.ok:
            return head
        body = "\n".join("  " + f.describe() for f in self.findings)
        return f"{head}\n{body}"


def _record_finding(case, finding, oracle, candidate, options, report,
                    metrics, events) -> None:
    """Shrink, persist, and report one finding (shared by the main
    case loop and the dsl block)."""
    metrics.counter("fuzz.findings").inc()
    metrics.counter(f"fuzz.findings.{oracle}").inc()
    saved_case = case
    if options.shrink:
        with maybe_span(events, "fuzz.shrink", "fuzz"):
            saved_case = corpus_mod.shrink_case(
                case, lambda c: check_case(c, oracle, candidate))
        refreshed = check_case(saved_case, oracle, candidate)
        finding = refreshed or finding
        metrics.counter("fuzz.shrunk").inc()
    if options.corpus_dir:
        path = corpus_mod.save_entry(saved_case, finding,
                                     options.corpus_dir)
        report.corpus_entries.append(path.name)
    report.findings.append(finding)


def run_fuzz(options: FuzzOptions | None = None, *,
             metrics: MetricsRegistry | None = None,
             events=None) -> FuzzReport:
    """Run one fuzz campaign.  See the module docstring."""
    options = options or FuzzOptions()
    metrics = metrics or MetricsRegistry()
    generator = CaseGenerator(options.seed, options.irregularity)
    per_case = [o for o in options.oracles if o in _ORACLE_KINDS]
    report = FuzzReport(seed=options.seed,
                        requested_cases=options.cases,
                        cases_run=0,
                        oracles=tuple(options.oracles),
                        irregularity=options.irregularity,
                        metrics=metrics)
    deadline = (time.monotonic() + options.time_budget_s
                if options.time_budget_s else None)
    with maybe_span(events, "fuzz.cases", "fuzz") as span:
        for index in range(options.cases):
            if deadline is not None and time.monotonic() > deadline:
                report.truncated = True
                break
            case = generator.generate(index)
            report.cases_run += 1
            report.kinds[case.kind] = report.kinds.get(case.kind, 0) + 1
            metrics.counter("fuzz.cases").inc()
            metrics.counter(f"fuzz.cases.{case.kind}").inc()
            for oracle in per_case:
                if case.kind not in _ORACLE_KINDS[oracle]:
                    continue
                candidate = (options.candidate_cls
                             if oracle in _CANDIDATE_ORACLES else None)
                finding = check_case(case, oracle, candidate)
                if finding is None:
                    continue
                _record_finding(case, finding, oracle, candidate,
                                options, report, metrics, events)
        span["cases"] = report.cases_run
        span["findings"] = len(report.findings)
    if "dsl" in options.oracles and not report.truncated:
        # The dsl stream is sized off the main campaign (one dsl case
        # per four requested) and shares the time budget.
        n_dsl = max(1, options.cases // 4) if options.cases else 0
        with maybe_span(events, "fuzz.dsl", "fuzz") as span:
            for index in range(n_dsl):
                if deadline is not None and time.monotonic() > deadline:
                    report.truncated = True
                    break
                case = generator.generate_dsl(index)
                report.cases_run += 1
                report.kinds["dsl"] = report.kinds.get("dsl", 0) + 1
                metrics.counter("fuzz.cases").inc()
                metrics.counter("fuzz.cases.dsl").inc()
                finding = check_case(case, "dsl")
                if finding is not None:
                    _record_finding(case, finding, "dsl", None,
                                    options, report, metrics, events)
            span["findings"] = len(report.findings)
    if "chaos" in options.oracles and not report.truncated:
        with maybe_span(events, "fuzz.chaos", "fuzz") as span:
            chaos_findings = run_chaos(options.seed,
                                       options.chaos_scenarios)
            for _ in chaos_findings:
                metrics.counter("fuzz.findings").inc()
                metrics.counter("fuzz.findings.chaos").inc()
            report.findings.extend(chaos_findings)
            span["findings"] = len(chaos_findings)
    return report
