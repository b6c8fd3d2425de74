"""Differential backend-parity harness.

The batched backend's contract is *cycle-exact equality* with the
reference core: for any :class:`~repro.harness.config.RunConfig`, both
backends must report byte-identical run summaries
(:meth:`RunResult.to_dict`) — cycles, instructions, the full stall
breakdown, cache and DySER counters, energy, correctness.  This module
turns that contract into a checkable artifact:

    report = verify_parity([RunConfig(workload="mm", mode="dyser")])
    assert report.ok, report.summary()

``verify_parity`` executes every config once per backend and diffs the
summaries key-by-key; a mismatch records *which* keys diverge so test
failures point at the offending counter, not just "dicts differ".
``tests/test_fastcore.py`` runs it over the whole workload suite, and
the CI bench-smoke job runs it on a subset before timing anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError, stable_error_string
from repro.harness.config import RunConfig
from repro.harness.runner import run_workload


def _flatten(data: object, prefix: str = "") -> dict[str, object]:
    """Flatten nested dicts/lists into dotted-key leaves for diffing."""
    out: dict[str, object] = {}
    if isinstance(data, dict):
        for key in sorted(data):
            out.update(_flatten(data[key], f"{prefix}{key}."))
    elif isinstance(data, (list, tuple)):
        for i, item in enumerate(data):
            out.update(_flatten(item, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = data
    return out


def diff_summaries(a: dict, b: dict) -> list[str]:
    """Dotted keys whose values differ between two run summaries."""
    fa, fb = _flatten(a), _flatten(b)
    keys = sorted(set(fa) | set(fb))
    missing = object()
    return [k for k in keys if fa.get(k, missing) != fb.get(k, missing)]


@dataclass(frozen=True)
class ParityMismatch:
    """One config whose backends disagreed, with the diverging keys."""

    config: RunConfig
    keys: tuple[str, ...]
    reference: dict = field(compare=False, repr=False, default_factory=dict)
    candidate: dict = field(compare=False, repr=False, default_factory=dict)

    def describe(self) -> str:
        parts = []
        for key in self.keys[:8]:
            ref = _flatten(self.reference).get(key)
            cand = _flatten(self.candidate).get(key)
            parts.append(f"{key}: reference={ref!r} candidate={cand!r}")
        more = len(self.keys) - len(parts)
        if more > 0:
            parts.append(f"... and {more} more keys")
        return f"{self.config.describe()}\n  " + "\n  ".join(parts)


@dataclass(frozen=True)
class ParityReport:
    """Outcome of a differential parity sweep."""

    checked: int
    mismatches: tuple[ParityMismatch, ...]
    candidate: str
    reference: str

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        head = (f"parity {self.candidate} vs {self.reference}: "
                f"{self.checked} runs, {len(self.mismatches)} mismatches")
        if self.ok:
            return head
        body = "\n".join(m.describe() for m in self.mismatches)
        return f"{head}\n{body}"


def _outcome(config: RunConfig) -> dict:
    """One backend's observable outcome: the run summary, or — when the
    simulation faults — the *stable* rendering of the error.

    Raising is an observable behaviour too: a candidate that crashes
    where the reference completes (or crashes differently) is a parity
    mismatch, not a harness failure.  :func:`stable_error_string`
    strips memory addresses and orders context deterministically so
    identical faults always compare equal.
    """
    try:
        return run_workload(config).to_dict()
    except ReproError as exc:
        return {"error": stable_error_string(exc)}


def verify_parity(configs: list[RunConfig] | tuple[RunConfig, ...],
                  candidate: str = "batched",
                  reference: str = "reference") -> ParityReport:
    """Run every config on both backends and diff the summaries.

    Both runs share the config's seed/scale/knobs; only ``backend``
    differs.  Tracing is stripped (a traced run already resolves to the
    reference backend, which would make the check vacuous).  A backend
    that raises a :class:`ReproError` contributes an ``{"error": ...}``
    outcome instead of propagating — both backends must fault
    identically or the config is reported as a mismatch.
    """
    mismatches: list[ParityMismatch] = []
    for config in configs:
        base = config.with_(trace=config.trace.__class__())
        ref = _outcome(base.with_(backend=reference))
        cand = _outcome(base.with_(backend=candidate))
        if ref != cand:
            mismatches.append(ParityMismatch(
                config=base, keys=tuple(diff_summaries(ref, cand)),
                reference=ref, candidate=cand))
    return ParityReport(checked=len(configs),
                        mismatches=tuple(mismatches),
                        candidate=candidate, reference=reference)


def suite_configs(scale: str = "tiny", seed: int = 7,
                  modes: tuple[str, ...] = ("scalar", "dyser"),
                  workloads: tuple[str, ...] | None = None,
                  ) -> list[RunConfig]:
    """The default parity corpus: every registered workload × mode."""
    from repro.workloads import names as workload_names

    names = workloads if workloads is not None else workload_names()
    return [RunConfig(workload=w, mode=m, scale=scale, seed=seed)
            for w in names for m in modes]
