"""One-call workload profiling: traced runs plus renderable reports.

``repro profile <workload>`` is a thin CLI veneer over this module::

    from repro import RunConfig, profile_workload

    report = profile_workload(RunConfig(workload="mm", scale="tiny"))
    print(report.summary())                  # tables on stdout
    report.export("trace.json")              # open in ui.perfetto.dev

The heavy lifting lives elsewhere — :mod:`repro.harness` runs the
workload with :class:`~repro.obs.events.TraceOptions` enabled, and
:mod:`repro.obs.timeline` renders the recorded stream.  Imports of the
harness are deferred to call time because the harness itself imports
:mod:`repro.obs` (the observability layer sits *below* the run API).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, replace

from repro.obs.events import EventStream
from repro.obs.timeline import (
    invocation_table,
    phase_table,
    write_chrome_trace,
)


@dataclass
class ProfileReport:
    """A traced run plus its renderings."""

    result: object  # RunResult (typed loosely to keep imports lazy)

    @property
    def events(self) -> EventStream:
        return self.result.events

    # -- exports -------------------------------------------------------

    def export(self, path) -> pathlib.Path:
        """Write the Chrome trace JSON to ``path``; returns the path."""
        return write_chrome_trace(self.events, path, metadata={
            "workload": self.result.workload,
            "mode": self.result.mode,
            "scale": self.result.scale,
            "cycles": self.result.cycles,
        })

    # -- text renderings ----------------------------------------------

    def invocation_table(self, limit: int | None = 40) -> str:
        return invocation_table(self.events, limit=limit)

    def phase_table(self) -> str:
        return phase_table(self.events)

    def summary(self, limit: int | None = 40) -> str:
        """The full plain-text profile: run header, cycle accounting,
        named metrics, compiler phases, per-invocation attribution."""
        result = self.result
        lines = [
            f"profile {result.workload} [{result.mode}, {result.scale}]: "
            f"{'OK' if result.correct else 'WRONG RESULT'}",
            result.stats.summary(),
        ]
        metrics = result.stats.metrics
        if len(metrics):
            lines += ["", "metrics:", metrics.format()]
        lines += ["", self.phase_table()]
        if result.mode == "dyser":
            lines += ["", self.invocation_table(limit=limit)]
        events = self.events
        lines += ["", f"trace: {len(events)} events recorded"
                      + (f" ({events.dropped} dropped)"
                         if events.dropped else "")]
        return "\n".join(lines)


def profile_workload(config) -> ProfileReport:
    """Trace one :class:`~repro.harness.RunConfig` and wrap the result
    for rendering/export.  Tracing is forced on; the config's other
    :class:`TraceOptions` fields (capacity, category filter,
    per-instruction events) are kept."""
    from repro.harness.runner import run_workload

    traced = config.with_(trace=replace(config.trace, enabled=True))
    return ProfileReport(result=run_workload(traced))
