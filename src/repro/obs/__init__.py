"""Observability layer: structured tracing, metrics, timeline export.

The three pillars, all zero-cost when tracing is off:

- :mod:`repro.obs.events` — ring-buffered structured event stream
  (spans, instants, counters) with two clock domains: simulator cycles
  and host wall time.  Instrumentation sites in the core, the DySER
  device, the compiler driver and the engine all write here, each
  guarded by an ``if events is not None`` check;
- :mod:`repro.obs.metrics` — named counter/gauge/histogram registry
  that :class:`repro.cpu.ExecStats` carries, so new subsystem counters
  need no dataclass or serializer edits;
- :mod:`repro.obs.timeline` — export to Chrome/Perfetto
  ``trace_event`` JSON plus plain-text tables, including the
  per-invocation cycle-attribution table (a finer-grained E3);
- :mod:`repro.obs.profile` — one-call traced runs behind
  ``repro profile <workload>``.

Tracing attaches at the run API: pass
``RunConfig(..., trace=TraceOptions(enabled=True))``, or
``config.traced()``, to :func:`repro.run_workload`.
"""

from repro.obs.events import (
    COMPLETE,
    COUNTER,
    CYCLES,
    INSTANT,
    WALL,
    Event,
    EventStream,
    TraceOptions,
    maybe_span,
)
from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricError,
    MetricsRegistry,
)
from repro.obs.profile import ProfileReport, profile_workload
from repro.obs.timeline import (
    invocation_rows,
    invocation_table,
    phase_table,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "COMPLETE",
    "COUNTER",
    "CYCLES",
    "CounterMetric",
    "Event",
    "EventStream",
    "GaugeMetric",
    "HistogramMetric",
    "INSTANT",
    "MetricError",
    "MetricsRegistry",
    "ProfileReport",
    "TraceOptions",
    "WALL",
    "invocation_rows",
    "invocation_table",
    "maybe_span",
    "phase_table",
    "profile_workload",
    "to_chrome_trace",
    "write_chrome_trace",
]
