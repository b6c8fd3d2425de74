"""Wire format for the simulation service: JSON over HTTP/1.1.

The service speaks a small, versioned JSON protocol.  Request bodies
carry a ``spec`` object whose keys are :class:`repro.engine.jobs.
JobSpec` field names (``geometry`` as a ``[width, height]`` pair,
``energy_overrides`` as ``[[field, value], ...]``); everything else a
run needs — compiler options, fabric timing, energy model — derives
from the spec exactly as it does in the engine, so a request names the
same design point a :class:`JobSpec` does and shares its content hash.

Endpoints (every response but ``/metrics`` is a JSON envelope with an
``ok`` bool):

==============================  ====================================
``POST /v2/run``                execute one spec, block for its result
``POST /v2/lint``               pre-flight lint only, no execution
``POST /v2/jobs``               submit a durable async job (run/sweep)
``GET  /v2/jobs``               list jobs (``?state=`` / ``?tenant=``)
``GET  /v2/jobs/{id}``          poll one job: state, progress, results
``POST /v2/jobs/{id}/cancel``   cancel a queued/running job
``POST /v2/kernels``            register a DSL kernel
``GET  /v2/kernels``            list registered DSL kernels
``GET  /healthz``               readiness + queue/inflight gauges
``GET  /metrics``               Prometheus text exposition
==============================  ====================================

**Errors.**  Every failed request — refused by a handler, by the run
pipeline, or by the HTTP framing itself — is answered with one
normalized error object::

    {"protocol": "repro-service-v2", "ok": false,
     "error": {"code": "...", "message": "...",
               "diagnostics": [...], "retry_after_s": null}}

``code`` is a stable slug whose HTTP status :data:`ERROR_CODES` fixes,
``diagnostics`` carries structured RPR diagnostics when a lint gate
produced them, and ``retry_after_s`` mirrors the ``Retry-After`` header
on backpressure.  A run envelope (``POST /v2/run``, and each result of
a job) also carries ``status``, ``job_hash`` and ``latency_ms``, plus
``result`` when the run was served.
"""

from __future__ import annotations

import json
from dataclasses import fields as dataclass_fields

from repro.errors import ReproError
from repro.engine.jobs import RETIRED_KNOBS, JobSpec
from repro.engine.sweeps import SweepSpec

#: Protocol version tag carried in every response envelope.
PROTOCOL = "repro-service-v2"

#: Default TCP port for ``repro serve`` / ``repro submit``.
DEFAULT_PORT = 8787

#: Largest accepted request body (a sweep grid fits comfortably).
MAX_BODY_BYTES = 1 << 20

#: Most header lines accepted per request (as ``http.client`` caps
#: them); more is a 400 and a closed connection.
MAX_HEADER_LINES = 100

#: Terminal per-request statuses reported in run envelopes.
STATUS_EXECUTED = "executed"    # ran on the engine this request
STATUS_HIT = "hit"              # answered from the artifact cache
STATUS_COALESCED = "coalesced"  # shared an identical in-flight request
STATUS_REJECTED = "rejected"    # failed pre-flight lint (422)
STATUS_THROTTLED = "throttled"  # queue full or tenant over quota (429)
STATUS_FAILED = "failed"        # engine exhausted retries (500)
STATUS_EXPIRED = "expired"      # deadline passed while queued (504)
STATUS_DRAINING = "draining"    # server shutting down (503)
STATUS_DENIED = "denied"        # tenant not allowed (403)

#: Statuses of a run that was served (HTTP 200, ``result`` present).
SERVED_STATUSES = frozenset((STATUS_EXECUTED, STATUS_HIT,
                             STATUS_COALESCED))

#: Stable machine-readable error codes, one per failure class.
ERR_BAD_REQUEST = "bad-request"          # 400: malformed body/spec
ERR_TENANT_DENIED = "tenant-denied"      # 403: tenant not allowed
ERR_NOT_FOUND = "not-found"              # 404: unknown endpoint/job
ERR_METHOD = "method-not-allowed"        # 405
ERR_TOO_LARGE = "payload-too-large"      # 413
ERR_LINT_REJECTED = "lint-rejected"      # 422: pre-flight diagnostics
ERR_THROTTLED = "throttled"              # 429: queue/tenant quota
ERR_INTERNAL = "internal"                # 500: engine failure
ERR_UNAVAILABLE = "unavailable"          # 503: draining / no workers
ERR_EXPIRED = "deadline-expired"         # 504: queue-wait deadline

#: Every error code with its canonical HTTP status.
ERROR_CODES = {
    ERR_BAD_REQUEST: 400,
    ERR_TENANT_DENIED: 403,
    ERR_NOT_FOUND: 404,
    ERR_METHOD: 405,
    ERR_TOO_LARGE: 413,
    ERR_LINT_REJECTED: 422,
    ERR_THROTTLED: 429,
    ERR_INTERNAL: 500,
    ERR_UNAVAILABLE: 503,
    ERR_EXPIRED: 504,
}

#: Error code of every terminal status that is not served.
STATUS_ERROR_CODES = {
    STATUS_REJECTED: ERR_LINT_REJECTED,
    STATUS_THROTTLED: ERR_THROTTLED,
    STATUS_FAILED: ERR_INTERNAL,
    STATUS_EXPIRED: ERR_EXPIRED,
    STATUS_DRAINING: ERR_UNAVAILABLE,
    STATUS_DENIED: ERR_TENANT_DENIED,
}

_SPEC_FIELDS = frozenset(f.name for f in dataclass_fields(JobSpec))


class ProtocolError(ReproError):
    """A request the service refuses, answered with one error envelope.

    ``error_code`` (one of :data:`ERROR_CODES`, default 400
    ``bad-request``) picks the HTTP status; ``diagnostics`` and
    ``retry_after_s`` fill the matching fields of the error object.
    """

    def __init__(self, message: str, *, error_code: str = ERR_BAD_REQUEST,
                 diagnostics: list | None = None,
                 retry_after_s: float | None = None, **context) -> None:
        super().__init__(message, **context)
        self.error_code = error_code
        self.diagnostics = diagnostics
        self.retry_after_s = retry_after_s


def spec_from_payload(data: object) -> JobSpec:
    """Validate a JSON ``spec`` object into a :class:`JobSpec`.

    Unknown keys are rejected by name (a misspelled knob must never be
    silently dropped — the resulting spec would hash to a *different*
    design point than the caller asked for).  A retired knob
    (:data:`repro.engine.jobs.RETIRED_KNOBS`) is accepted at its one
    historic value only, so older payloads keep their hashes.  Value
    errors surface as :class:`ProtocolError` with the library's message.
    """
    if not isinstance(data, dict):
        raise ProtocolError(
            f"spec must be a JSON object, got {type(data).__name__}")
    kwargs = dict(data)
    for name, historic in RETIRED_KNOBS.items():
        if name in kwargs and kwargs.pop(name) is not historic:
            raise ProtocolError(
                f"spec.{name} was removed; only its historic value "
                f"{json.dumps(historic)} is accepted", field=name)
    unknown = sorted(set(kwargs) - _SPEC_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown spec field(s) {unknown}; "
            f"known fields: {sorted(_SPEC_FIELDS)}",
            unknown=unknown)
    if "workload" not in kwargs:
        raise ProtocolError("spec.workload is required")
    if "geometry" in kwargs:
        geometry = kwargs["geometry"]
        if (not isinstance(geometry, (list, tuple)) or len(geometry) != 2):
            raise ProtocolError(
                f"spec.geometry must be a [width, height] pair, "
                f"got {geometry!r}")
        kwargs["geometry"] = tuple(geometry)
    if "energy_overrides" in kwargs:
        overrides = kwargs["energy_overrides"]
        try:
            kwargs["energy_overrides"] = tuple(
                (str(name), value) for name, value in overrides)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"spec.energy_overrides must be [[field, value], ...], "
                f"got {overrides!r}") from None
    try:
        return JobSpec(**kwargs)
    except ReproError as exc:
        raise ProtocolError(f"bad spec: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad spec: {exc}") from exc


def spec_to_payload(spec: JobSpec) -> dict:
    """The JSON ``spec`` object for a :class:`JobSpec` (round-trips)."""
    payload = {}
    for f in dataclass_fields(JobSpec):
        payload[f.name] = getattr(spec, f.name)
    payload["geometry"] = list(spec.geometry)
    payload["energy_overrides"] = [list(p) for p in spec.energy_overrides]
    return payload


def parse_request_body(body: dict, *, want_spec: bool = True):
    """Split a request envelope into ``(spec, priority, timeout_s)``."""
    if not isinstance(body, dict):
        raise ProtocolError(
            f"request body must be a JSON object, "
            f"got {type(body).__name__}")
    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise ProtocolError(f"priority must be an integer, "
                            f"got {priority!r}")
    timeout_s = body.get("timeout_s")
    if timeout_s is not None:
        try:
            timeout_s = float(timeout_s)
        except (TypeError, ValueError):
            raise ProtocolError(
                f"timeout_s must be a number, got {timeout_s!r}") from None
        if timeout_s <= 0:
            raise ProtocolError(f"timeout_s must be > 0, got {timeout_s}")
    spec = None
    if want_spec:
        spec = spec_from_payload(body.get("spec"))
    return spec, priority, timeout_s


# -- response envelopes ------------------------------------------------


def envelope(ok: bool, **fields) -> dict:
    """The common response envelope all endpoints return."""
    return {"protocol": PROTOCOL, "ok": ok, **fields}


def error_object(code: str, message: str, *,
                 diagnostics: list | None = None,
                 retry_after_s: float | None = None) -> dict:
    """The normalized error object every failed request carries.

    All four keys are always present so consumers never need
    existence checks; ``diagnostics`` defaults to an empty list and
    ``retry_after_s`` to ``null``.
    """
    if code not in ERROR_CODES:
        code = ERR_INTERNAL
    return {
        "code": code,
        "message": message,
        "diagnostics": diagnostics or [],
        "retry_after_s": (round(float(retry_after_s), 3)
                          if retry_after_s is not None else None),
    }


def error_response(code: str, message: str, *,
                   diagnostics: list | None = None,
                   retry_after_s: float | None = None,
                   **fields) -> tuple[int, dict, dict | None]:
    """``(HTTP status, body, headers)`` for one normalized error.

    ``fields`` land next to ``error`` in the envelope (a failed run
    keeps its ``status``/``job_hash``/``latency_ms``); a
    ``retry_after_s`` hint also sets the ``Retry-After`` header.
    """
    err = error_object(code, message, diagnostics=diagnostics,
                       retry_after_s=retry_after_s)
    headers = None
    if retry_after_s is not None:
        headers = {"Retry-After": f"{float(retry_after_s):.3f}"}
    return (ERROR_CODES[err["code"]],
            envelope(False, **fields, error=err), headers)


def decode_body(data: bytes) -> dict:
    """A response body as a dict: JSON objects as-is, other JSON under
    ``body``, non-JSON text under ``text``."""
    if not data:
        return {}
    try:
        decoded = json.loads(data)
    except ValueError:
        return {"text": data.decode("utf-8", "replace")}
    return decoded if isinstance(decoded, dict) else {"body": decoded}


def run_response(status: str, payload: dict | None, *,
                 job_hash: str, latency_ms: float,
                 message: str | None = None,
                 diagnostics: list | None = None,
                 retry_after_s: float | None = None
                 ) -> tuple[int, dict, dict | None]:
    """``(HTTP status, run envelope, headers)`` for one run outcome."""
    fields = {"status": status, "job_hash": job_hash,
              "latency_ms": round(latency_ms, 3)}
    if status in SERVED_STATUSES:
        return 200, envelope(True, **fields, result=payload), None
    return error_response(STATUS_ERROR_CODES.get(status, ERR_INTERNAL),
                          message or status, diagnostics=diagnostics,
                          retry_after_s=retry_after_s, **fields)


# -- async job API ---------------------------------------------------

#: Job lifecycle states.  ``queued``/``running`` are live; the rest
#: are terminal.  A job interrupted by a restart replays from the
#: journal and re-enters ``queued`` (its completed points are kept).
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_SUCCEEDED = "succeeded"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_SUCCEEDED, JOB_FAILED,
              JOB_CANCELLED)
TERMINAL_JOB_STATES = frozenset(
    (JOB_SUCCEEDED, JOB_FAILED, JOB_CANCELLED))

#: Job kinds accepted by ``POST /v2/jobs``.
JOB_KIND_RUN = "run"
JOB_KIND_SWEEP = "sweep"

#: Request header naming the submitting tenant (defaults to
#: ``anonymous`` when absent).
TENANT_HEADER = "x-repro-tenant"
DEFAULT_TENANT = "anonymous"


#: Largest accepted DSL kernel source (single kernel, not a program).
MAX_KERNEL_SOURCE_BYTES = 64 * 1024


def parse_kernel_submission(body: dict) -> str:
    """Validate a ``POST /v2/kernels`` body; returns the DSL source.

    Only the transport shape is checked here — the language gate
    (:func:`repro.lang.check_source`) runs in the handler so its
    rejection carries structured RPR5xx diagnostics, not a 400.
    """
    if not isinstance(body, dict):
        raise ProtocolError(
            f"request body must be a JSON object, "
            f"got {type(body).__name__}")
    source = body.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError(
            "kernel submission requires a non-empty string 'source' "
            "field carrying the DSL text")
    if len(source.encode("utf-8")) > MAX_KERNEL_SOURCE_BYTES:
        raise ProtocolError(
            f"kernel source exceeds the {MAX_KERNEL_SOURCE_BYTES}-byte "
            f"limit", error_code=ERR_TOO_LARGE)
    return source


def parse_job_submission(body: dict):
    """Validate a ``POST /v2/jobs`` body.

    Returns ``(kind, spec_payloads, priority, timeout_s, label)``
    where ``spec_payloads`` is the list of serialized spec dicts the
    job expands to (one for a run, N for a sweep) — every spec is
    validated through :func:`spec_from_payload` before the job is
    accepted, so a journaled job can always be re-parsed on replay.
    """
    _, priority, timeout_s = parse_request_body(body, want_spec=False)
    label = body.get("label")
    if label is not None and not isinstance(label, str):
        raise ProtocolError(f"label must be a string, got {label!r}")
    if ("spec" in body) == ("sweep" in body):
        raise ProtocolError(
            "a job submission carries exactly one of 'spec' "
            "(single run) or 'sweep' (a SweepSpec object)")
    if "spec" in body:
        spec = spec_from_payload(body["spec"])
        return JOB_KIND_RUN, [spec_to_payload(spec)], priority, \
            timeout_s, label
    try:
        specs = SweepSpec.from_dict(body["sweep"]).jobs()
    except Exception as exc:  # bad field names/values
        raise ProtocolError(f"bad sweep: {exc}") from exc
    if not specs:
        raise ProtocolError("sweep expands to zero specs")
    return JOB_KIND_SWEEP, [spec_to_payload(s) for s in specs], \
        priority, timeout_s, label
