"""Structured diagnostics: stable codes, severities, text+JSON rendering.

Every static-analysis finding in this repo is a :class:`Diagnostic` with
a stable code from one of these banks:

- ``RPR1xx`` — compiler-IR verifier (:mod:`repro.analysis.verifier`);
- ``RPR2xx`` — DFG/configuration/job-spec linter
  (:mod:`repro.analysis.lint`, :mod:`repro.analysis.speclint`);
- ``RPR3xx`` — control-flow shape advisories
  (:mod:`repro.compiler.shapes`), the paper's E7 finding as tool output;
- ``RPR4xx`` — static performance attribution (:mod:`repro.analysis.perf`);
- ``RPR5xx`` — kernel source checks: tokenize, parse and the type check
  of both kernel languages (:mod:`repro.compiler.typecheck`), and the
  DSL's header and region checks (:mod:`repro.lang.validate`).

Codes are *stable*: once shipped, a code keeps its meaning so scripts,
CI greps and suppression lists never rot.  The registry below is the
single source of truth; :func:`describe_code` and the rendered output
both read it.  A :class:`DiagnosticReport` aggregates findings from any
number of analyses and renders them as aligned text or JSON.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator


class Severity(enum.Enum):
    """How bad a finding is.

    ERROR: the artifact is ill-formed; running it would be garbage.
    WARNING: legal but almost certainly not what was intended.
    NOTE: advisory context (e.g. why a region fell back to scalar).
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "note": 0}[self.value]


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one diagnostic code."""

    code: str
    title: str
    severity: Severity


def _bank(sev: Severity, entries: dict[str, str]) -> list[CodeInfo]:
    return [CodeInfo(code, title, sev) for code, title in entries.items()]


#: The full diagnostic-code registry.  Append-only by convention.
CODES: dict[str, CodeInfo] = {
    info.code: info
    for info in (
        # -- RPR1xx: IR verifier ---------------------------------------
        *_bank(Severity.ERROR, {
            "RPR101": "block has no terminator",
            "RPR102": "edge to unknown block",
            "RPR103": "value defined more than once",
            "RPR104": "use of undefined value",
            "RPR105": "use not dominated by its definition",
            "RPR106": "phi incomings do not match predecessors",
            "RPR108": "dyser_init references unknown configuration",
            "RPR109": "interface port not in the active configuration",
            "RPR110": "configuration port has no matching send/recv",
            "RPR111": "DySER interface op with no active configuration",
        }),
        *_bank(Severity.WARNING, {
            "RPR107": "unreachable block",
        }),
        # -- RPR2xx: DFG / configuration linter ------------------------
        *_bank(Severity.ERROR, {
            "RPR201": "node arity mismatch",
            "RPR202": "input reads undefined node",
            "RPR203": "DFG has no outputs",
            "RPR204": "combinational loop in the circuit-switched mesh",
            "RPR206": "port exceeds the fabric's port count",
            "RPR207": "node not placed",
            "RPR208": "FU hosts two nodes",
            "RPR209": "FU lacks the capability for its op",
            "RPR210": "malformed route",
            "RPR211": "routing conflict: link carries two signals",
            "RPR212": "unrouted sink in a concrete configuration",
            "RPR213": "fabric capacity exceeded",
            "RPR214": "output port driven by a constant",
            "RPR216": "no free FU supports the op",
            "RPR217": "routing congestion did not resolve",
            "RPR218": "signals exceed the links across a fabric cut",
        }),
        *_bank(Severity.WARNING, {
            "RPR205": "dead node: output reaches no output port",
        }),
        # -- RPR25x: job-spec pre-flight lint --------------------------
        *_bank(Severity.ERROR, {
            "RPR251": "unknown workload",
            "RPR253": "hardware knob out of range",
            "RPR254": "unknown energy-model override field",
            "RPR255": "memory size below the floor, above the ceiling or unaligned",
            "RPR256": "compiler knob out of range",
        }),
        *_bank(Severity.WARNING, {
            "RPR252": "non-standard scale name",
        }),
        # -- RPR3xx: control-flow shape advisories (the E7 story) ------
        *_bank(Severity.NOTE, {
            "RPR300": "region offloaded",
            "RPR304": "region rejected",
        }),
        *_bank(Severity.WARNING, {
            "RPR301": "multi-exit loop is not if-convertible",
            "RPR302": "loop-carried control serializes invocations",
            "RPR303": "deep diamonds collapse useful-op density",
        }),
        # -- RPR4xx: static performance attribution (lint --perf) ------
        *_bank(Severity.NOTE, {
            "RPR400": "region is port-bandwidth-bound",
            "RPR401": "region is recurrence-bound",
            "RPR402": "region is config-thrash-bound",
            "RPR403": "region is capability-bound",
            "RPR404": "static performance prediction",
        }),
        # -- RPR5xx: kernel source checks ------------------------------
        # Tokenize/parse (RPR500/501) and the type check (RPR510-514,
        # 516, 518, 526, 540; repro.compiler.typecheck) cover both
        # kernel languages; the rest is the DSL's header and region
        # validation (repro.lang.validate).
        *_bank(Severity.ERROR, {
            "RPR500": "source failed to tokenize",
            "RPR501": "source failed to parse",
            "RPR510": "use of undefined name",
            "RPR511": "type mismatch",
            "RPR512": "array/scalar shape misuse",
            "RPR513": "write to read-only input",
            "RPR514": "integer division outside the validated subset",
            "RPR515": "output parameter never written",
            "RPR516": "unknown intrinsic or bad arity",
            "RPR517": "invalid size or parameter declaration",
            "RPR518": "duplicate declaration",
            "RPR519": "invalid input initializer",
            "RPR520": "dyser region exceeds fabric compute capacity",
            "RPR521": "dyser region live values exceed port capacity",
            "RPR522": "size table missing standard scales",
            "RPR523": "size expression not positive at some scale",
            "RPR524": "kernel declares no output parameter",
            "RPR525": "invalid dyser region structure",
            "RPR526": "break or continue outside a loop",
        }),
        *_bank(Severity.WARNING, {
            "RPR540": "while loop trip count is data-dependent",
        }),
    )
}


def describe_code(code: str) -> CodeInfo:
    """Registry lookup; unknown codes get a synthetic ERROR entry."""
    info = CODES.get(code)
    if info is not None:
        return info
    return CodeInfo(code, "unregistered diagnostic", Severity.ERROR)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: code, severity, message, location, payload."""

    code: str
    message: str
    severity: Severity
    #: Where, human-readable: "mm.r0", "block bb3", "node 7", "port 2".
    location: str = ""
    #: Which analysis produced it: "verifier", "linter", "shapes", ...
    source: str = ""
    #: Structured payload (node ids, coords, pass names, ...).
    context: dict[str, Any] = field(default_factory=dict, hash=False)

    @classmethod
    def of(cls, code: str, message: str, *, location: str = "",
           source: str = "", severity: Severity | None = None,
           **context: Any) -> "Diagnostic":
        """Build a diagnostic, defaulting severity from the registry."""
        if severity is None:
            severity = describe_code(code).severity
        return cls(code=code, message=message, severity=severity,
                   location=location, source=source, context=context)

    @classmethod
    def from_error(cls, exc: Exception, *, location: str = "",
                   source: str = "") -> "Diagnostic":
        """Lift a :class:`repro.errors.ReproError` into a diagnostic."""
        code = getattr(exc, "code", None) or "RPR000"
        context = dict(getattr(exc, "context", {}) or {})
        return cls.of(code, str(exc), location=location, source=source,
                      **context)

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.severity.value} {self.code}{where}: {self.message}"

    def to_dict(self) -> dict:
        from repro.errors import _json_safe

        return {
            "code": self.code,
            "severity": self.severity.value,
            "title": describe_code(self.code).title,
            "message": self.message,
            "location": self.location,
            "source": self.source,
            "context": {k: _json_safe(v) for k, v in self.context.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostic":
        return cls(
            code=data["code"],
            message=data["message"],
            severity=Severity(data["severity"]),
            location=data.get("location", ""),
            source=data.get("source", ""),
            context=dict(data.get("context", {})),
        )


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics with rendering helpers."""

    subject: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    # -- building ------------------------------------------------------

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def emit(self, code: str, message: str, **kwargs: Any) -> Diagnostic:
        diag = Diagnostic.of(code, message, **kwargs)
        self.add(diag)
        return diag

    def extend(self, other: "DiagnosticReport | Iterable[Diagnostic]"
               ) -> None:
        if isinstance(other, DiagnosticReport):
            self.diagnostics.extend(other.diagnostics)
        else:
            self.diagnostics.extend(other)

    # -- queries -------------------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def notes(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.NOTE]

    @property
    def ok(self) -> bool:
        """True when nothing error-severity fired."""
        return not self.errors

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def by_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    # -- rendering -----------------------------------------------------

    def summary(self) -> str:
        e, w, n = len(self.errors), len(self.warnings), len(self.notes)
        head = f"{self.subject}: " if self.subject else ""
        if not self.diagnostics:
            return f"{head}clean"
        parts = []
        if e:
            parts.append(f"{e} error{'s' if e != 1 else ''}")
        if w:
            parts.append(f"{w} warning{'s' if w != 1 else ''}")
        if n:
            parts.append(f"{n} note{'s' if n != 1 else ''}")
        return head + ", ".join(parts)

    def render(self, *, min_severity: Severity = Severity.NOTE) -> str:
        """Human-readable listing, most severe first, stable order."""
        lines = [self.summary()]
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (-d.severity.rank, d.code, d.location))
        for diag in ordered:
            if diag.severity.rank < min_severity.rank:
                continue
            lines.append("  " + diag.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        # Sorted by (code, location) so JSON reports are byte-stable
        # regardless of emission/traversal order.
        ordered = sorted(self.diagnostics,
                         key=lambda d: (d.code, d.location))
        return {
            "subject": self.subject,
            "ok": self.ok,
            "counts": {
                "error": len(self.errors),
                "warning": len(self.warnings),
                "note": len(self.notes),
            },
            "diagnostics": [d.to_dict() for d in ordered],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiagnosticReport":
        return cls(
            subject=data.get("subject", ""),
            diagnostics=[Diagnostic.from_dict(d)
                         for d in data.get("diagnostics", [])],
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
