"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish subsystems.

Errors carry *structured diagnostics*: an optional stable diagnostic
``code`` (``RPR1xx`` IR, ``RPR2xx`` configuration, ``RPR3xx`` shape
advisory — see :mod:`repro.analysis.diagnostics` for the registry) and a
free-form ``context`` payload (node id, coordinate, pass name, ...) so
tooling can render machine-readable reports instead of parsing message
strings.  Both are optional: ``ConfigurationError("bad")`` still works.
"""

from __future__ import annotations

import re
from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by this library.

    Attributes:
        code: stable diagnostic code (``RPRnnn``) or None.  Subclasses
            may set a class-level default; the keyword argument wins.
        context: structured payload identifying *what* failed (node id,
            fabric coordinate, pass name, port number, ...).
    """

    #: Class-level default diagnostic code (subclasses may override).
    default_code: str | None = None

    def __init__(self, message: str = "", *, code: str | None = None,
                 **context: Any) -> None:
        super().__init__(message)
        self.code: str | None = code or self.default_code
        self.context: dict[str, Any] = context

    @property
    def message(self) -> str:
        return str(self)

    def to_dict(self) -> dict:
        """JSON-safe view (feeds :mod:`repro.analysis.diagnostics`)."""
        return {
            "error": type(self).__name__,
            "code": self.code,
            "message": str(self),
            "context": {k: _json_safe(v) for k, v in self.context.items()},
        }


def _json_safe(value: Any) -> Any:
    """Best-effort conversion of context values to JSON-safe forms."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


#: Default reprs of objects without a __repr__ embed the id():
#: ``<repro.cpu.memory.Memory object at 0x7f3a...>``.  Those addresses
#: vary run to run, so any error string built from one is useless for
#: differential comparison.  The lookahead for the closing ``>`` keeps
#: *semantic* addresses — ``memory fault at 0x40`` — intact: those
#: identify the fault and must keep distinguishing different faults.
_OBJECT_ADDR = re.compile(r" at 0x[0-9a-fA-F]+(?=>)")


def stable_error_string(exc: BaseException) -> str:
    """A deterministic, comparable rendering of any exception.

    The differential oracles (:mod:`repro.harness.fuzz`, the parity
    harness) compare error outcomes across backends and across runs, so
    the rendering must be identical for the *same* failure and differ
    for different ones:

    - ``TypeName[CODE]: message`` — the diagnostic code rides along when
      the error carries one;
    - memory addresses (``at 0x7f...``) are stripped from the message;
    - :class:`ReproError` context is appended in sorted-key order, so
      dict insertion order can never leak into the comparison.
    """
    name = type(exc).__name__
    code = getattr(exc, "code", None)
    head = f"{name}[{code}]" if code else name
    message = _OBJECT_ADDR.sub(" at 0x…", str(exc))
    context = getattr(exc, "context", None)
    if context:
        items = ", ".join(
            f"{k}={_json_safe(context[k])!r}" for k in sorted(context))
        return f"{head}: {message} {{{items}}}"
    return f"{head}: {message}"


class IsaError(ReproError):
    """Malformed instruction, unknown opcode, or bad operand."""


class AssemblerError(IsaError):
    """Raised when assembly text cannot be parsed or linked."""

    def __init__(self, message: str, line: int | None = None) -> None:
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message, line=line)


class SimulationError(ReproError):
    """Runtime fault during simulation (bad address, div by zero, ...)."""


class MemoryFault(SimulationError):
    """Out-of-range or misaligned memory access."""

    def __init__(self, address: int, reason: str = "out of range") -> None:
        self.address = address
        super().__init__(f"memory fault at {address:#x}: {reason}",
                         address=address, reason=reason)


class DyserError(ReproError):
    """Errors in the DySER fabric model (bad config, port misuse, ...)."""


class ConfigurationError(DyserError):
    """A datapath configuration is inconsistent or unroutable."""


class CompilerError(ReproError):
    """Base class for compiler failures."""


class SourceError(CompilerError):
    """A kernel source is ill-formed at ``line``:``column``."""

    code: str   # every subclass has a default code or is given one

    def __init__(self, message: str, line: int, column: int, *,
                 code: str | None = None) -> None:
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}", code=code,
                         line=line, column=column)


class LexerError(SourceError):
    default_code = "RPR500"


class ParseError(SourceError):
    default_code = "RPR501"


class TypeCheckError(SourceError):
    """The type check's first error; ``code`` is its ``RPR5xx`` code."""


class RegionRejected(CompilerError):
    """A candidate DySER region was rejected; carries the reason code."""

    default_code = "RPR304"

    def __init__(self, reason: str, *, code: str | None = None,
                 **context: Any) -> None:
        self.reason = reason
        super().__init__(f"region rejected: {reason}", code=code,
                         reason=reason, **context)


class SchedulingError(CompilerError):
    """The spatial scheduler could not map a DFG onto the fabric."""


class PassVerificationError(CompilerError):
    """An IR invariant broke after a named compiler pass.

    Raised by the :mod:`repro.analysis` verifier when
    ``CompilerOptions.verify_passes`` is on; names the pass so the
    offender is identified without bisecting the pipeline.  Carries the
    structured diagnostics that fired.
    """

    def __init__(self, pass_name: str, function: str,
                 diagnostics: list | None = None) -> None:
        self.pass_name = pass_name
        self.function = function
        self.diagnostics = list(diagnostics or [])
        detail = "; ".join(
            f"{d.code}: {d.message}" for d in self.diagnostics[:5])
        more = (f" (+{len(self.diagnostics) - 5} more)"
                if len(self.diagnostics) > 5 else "")
        super().__init__(
            f"IR verification failed after pass '{pass_name}' in "
            f"{function}: {detail}{more}",
            pass_name=pass_name, function=function)


class WorkloadError(ReproError):
    """Unknown workload or bad workload parameters."""
