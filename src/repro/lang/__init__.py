"""``repro.lang`` — the validated kernel DSL.

A small, safely-interpretable textual language for submitting custom
kernels to the harness and the service without shipping Python code.
The grammar is a header (sizes, ``in``/``out`` parameters, ``work``,
``flops``) + ``dyser {}`` over kernel-language statements: the DSL
parser (:mod:`repro.lang.parser`) extends the compiler's parser over
the compiler's tokenizer and builds its nodes
(:mod:`repro.compiler.ast_nodes`).  Where each subset rule is enforced:

- the parser rejects the bit and shift operators (``RPR500``);
- the kernel language's type checker (:mod:`repro.compiler.typecheck`),
  run by the validator under the DSL's policy, rejects calls outside
  :data:`DSL_INTRINSICS` (``RPR516``, ``int(e)`` included), integer
  ``/`` and ``%`` (``RPR514``), int/float mixing (``RPR511``), a name
  declared twice in the one flat scope (``RPR518``) and writes to
  inputs (``RPR513``);
- the validator rejects the rest: header errors, outputs never written
  and what the fabric lint finds (the rest of the ``RPR5xx`` bank).

The entry points:

- :func:`parse_kernel_source` — the header and body parser producing
  a content-hashable :class:`KernelSpec`;
- :func:`check_source` — the fail-closed validation pipeline (syntax →
  type/shape check → fabric resource lint) emitting stable ``RPR5xx``
  diagnostics; nothing that fails it ever reaches a worker;
- :func:`lower_spec` — compiles a validated spec into the same
  :class:`~repro.workloads.base.Workload` form the built-in suite
  uses, so the engine cache, all backends, the perf analyzer and the
  parity harnesses apply unchanged;
- :class:`KernelStore` — content-addressed persistence keyed by
  ``dsl:<hash16>`` handles, shared across worker processes.

See DESIGN.md § "Kernel DSL" for the grammar and the trust model.
"""

from repro.lang.nodes import (
    DSL_INTRINSICS,
    INIT_FUNCTIONS,
    KernelSpec,
    STANDARD_SCALES,
)
from repro.lang.parser import parse_kernel_source
from repro.lang.validate import (
    INTERP_STEP_BUDGET,
    check_source,
    declared_scales,
    size_env,
    validate_spec,
)
from repro.lang.interp import Interpreter
from repro.lang.lower import IRREGULAR_DSL, lower_spec, lowered_source
from repro.lang.store import (
    DSL_PREFIX,
    KernelStore,
    default_kernel_dir,
    load_workload,
    set_default_kernel_dir,
)

__all__ = [
    "DSL_INTRINSICS",
    "DSL_PREFIX",
    "INIT_FUNCTIONS",
    "INTERP_STEP_BUDGET",
    "IRREGULAR_DSL",
    "Interpreter",
    "KernelSpec",
    "KernelStore",
    "STANDARD_SCALES",
    "check_source",
    "declared_scales",
    "default_kernel_dir",
    "load_workload",
    "lower_spec",
    "lowered_source",
    "parse_kernel_source",
    "set_default_kernel_dir",
    "size_env",
    "validate_spec",
]
