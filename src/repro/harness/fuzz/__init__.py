"""Differential fuzzing and chaos harness (``repro fuzz``).

The subsystem has four parts, mirroring the paper's evaluation flow:

- :mod:`repro.harness.fuzz.generator` — a seeded, deterministic random
  program generator that speaks the DySER access/execute interface
  contract: legal DFGs, port-width-respecting transfers, config loads,
  and (with rising *irregularity*) adversarial shapes — curtailed
  control flow around invocation groups, wide vector transfers,
  multi-port sends, deliberately ill-formed configurations.
- :mod:`repro.harness.fuzz.oracles` — differential oracles per case:
  lane-of-one-vs-reference parity, batched-lockstep-vs-reference parity,
  lint-vs-crash agreement, and IR-verifier stability across compiler
  passes.
- :mod:`repro.harness.fuzz.chaos` — fault injection for the service
  layer: worker crashes mid-batch, queue overflow, artifact-cache
  corruption, slow clients during drain.  The daemon must never serve
  wrong bytes and must always recover or fail closed.
- :mod:`repro.harness.fuzz.corpus` — failing cases are shrunk, saved
  under ``tests/corpus/`` and replayed as ordinary tier-1 tests.

Everything is reproducible from the printed ``(seed, index)`` pair
alone; the findings report is byte-identical across runs of the same
seed.
"""

from repro.harness.fuzz.chaos import chaos_scenario_names, run_chaos
from repro.harness.fuzz.corpus import (
    CORPUS_FORMAT,
    default_corpus_dir,
    iter_corpus,
    load_entry,
    replay_entry,
    save_entry,
    shrink_case,
)
from repro.harness.fuzz.driver import (
    ALL_ORACLES,
    FuzzOptions,
    FuzzReport,
    run_fuzz,
)
from repro.harness.fuzz.generator import CaseGenerator, FuzzCase
from repro.harness.fuzz.oracles import (
    Finding,
    MutantBatchCore,
    batched_oracle,
    dsl_oracle,
    run_case,
)

__all__ = [
    "ALL_ORACLES",
    "CORPUS_FORMAT",
    "CaseGenerator",
    "Finding",
    "FuzzCase",
    "FuzzOptions",
    "FuzzReport",
    "MutantBatchCore",
    "batched_oracle",
    "chaos_scenario_names",
    "default_corpus_dir",
    "dsl_oracle",
    "iter_corpus",
    "load_entry",
    "replay_entry",
    "run_case",
    "run_chaos",
    "run_fuzz",
    "save_entry",
    "shrink_case",
]
