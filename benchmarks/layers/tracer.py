"""Benchmark-owned tracer: spans around the public callables of each layer.

The tracer never edits the program.  It holds one table of public
callables (:data:`SITES`) and, for each, replaces the module or class
attribute *where the caller looks it up* with a wrapper that records a
span: name, start, end, parent span and request id.  The request id is
the ``JobSpec.job_hash`` of the enclosing job; a span with no job of
its own inherits its parent's.  Simulation backends and workload
``prepare``/``check`` callables are discovered from their registries,
so a backend or kernel added later is traced without editing this file.

Spans stay in memory and are written once, at exit, either as a Chrome
trace (:meth:`Tracer.write_chrome_trace`, which Perfetto opens) or as a
raw dump that another process merges (:meth:`Tracer.dump`).

``fired`` counts the calls that went through each site.  A site that
never fires means the caller stopped looking the callable up there —
for instance an import moved — and its layer would silently vanish
from the numbers; the self-test asserts every site fires.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _spec_hash(args, kwargs) -> str:
    return (args[0] if args else kwargs["spec"]).job_hash


def _lane_hash(args, kwargs) -> str:
    from repro.engine.jobs import JobSpec

    return JobSpec.from_run_config(args[0][0]).job_hash


def _jobs_info(args, kwargs, report) -> dict:
    from repro.engine.report import FAILED, REJECTED

    failed = sum(1 for r in report.records if r.status in (FAILED, REJECTED))
    return {"jobs": len(report.records), "failed": failed}


def _lane_info(args, kwargs, outcomes) -> dict:
    return {"points": len(outcomes)}


def _hit_info(args, kwargs, compiled) -> dict:
    return {"hit": compiled is not None}


@dataclass(frozen=True)
class Site:
    """One traced callable: ``target`` is ``module:attr`` or
    ``module:Class.attr``, the place its caller resolves it."""

    span: str
    target: str
    #: ``(args, kwargs) -> job hash`` for spans that start a job.
    request_id: Callable | None = None
    #: ``(args, kwargs, result) -> dict`` of counts kept on the span.
    info: Callable | None = None


#: Every module-level or class-level callable the benchmark traces.
SITES = (
    Site("engine.run_jobs", "repro.engine.pool:run_jobs", info=_jobs_info),
    Site("engine.run_jobs", "repro.service.scheduler:run_jobs",
         info=_jobs_info),
    Site("engine.job", "repro.engine.pool:execute_job", _spec_hash),
    Site("engine.cache.load", "repro.engine.cache:ArtifactCache.load"),
    Site("engine.cache.store", "repro.engine.cache:ArtifactCache.store"),
    Site("engine.cache.load_compile",
         "repro.engine.cache:ArtifactCache.load_compile", info=_hit_info),
    Site("analysis.lint_spec", "repro.analysis.speclint:lint_spec",
         _spec_hash),
    Site("analysis.lint_spec", "repro.service.admission:lint_spec",
         _spec_hash),
    Site("analysis.estimate_job_cost",
         "repro.analysis.perf:estimate_job_cost", _spec_hash),
    Site("compiler.compile_dyser", "repro.harness.runner:compile_dyser"),
    Site("compiler.compile_scalar", "repro.harness.runner:compile_scalar"),
    Site("compiler.frontend", "repro.compiler.driver:frontend"),
    Site("compiler.offload_regions",
         "repro.compiler.region:offload_regions"),
    Site("compiler.schedule", "repro.compiler.aepdg:schedule"),
    Site("compiler.codegen", "repro.compiler.driver:generate"),
    Site("harness.bundle.decode", "repro.engine.cache:bundle_from_dict"),
    Site("harness.bundle.encode", "repro.engine.cache:bundle_to_dict"),
    Site("harness.batch", "repro.harness.batch:execute_batch_group",
         _lane_hash, _lane_info),
)

#: Site keys of the registry-discovered callables.
PREPARE_SITE = "repro.workloads:SUITE[*].prepare"
CHECK_SITE = "repro.workloads:Instance.check"


def backend_sites() -> list[tuple[str, type, str]]:
    """``(span, class, site key)`` for every registered backend's core.

    A lockstep backend is named by its ``batch_cls``; a backend whose
    solo ``core_cls`` is already another backend's core adds nothing.
    """
    from repro.harness.backends import backend_names, get_backend

    found: dict[type, str] = {}
    for name in backend_names():
        backend = get_backend(name)
        if backend.batch_cls is not None:
            found.setdefault(backend.batch_cls, name)
    for name in backend_names():
        backend = get_backend(name)
        if backend.batch_cls is None:
            found.setdefault(backend.core_cls, name)
    return [(f"cpu.{name}.run", cls, f"{cls.__module__}:{cls.__name__}.run")
            for cls, name in found.items()]


def site_keys() -> list[str]:
    """Every site this tracer patches (needs ``repro`` importable)."""
    return ([s.target for s in SITES]
            + [key for _span, _cls, key in backend_sites()]
            + [PREPARE_SITE, CHECK_SITE])


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans from every thread of one process."""

    def __init__(self) -> None:
        #: ``[id, parent, name, start_ns, end_ns, request_id, thread,
        #: failed, info]`` per finished span.
        self.spans: list[list] = []
        self.fired: dict[str, int] = defaultdict(int)
        base = os.getpid() << 32
        self._ids = itertools.count(base + 1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, span: str, site: str, request_id=None, info=None,
             on_return=None):
        """``fn`` wrapped so each call records one ``span``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, inherited = stack[-1] if stack else (None, None)
            sid = next(tracer._ids)
            rid = request_id(args, kwargs) if request_id else inherited
            stack.append((sid, rid))
            failed = False
            extra = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(args, kwargs, result)
                if on_return is not None:
                    result = on_return(result)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                with tracer._lock:
                    tracer.fired[site] += 1
                    tracer.spans.append([sid, parent, span, start, end, rid,
                                         threading.get_ident(), failed,
                                         extra])

        return traced

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        """Patch every site; returns ``self``."""
        for site in SITES:
            owner, attr = _resolve(site.target)
            self._patch(owner, attr, self.wrap(
                getattr(owner, attr), site.span, site.target,
                site.request_id, site.info))
        for span, cls, key in backend_sites():
            self._patch(cls, "run", self.wrap(cls.run, span, key))
        from repro.workloads import SUITE

        def trace_check(instance):
            instance.check = self.wrap(instance.check, "workloads.check",
                                       CHECK_SITE)
            return instance

        for workload in SUITE.values():
            self._patch(workload, "prepare", self.wrap(
                workload.prepare, "workloads.prepare", PREPARE_SITE,
                on_return=trace_check))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def dump(self, path) -> None:
        """Write the raw spans and site counts for :func:`load`."""
        with self._lock:
            doc = {"spans": list(self.spans), "fired": dict(self.fired)}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    def merge(self, doc: dict) -> None:
        """Add another process's :meth:`dump` to this tracer's spans."""
        with self._lock:
            self.spans.extend(doc["spans"])
            for key, count in doc["fired"].items():
                self.fired[key] += count

    def write_chrome_trace(self, path, metadata: dict | None = None):
        """Write every span through ``repro.obs`` as a Perfetto trace.

        Each (process, thread) gets its own track so spans that overlap
        in time never share one.
        """
        from repro.obs import EventStream, write_chrome_trace

        with self._lock:
            spans = list(self.spans)
        events = EventStream(capacity=max(1, len(spans)))
        tracks: dict[tuple[int, int], str] = {}
        for sid, parent, name, start, end, rid, thread, failed, info \
                in spans:
            key = (sid >> 32, thread)
            track = tracks.setdefault(
                key, f"pid {key[0]} thread {len(tracks) + 1}")
            args = {"id": sid, "parent": parent, "request_id": rid}
            if failed:
                args["failed"] = True
            if info:
                args.update(info)
            events.complete(name, track, start / 1e3, (end - start) / 1e3,
                            domain="wall", **args)
        return write_chrome_trace(events, path, metadata)


def layer_table(spans: list[list], window: tuple[int, int] | None = None
                ) -> tuple[dict[str, dict], list[str]]:
    """Per-span-name totals and self times; returns ``(table, problems)``.

    A span's self time is its duration minus the time its child spans
    cover.  Children are recorded on their parent's thread, so they
    nest inside it and never overlap each other; ``problems`` lists
    every span whose children add up to more than the span itself.
    ``window`` (perf-counter nanoseconds) keeps only spans starting in
    it.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span[1] is not None:
            child_ns[span[1]] += span[4] - span[3]
    table: dict[str, dict] = {}
    problems: list[str] = []
    for sid, _parent, name, start, end, _rid, _thread, failed, info \
            in spans:
        if window is not None and not window[0] <= start < window[1]:
            continue
        total = end - start
        own = total - child_ns.get(sid, 0)
        if own < 0:
            problems.append(f"{name} span {sid}: children cover "
                            f"{child_ns[sid]} ns of {total} ns")
        row = table.setdefault(name, {"n": 0, "self_s": 0.0, "total_s": 0.0,
                                      "failed": 0, "failed_s": 0.0,
                                      "info": defaultdict(int)})
        row["n"] += 1
        row["self_s"] += own / 1e9
        row["total_s"] += total / 1e9
        if failed:
            row["failed"] += 1
            row["failed_s"] += total / 1e9
        for key, value in (info or {}).items():
            row["info"][key] += int(value)
    for row in table.values():
        row["info"] = dict(row["info"])
    return table, problems
