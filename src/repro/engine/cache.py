"""Persistent, content-addressed artifact cache.

Two kinds of entries, both JSON files on disk:

- ``run`` entries — finished :class:`repro.harness.RunResult` summaries
  (cycle counters, energy breakdown, correctness, region metadata),
  keyed by :attr:`JobSpec.job_hash`;
- ``compile`` entries — compiled program bundles
  (:mod:`repro.harness.bundle`) plus region reports, keyed by
  :attr:`JobSpec.compile_hash` (which includes the kernel source hash).

Every entry additionally lives under a *code-version fingerprint*
directory — a hash of every ``.py`` file in ``src/repro`` — so editing
the simulator/compiler invalidates all stale entries wholesale.  The
cache root is, in order of precedence:

1. ``$REPRO_CACHE_DIR``;
2. ``<repo root>/.repro-cache`` when running from a source checkout;
3. ``~/.cache/repro`` otherwise.

Writes are atomic (temp file + ``os.replace``), so concurrent workers
racing on the same key can never corrupt an entry; the last writer wins
with identical content.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
import threading
import time

import repro
from repro.compiler import CompileResult, RegionReport
from repro.harness.bundle import bundle_from_dict, bundle_to_dict
from repro.harness.runner import RunResult

from repro.engine.jobs import JobSpec

_PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent

#: Memoized fingerprints, keyed by package dir (one per process).
_FINGERPRINTS: dict[pathlib.Path, str] = {}


def code_fingerprint() -> str:
    """Hash of every Python source file under ``src/repro``.

    Any edit to the simulator, compiler, or models changes this value
    and thereby orphans all previously cached artifacts.
    """
    cached = _FINGERPRINTS.get(_PACKAGE_DIR)
    if cached is not None:
        return cached
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(_PACKAGE_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(_PACKAGE_DIR)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    value = digest.hexdigest()
    _FINGERPRINTS[_PACKAGE_DIR] = value
    return value


def default_cache_dir() -> pathlib.Path:
    """Resolve the cache root (see module docstring for precedence)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    repo_root = _PACKAGE_DIR.parent.parent
    if (repo_root / "pyproject.toml").exists():
        return repo_root / ".repro-cache"
    return pathlib.Path.home() / ".cache" / "repro"


# ---------------------------------------------------------------------
# RunResult (de)serialization
# ---------------------------------------------------------------------
#
# The payload schema is owned by the dataclasses themselves now
# (``RunResult.to_dict``/``from_dict`` and friends); these module-level
# names survive as the engine's public serialization entry points.


def result_to_dict(result: RunResult) -> dict:
    """Serialize a run summary (everything but the executable program)."""
    return result.to_dict()


def result_from_dict(data: dict) -> RunResult:
    """Rebuild a :class:`RunResult` summary (``program=None``)."""
    return RunResult.from_dict(data)


# ---------------------------------------------------------------------
# The cache proper
# ---------------------------------------------------------------------


#: Process-wide counter making temp-file names unique *within* a
#: process: pid alone is not enough once the asyncio service layer has
#: several threads (or coalesced writers) storing under one pid.
_TMP_SEQ = itertools.count()

#: Reserved top-level key carrying each entry's payload checksum.
_CHECKSUM_KEY = "_sha256"


def _payload_checksum(data: dict) -> str:
    """Canonical-JSON SHA-256 of an entry payload (checksum key excluded)."""
    import hashlib

    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ArtifactCache:
    """On-disk store for run summaries and compiled-program bundles.

    Instances hold only a path and a fingerprint string, so they pickle
    cleanly into :mod:`repro.engine.pool` worker processes.

    Concurrency contract: any number of processes *and* threads may
    share one cache root.  Writers stage into a name unique per
    (pid, thread, sequence) and publish with an atomic ``os.replace``;
    readers treat missing/truncated entries as misses; maintenance
    (:meth:`stats`, :meth:`prune`, :meth:`clear`) tolerates entries
    vanishing underneath it.
    """

    def __init__(self, root: str | os.PathLike | None = None,
                 fingerprint: str | None = None) -> None:
        self.root = pathlib.Path(root) if root else default_cache_dir()
        self.fingerprint = fingerprint or code_fingerprint()

    def _path(self, kind: str, key: str) -> pathlib.Path:
        return self.root / self.fingerprint[:16] / kind / f"{key}.json"

    # -- raw entries ---------------------------------------------------

    def load(self, kind: str, key: str) -> dict | None:
        """Read one entry; corrupt entries are a *miss-and-evict*.

        A missing file is a plain miss.  Anything else that cannot be
        served faithfully — truncated/garbled JSON, a non-object
        payload, a payload with no stored checksum or one that no
        longer matches its content (bit rot, partial overwrite, a
        hostile filesystem) — is deleted on the spot and reported as a
        miss, so a corrupt entry can never be returned *or* poison
        every later probe of its key.
        """
        path = self._path(kind, key)
        try:
            text = path.read_text()
        except OSError:
            return None  # missing entry == miss
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise ValueError("cache entry is not a JSON object")
        except ValueError:
            self._evict(path)   # truncated/garbled == miss-and-evict
            return None
        expected = data.pop(_CHECKSUM_KEY, None)
        if expected is None or _payload_checksum(data) != expected:
            self._evict(path)   # unchecked or wrong bytes == miss-and-evict
            return None
        return data

    def store(self, kind: str, key: str, data: dict) -> None:
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.tmp{os.getpid()}-{threading.get_ident()}"
            f"-{next(_TMP_SEQ)}")
        try:
            tmp.write_text(json.dumps(
                {**data, _CHECKSUM_KEY: _payload_checksum(data)}))
            os.replace(tmp, path)
        except OSError:
            # Never leave a stage file behind on a failed publish; the
            # entry simply stays absent (a future probe re-misses).
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise

    # -- typed helpers -------------------------------------------------

    def load_run(self, spec: JobSpec) -> dict | None:
        return self.load("run", spec.job_hash)

    def store_run(self, spec: JobSpec, payload: dict) -> None:
        self.store("run", spec.job_hash, payload)

    def load_compile(self, spec: JobSpec) -> CompileResult | None:
        data = self.load("compile", spec.compile_hash)
        if data is None:
            return None
        try:
            program = bundle_from_dict(data["bundle"],
                                       spec.params("options").fabric)
        except Exception:
            # Unreadable bundle == miss-and-evict, recompile; keeping
            # the entry would re-fail deserialization on every probe.
            self._evict(self._path("compile", spec.compile_hash))
            return None
        return CompileResult(
            program=program, ir_dump="",
            regions=[RegionReport.from_dict(r)
                     for r in data.get("regions", [])])

    def store_compile(self, spec: JobSpec, compiled: CompileResult) -> None:
        self.store("compile", spec.compile_hash, {
            "bundle": bundle_to_dict(compiled.program),
            "regions": [r.to_dict() for r in compiled.regions],
        })

    # -- maintenance ---------------------------------------------------

    def entries(self) -> list[pathlib.Path]:
        if not self.root.exists():
            return []
        return sorted(self.root.rglob("*.json"))

    def _survey(self) -> list[tuple[pathlib.Path, float, int]]:
        """(path, mtime, size) for every entry, tolerating racers.

        An entry deleted (or replaced) by a concurrent process between
        the directory walk and the ``stat`` simply drops out of the
        survey — maintenance never fails because the cache is live.
        """
        surveyed = []
        for path in self.entries():
            try:
                st = path.stat()
            except OSError:
                continue   # vanished underneath us
            surveyed.append((path, st.st_mtime, st.st_size))
        return surveyed

    def clear(self) -> int:
        """Delete every entry (all fingerprints); returns count removed."""
        removed = 0
        for path in self.entries():
            with contextlib.suppress(OSError):
                path.unlink()
                removed += 1
        return removed

    def stats(self) -> dict:
        """Byte-accounted census: entries/bytes in total and per kind.

        ``current`` covers entries under this cache's code fingerprint;
        ``stale_entries``/``stale_bytes`` count entries orphaned under
        other fingerprints (prime ``prune`` targets).
        """
        current_prefix = self.root / self.fingerprint[:16]
        kinds: dict[str, dict] = {}
        total_entries = total_bytes = 0
        stale_entries = stale_bytes = 0
        for path, _mtime, size in self._survey():
            total_entries += 1
            total_bytes += size
            if current_prefix in path.parents:
                kind = path.parent.name
                bucket = kinds.setdefault(kind,
                                          {"entries": 0, "bytes": 0})
                bucket["entries"] += 1
                bucket["bytes"] += size
            else:
                stale_entries += 1
                stale_bytes += size
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint,
            "entries": total_entries,
            "bytes": total_bytes,
            "kinds": {k: kinds[k] for k in sorted(kinds)},
            "stale_entries": stale_entries,
            "stale_bytes": stale_bytes,
        }

    def prune(self, max_age_days: float | None = None,
              max_bytes: int | None = None, *,
              now: float | None = None) -> dict:
        """Evict entries, LRU by mtime; returns removal accounting.

        Policy, in order:

        1. stage files abandoned by crashed writers (``*.tmp*`` older
           than one hour) are always swept;
        2. entries older than ``max_age_days`` are removed;
        3. if the surviving entries still exceed ``max_bytes``, the
           least recently *modified* are removed until they fit.

        A long-running service node calls this periodically (or from
        ``repro cache prune``) so the cache cannot grow unboundedly.
        Concurrent readers racing a pruned key see a plain miss.
        """
        now = time.time() if now is None else now
        removed = freed = 0

        if self.root.exists():
            for tmp in self.root.rglob("*.tmp*"):
                try:
                    if now - tmp.stat().st_mtime > 3600:
                        size = tmp.stat().st_size
                        tmp.unlink()
                        removed += 1
                        freed += size
                except OSError:
                    continue

        surveyed = self._survey()
        survivors = []
        for entry in surveyed:
            path, mtime, size = entry
            if max_age_days is not None \
                    and now - mtime > max_age_days * 86400.0:
                if self._evict(path):
                    removed += 1
                    freed += size
                continue
            survivors.append(entry)
        if max_bytes is not None:
            kept_bytes = sum(size for _p, _m, size in survivors)
            # Oldest first == least recently modified first.
            for path, _mtime, size in sorted(survivors,
                                             key=lambda e: e[1]):
                if kept_bytes <= max_bytes:
                    break
                if self._evict(path):
                    removed += 1
                    freed += size
                kept_bytes -= size
        stats = self.stats()
        return {
            "removed": removed,
            "freed_bytes": freed,
            "kept": stats["entries"],
            "kept_bytes": stats["bytes"],
        }

    @staticmethod
    def _evict(path: pathlib.Path) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        # Best-effort tidy of now-empty kind/fingerprint directories.
        parent = path.parent
        for _ in range(2):
            try:
                parent.rmdir()
            except OSError:
                break
            parent = parent.parent
        return True

    def describe(self) -> str:
        stats = self.stats()
        parts = [f"cache at {stats['root']} "
                 f"[code {self.fingerprint[:12]}]: "
                 f"{stats['entries']} entries, "
                 f"{stats['bytes'] / 1024:.1f} KiB"]
        for kind, bucket in stats["kinds"].items():
            parts.append(f"  {kind}: {bucket['entries']} entries, "
                         f"{bucket['bytes'] / 1024:.1f} KiB")
        if stats["stale_entries"]:
            parts.append(f"  stale (other code versions): "
                         f"{stats['stale_entries']} entries, "
                         f"{stats['stale_bytes'] / 1024:.1f} KiB")
        return "\n".join(parts)
