"""End-to-end tests for untrusted kernel submission (ISSUE 10).

Covers: the ``POST /v2/kernels`` surface on a single worker (201
create, 200 idempotent resubmit, the 422 rejection envelope with
structured RPR5xx diagnostics, per-tenant kernel quotas with a 429 +
``Retry-After``, the 413 size cap), running a registered kernel
through ``/v2/run``, engine artifact-cache correctness for ``dsl:``
job specs (same source → same hash → warm hit byte-identical to
cold), gateway broadcast registration with survival of a worker kill,
and the ``repro kernel`` CLI round trip.

Like the other service tests, every daemon runs in-process on an
ephemeral port; kernel stores are pinned to ``tmp_path`` via
``$REPRO_KERNEL_DIR`` so tests never touch the user's cache.
"""

from __future__ import annotations

import json

import pytest

from repro import KernelStore, check_source, cli
from repro.engine import ArtifactCache, JobSpec, run_jobs
from repro.service import (
    Client,
    GatewayThread,
    ServiceError,
    ServiceThread,
    TenancyController,
    TenantQuota,
)
from repro.service import protocol as P

GOOD = """
kernel scaled_copy {
    size n = { tiny: 8, small: 16, medium: 32 };
    in  float a[n] = uniform(0.0, 1.0);
    in  int   count = n;
    out float y[n];
    for (int i = 0; i < count; i = i + 1) {
        y[i] = a[i] * 2.0;
    }
}
"""

OTHER = GOOD.replace("scaled_copy", "shifted_copy") \
            .replace("a[i] * 2.0", "a[i] + 1.0")

BAD = "kernel broken {"


@pytest.fixture(autouse=True)
def _isolated_kernel_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_DIR", str(tmp_path / "kernels"))


def _workload_name(source: str) -> str:
    spec, report = check_source(source)
    assert spec is not None, report.render()
    return spec.workload_name


# ---------------------------------------------------------------------
# Single-worker /v2/kernels surface
# ---------------------------------------------------------------------


class TestKernelEndpoint:
    def test_create_then_idempotent_resubmit(self):
        with ServiceThread(cache=None) as srv:
            with Client(port=srv.port, retries=0) as client:
                status, body = client.request(
                    "POST", "/v2/kernels", {"source": GOOD})
                assert status == 201
                assert body["ok"]
                kernel = body["kernel"]
                assert kernel["created"]
                assert kernel["workload"] == _workload_name(GOOD)
                assert kernel["workload"].startswith("dsl:")
                assert kernel["kernel_hash"].startswith(
                    kernel["workload"][len("dsl:"):])

                again, body2 = client.request(
                    "POST", "/v2/kernels", {"source": GOOD})
                assert again == 200
                assert body2["kernel"]["created"] is False
                assert (body2["kernel"]["kernel_hash"]
                        == kernel["kernel_hash"])

                assert client.kernels() == [kernel["workload"]]

    def test_rejection_envelope_carries_rpr5xx_diagnostics(self):
        with ServiceThread(cache=None) as srv:
            with Client(port=srv.port, retries=0) as client:
                status, body = client.request(
                    "POST", "/v2/kernels", {"source": BAD})
        assert status == 422
        assert body["ok"] is False
        assert body["protocol"] == P.PROTOCOL
        error = body["error"]
        assert error["code"] == P.ERR_LINT_REJECTED
        diags = error["diagnostics"]
        assert diags, "rejection must carry structured diagnostics"
        for diag in diags:
            assert diag["code"].startswith("RPR5")
            assert diag["severity"] == "error"
            assert diag["message"]
        # nothing half-registered: a rejected kernel leaves no entry
        with ServiceThread(cache=None) as srv:
            with Client(port=srv.port, retries=0) as client:
                assert client.kernels() == []

    def test_submit_kernel_raises_with_payload(self):
        with ServiceThread(cache=None) as srv:
            with Client(port=srv.port, retries=0) as client:
                with pytest.raises(ServiceError) as err:
                    client.submit_kernel(BAD)
        assert err.value.status == 422
        codes = [d["code"]
                 for d in err.value.payload["error"]["diagnostics"]]
        assert any(c.startswith("RPR5") for c in codes)

    def test_kernel_quota_429_with_retry_after(self):
        tenancy = TenancyController(
            quotas={"alice": TenantQuota(max_kernels=1)})
        with ServiceThread(cache=None, tenancy=tenancy) as srv:
            with Client(port=srv.port, retries=0,
                        tenant="alice") as client:
                first = client.submit_kernel(GOOD)
                assert first["kernel"]["created"]
                # same content again: idempotent, no quota charge
                again = client.submit_kernel(GOOD)
                assert again["kernel"]["created"] is False

                status, headers, data = client._send_once(
                    "POST", "/v2/kernels",
                    json.dumps({"source": OTHER}).encode())
        assert status == 429
        body = json.loads(data)
        assert body["error"]["code"] == P.ERR_THROTTLED
        assert body["error"]["retry_after_s"] > 0
        retry_after = {k.lower(): v for k, v in headers.items()} \
            .get("retry-after")
        assert retry_after and float(retry_after) > 0

    def test_oversized_source_is_413(self):
        huge = GOOD + "// pad\n" * 20_000  # > 64 KiB
        with ServiceThread(cache=None) as srv:
            with Client(port=srv.port, retries=0) as client:
                status, body = client.request(
                    "POST", "/v2/kernels", {"source": huge})
        assert status == 413
        assert body["error"]["code"] == P.ERR_TOO_LARGE

    def test_registered_kernel_runs_via_v1(self):
        with ServiceThread(cache=None) as srv:
            with Client(port=srv.port, retries=0) as client:
                payload = client.submit_kernel(GOOD)
                workload = payload["kernel"]["workload"]
                reply = client.execute({"workload": workload,
                                        "mode": "dyser",
                                        "scale": "tiny"})
        assert reply["status"] == P.STATUS_EXECUTED
        assert reply["result"]["correct"]


# ---------------------------------------------------------------------
# Artifact-cache correctness for dsl: job specs
# ---------------------------------------------------------------------


class TestKernelCacheCorrectness:
    def test_same_source_same_hash_warm_hit_byte_identical(
            self, tmp_path):
        # same DSL source → same kernel_hash, regardless of formatting
        name = _workload_name(GOOD)
        assert _workload_name(
            "// reformatted\n" + GOOD.replace("    ", "\t")) == name

        spec, _ = check_source(GOOD)
        KernelStore().put(GOOD, spec)

        cache = ArtifactCache(tmp_path / "artifacts")
        specs = [JobSpec(name, mode=mode, scale="tiny")
                 for mode in ("scalar", "dyser")]
        cold = run_jobs(specs, cache=cache)
        assert cold.executed == 2 and cold.cache_hits == 0
        warm = run_jobs(specs, cache=cache)
        assert warm.executed == 0 and warm.cache_hits == 2
        for a, b in zip(cold.results, warm.results):
            assert b.correct
            assert a.cycles == b.cycles
            assert a.energy.total_nj == b.energy.total_nj
            assert a.stats.insn_mix == b.stats.insn_mix
            assert a.stats.stall_cycles == b.stats.stall_cycles


# ---------------------------------------------------------------------
# Gateway: broadcast registration, worker-kill survival
# ---------------------------------------------------------------------


class TestGatewayKernels:
    def test_broadcast_then_survives_worker_kill(self, tmp_path):
        with GatewayThread(
                n_workers=2,
                worker_kwargs={"cache": None, "batch_max": 1,
                               "batch_window_s": 0.0},
                cache=None, journal=tmp_path / "gw-jobs.jsonl",
                health_interval_s=0.2) as gw:
            with Client(port=gw.port, retries=1, timeout=60) as client:
                payload = client.submit_kernel(GOOD)
                assert payload["kernel"]["workers"] == 2
                workload = payload["kernel"]["workload"]

                handle = client.submit(sweep={
                    "workloads": [workload],
                    "modes": ["scalar", "dyser"],
                    "base": {"scale": "tiny"},
                })
                client.wait(handle.id, timeout=120)
                job = client.job(handle.id, results=True)
                assert job.state == "succeeded"
                assert len(job.results) == 2
                assert all(p["result"]["correct"] for p in job.results)

                gw.kill_worker(0)
                reply = client.execute({"workload": workload,
                                        "mode": "dyser",
                                        "scale": "tiny"})
                assert reply["result"]["correct"]

    def test_gateway_rejects_malformed_without_forwarding(self,
                                                          tmp_path):
        with GatewayThread(
                n_workers=2,
                worker_kwargs={"cache": None, "batch_max": 1,
                               "batch_window_s": 0.0},
                cache=None, journal=tmp_path / "gw-jobs.jsonl",
                health_interval_s=0.2) as gw:
            with Client(port=gw.port, retries=0) as client:
                status, body = client.request(
                    "POST", "/v2/kernels", {"source": BAD})
        assert status == 422
        assert body["error"]["code"] == P.ERR_LINT_REJECTED
        assert all(d["code"].startswith("RPR5")
                   for d in body["error"]["diagnostics"])


# ---------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------


class TestKernelCli:
    def test_check_accepts_and_rejects(self, tmp_path, capsys):
        good = tmp_path / "good.rk"
        good.write_text(GOOD)
        assert cli.main(["kernel", "check", str(good)]) == 0
        out = capsys.readouterr().out
        assert "kernel_hash" in out

        bad = tmp_path / "bad.rk"
        bad.write_text(BAD)
        assert cli.main(["kernel", "check", str(bad), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert any(d["code"].startswith("RPR5")
                   for d in report["diagnostics"])

    def test_kernel_run_executes(self, tmp_path, capsys):
        path = tmp_path / "k.rk"
        path.write_text(GOOD)
        assert cli.main(["kernel", "run", str(path),
                         "--mode", "dyser", "--scale", "tiny"]) == 0
        assert ": OK" in capsys.readouterr().out

    def test_kernel_submit_round_trip(self, tmp_path, capsys):
        path = tmp_path / "k.rk"
        path.write_text(GOOD)
        with ServiceThread(cache=None) as srv:
            rc = cli.main(["kernel", "submit", str(path),
                           "--port", str(srv.port)])
            assert rc == 0
            out = capsys.readouterr().out
            assert _workload_name(GOOD) in out
