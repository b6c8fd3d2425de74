"""Tests for first-class sweep descriptions (``repro.engine.sweeps``).

SweepSpec is the one sweep object shared by the CLI, ``run_jobs`` and
the service's sweep jobs (``POST /v2/jobs``).  These tests pin its
contract: expansion in the historical builder order (golden job
hashes, literal hex — warm caches must stay warm), ``sweep_hash``
stability across spellings and round-trips, validation, and the
service/client transport of a sweep job in expansion order.
"""

from __future__ import annotations

import json

import pytest

from repro.engine import SWEEP_VERSION, ArtifactCache, SweepSpec
from repro.errors import WorkloadError
from repro.service import Client, ServiceThread
from repro.service import protocol as P
from repro.workloads import SUITE

GRID = dict(
    workloads=("vecadd", "mm"), modes=("scalar", "dyser"),
    base={"scale": "tiny", "seed": 7},
    axes=(("input_fifo_depth", (2, 8)),
          ("initiation_interval", (1, 2))),
)

#: Golden identities, pinned literally: a change here silently
#: invalidates every artifact cache and re-runs every sweep point.
GRID_SWEEP_HASH = (
    "699c671863dccba486e9ece3c791017d321a12ec52f97cd825704cf3e1ef7b80")
GRID_JOB_HASHES = {
    0: "d509acba1b7a8e8d0918c6a8066c5d41b24fe9519f97c91e93639ecbf8375a97",
    4: "530f90b7ff6d906933c3f62a432a5e5b6d73438575d51963b0a0c8c64501a340",
    15: "e74ffef9f8c73c3efc671ba9751e9adfae11a684c1ba66bb5f388e55c6cf0ccb",
}


class TestExpansion:
    def test_golden_job_hashes(self):
        jobs = SweepSpec(**GRID).jobs()
        assert len(jobs) == 16
        for index, digest in GRID_JOB_HASHES.items():
            assert jobs[index].job_hash == digest

    def test_expansion_order_workload_mode_axes(self):
        jobs = SweepSpec(**GRID).jobs()
        flat = [(j.workload, j.mode, j.input_fifo_depth,
                 j.initiation_interval) for j in jobs]
        assert flat[:4] == [("vecadd", "scalar", 2, 1),
                            ("vecadd", "scalar", 2, 2),
                            ("vecadd", "scalar", 8, 1),
                            ("vecadd", "scalar", 8, 2)]
        assert flat[4][:2] == ("vecadd", "dyser")
        assert flat[8][:2] == ("mm", "scalar")

    def test_len_matches_jobs(self):
        spec = SweepSpec(**GRID)
        assert len(spec) == len(spec.jobs()) == 16
        assert "sweep[16]" in spec.describe()

    def test_comparison_shape(self):
        spec = SweepSpec.comparison(("vecadd",), scale="tiny")
        assert [(j.workload, j.mode) for j in spec.jobs()] \
            == [("vecadd", "scalar"), ("vecadd", "dyser")]

    def test_suite_covers_every_workload(self):
        jobs = SweepSpec.suite(scale="tiny").jobs()
        assert len(jobs) == 2 * len(SUITE)
        assert {j.workload for j in jobs} == set(SUITE)


class TestIdentity:
    def test_sweep_hash_pinned(self):
        assert SweepSpec(**GRID).sweep_hash == GRID_SWEEP_HASH

    def test_spellings_hash_identically(self):
        a = SweepSpec(**GRID)
        b = SweepSpec(
            workloads=["vecadd", "mm"], modes=["scalar", "dyser"],
            base=(("seed", 7), ("scale", "tiny")),
            axes={"input_fifo_depth": [2, 8],
                  "initiation_interval": [1, 2]},
        )
        assert a == b
        assert a.sweep_hash == b.sweep_hash

    def test_round_trip_through_dict(self):
        spec = SweepSpec(**GRID)
        clone = SweepSpec.from_dict(json.loads(json.dumps(
            spec.to_dict())))
        assert clone == spec
        assert clone.sweep_hash == spec.sweep_hash
        assert spec.to_dict()["version"] == SWEEP_VERSION

    def test_axis_order_is_significant(self):
        swapped = SweepSpec(
            **{**GRID, "axes": tuple(reversed(GRID["axes"]))})
        assert swapped.sweep_hash != SweepSpec(**GRID).sweep_hash


class TestValidation:
    def test_needs_workloads(self):
        with pytest.raises(WorkloadError, match="workload"):
            SweepSpec(workloads=())

    def test_unknown_mode(self):
        with pytest.raises(WorkloadError, match="mode"):
            SweepSpec(workloads=("mm",), modes=("quantum",))

    def test_unknown_field(self):
        with pytest.raises(WorkloadError, match="fifo_depht"):
            SweepSpec(workloads=("mm",), axes={"fifo_depht": (2,)})

    def test_empty_axis(self):
        with pytest.raises(WorkloadError, match="no values"):
            SweepSpec(workloads=("mm",),
                      axes=(("input_fifo_depth", ()),))

    def test_duplicate_axis(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            SweepSpec(workloads=("mm",),
                      axes=(("unroll", (1,)), ("unroll", (2,))))

    def test_workload_mode_not_knobs(self):
        with pytest.raises(WorkloadError):
            SweepSpec(workloads=("mm",), base={"workload": "saxpy"})

    def test_from_dict_rejects_bad_version(self):
        with pytest.raises(WorkloadError, match="version"):
            SweepSpec.from_dict({"version": "sweepspec-v0",
                                 "workloads": ["mm"]})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(WorkloadError):
            SweepSpec.from_dict(["mm"])


class TestServiceTransport:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        cache = ArtifactCache(tmp_path_factory.mktemp("sweep-cache"))
        with ServiceThread(cache=cache, batch_window_s=0.001) as srv:
            yield srv

    @pytest.fixture()
    def client(self, service):
        with Client(port=service.port, timeout=120) as client:
            yield client

    def test_first_class_sweep_round_trip(self, client):
        spec = SweepSpec.comparison(("vecadd",), scale="tiny")
        final = client.sweep(spec, wait=True, wait_timeout=120)
        assert final.succeeded
        assert final.done == final.total == 2
        # The job runs the points in the sweep's expansion order.
        assert [r["job_hash"] for r in final.results] \
            == [j.job_hash for j in spec.jobs()]
        served = (P.STATUS_EXECUTED, P.STATUS_HIT, P.STATUS_COALESCED)
        assert all(r["status"] in served for r in final.results)

    def test_bad_sweep_spec_is_400(self, client):
        status, payload = client.request(
            "POST", "/v2/jobs",
            {"sweep": {"version": "sweepspec-v0",
                       "workloads": ["vecadd"]}})
        assert status == 400
        assert "version" in payload["error"]["message"]
