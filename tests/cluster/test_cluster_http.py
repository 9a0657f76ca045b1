"""End-to-end cluster tests over real sockets, with fault injection.

Each test boots a real :class:`~repro.cluster.coordinator.Coordinator`
on an ephemeral port (asyncio loop on a background thread) and drives it
with in-process worker loops and/or a raw ``http.client`` connection —
the full wire path, no shortcuts.

The acceptance-critical scenarios:

* a distributed Figure 4(a)-style sweep (coordinator + >= 2 workers) is
  byte-identical to serial :func:`repro.sim.sweep.run_sweep`;
* the same holds after one worker crashes mid-run while holding a lease
  (lease expiry + reassignment recovers the chunk);
* duplicate result submissions are acknowledged and discarded;
* chunk results land in the shared :class:`ResultCache`, and a rerun of
  the same sweep never dispatches a cached chunk;
* the serving layer's ``execution: cluster`` mode returns the same
  payload as local execution.
"""

from __future__ import annotations

import json
import time
from functools import partial

import pytest

from repro.cluster.coordinator import (
    ClusterError,
    Coordinator,
    CoordinatorConfig,
    CoordinatorThread,
    run_sweep_cluster,
    run_sweep_cluster_from_callable,
)
from repro.cluster.protocol import (
    LEASE_PATH,
    RESULT_PATH,
    SPEC_PATH,
    STATUS_PATH,
    task_from_callable,
)
from repro.cluster.worker import WorkerConfig, WorkerThread
from repro.service.cache import ResultCache
from repro.sim.catalog import SWEEP_KINDS, _open_point
from repro.sim.sweep import run_sweep, sweep_grid

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

GRID = sweep_grid(n=[64, 128, 256], w=[2, 4])  # 6 points, fast to simulate
POINT = partial(_open_point, concurrency=2, samples=25, seed=5)
SERIAL = run_sweep(POINT, GRID)


class Client:
    """Minimal JSON client over one keep-alive http.client connection."""

    def __init__(self, host: str, port: int) -> None:
        import http.client

        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method: str, path: str, body=None):
        payload = json.dumps(body) if body is not None else None
        self.conn.request(
            method, path, body=payload, headers={"Content-Type": "application/json"}
        )
        response = self.conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        data = json.loads(raw) if content_type.startswith("application/json") else raw.decode()
        return response.status, data

    def get(self, path: str):
        return self.request("GET", path)

    def post(self, path: str, body):
        return self.request("POST", path, body)

    def close(self) -> None:
        self.conn.close()


def boot(task, grid, config=None, **kwargs):
    """Start a coordinator thread; caller stops it."""
    coordinator = Coordinator(task, grid, config, **kwargs)
    handle = CoordinatorThread(coordinator)
    handle.start()
    return handle, coordinator


class TestDistributedDeterminism:
    def test_two_workers_byte_identical_to_serial(self):
        result = run_sweep_cluster_from_callable(
            POINT, GRID, workers=2, timeout=60
        )
        assert list(result.points) == list(SERIAL.points)
        assert list(result.outcomes) == list(SERIAL.outcomes)

    def test_telemetry_shape(self):
        # Two workers each lease one of the two chunks before either
        # submits, so each settles one whatever the scheduling.  (A worker
        # fleet may leave one worker settling every chunk of this grid.)
        handle, coordinator = boot(
            task_from_callable(POINT), GRID, CoordinatorConfig(lease_ttl=30.0, chunk_size=3)
        )
        client = Client(coordinator.host, coordinator.port)
        try:
            leases = {}
            for worker in ("w1", "w2"):
                status, reply = client.post(
                    LEASE_PATH, {"worker": worker, "run_id": coordinator.run_id}
                )
                assert status == 200 and reply["state"] == "lease"
                leases[worker] = reply
            for worker, reply in leases.items():
                chunk = reply["chunk"]
                outcomes = run_sweep(POINT, GRID[chunk["start"]:chunk["stop"]]).outcomes
                status, _ = client.post(RESULT_PATH, {
                    "worker": worker,
                    "run_id": coordinator.run_id,
                    "lease_id": reply["lease"]["id"],
                    "chunk_index": chunk["index"],
                    "ok": True,
                    "outcomes": list(outcomes),
                })
                assert status == 200
            result = coordinator.result(timeout=30)
        finally:
            client.close()
            handle.stop()
        assert list(result.outcomes) == list(SERIAL.outcomes)
        t = result.telemetry
        assert t.workers == 2 and t.n_points == len(GRID)
        assert t.wall_seconds > 0 and t.points_per_second > 0
        assert 0.0 < t.worker_utilization <= 1.0
        assert "points" in t.summary()

    def test_unclusterable_callable_raises_value_error(self):
        # positional partial bindings (e.g. a trace object) cannot ship
        with pytest.raises(ValueError):
            run_sweep_cluster_from_callable(partial(_open_point, 64), GRID)


class TestWorkerCrashRecovery:
    def test_crashed_worker_lease_is_reassigned(self):
        """Kill a worker mid-chunk; the merged sweep still matches serial."""
        task = task_from_callable(POINT)
        config = CoordinatorConfig(lease_ttl=0.4, max_attempts=5, chunk_size=1)
        handle, coordinator = boot(task, GRID, config)
        try:
            # The saboteur claims a lease and vanishes without submitting
            # or heartbeating — exactly what a killed process looks like.
            saboteur = WorkerThread(
                WorkerConfig(
                    coordinator=coordinator.url,
                    worker_id="saboteur",
                    crash_after=0,
                    poll_interval=0.01,
                )
            )
            saboteur.start()
            saboteur.join(timeout=30)
            assert saboteur.summary["crashed"]

            healthy = WorkerThread(
                WorkerConfig(
                    coordinator=coordinator.url,
                    worker_id="healthy",
                    poll_interval=0.01,
                )
            )
            healthy.start()
            result = coordinator.result(timeout=60)
            healthy.stop()
        finally:
            handle.stop()
        assert list(result.outcomes) == list(SERIAL.outcomes)
        snap = coordinator.leases.snapshot()
        assert snap["expired_total"] >= 1
        assert snap["retries_total"] >= 1
        assert result.telemetry.leases_expired >= 1

    def test_exhausted_chunk_fails_the_run(self):
        """A chunk whose only attempt dies latches a run-fatal failure."""
        task = task_from_callable(POINT)
        config = CoordinatorConfig(lease_ttl=0.2, max_attempts=1, chunk_size=1)
        handle, coordinator = boot(task, GRID, config)
        try:
            w = WorkerThread(
                WorkerConfig(
                    coordinator=coordinator.url,
                    worker_id="doomed",
                    crash_after=0,
                    poll_interval=0.01,
                )
            )
            w.start()
            w.join(timeout=30)
            assert w.summary["crashed"]
            # The lease expires with no heartbeats; the next worker poll
            # finds the chunk out of attempts and is told the run failed.
            client = Client(coordinator.host, coordinator.port)
            try:
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    _, reply = client.post(
                        LEASE_PATH,
                        {"worker": "w2", "run_id": coordinator.run_id},
                    )
                    if reply["state"] == "failed":
                        break
                    time.sleep(0.05)
                assert reply["state"] == "failed"
                assert "attempts" in reply["detail"]
            finally:
                client.close()
            with pytest.raises(ClusterError, match="attempts"):
                coordinator.result(timeout=10)
        finally:
            handle.stop()


class TestProtocolFaults:
    @pytest.fixture
    def cluster(self):
        task = task_from_callable(POINT)
        config = CoordinatorConfig(lease_ttl=30.0, chunk_size=1)
        handle, coordinator = boot(task, GRID, config)
        client = Client(coordinator.host, coordinator.port)
        yield coordinator, client
        client.close()
        handle.stop()

    def test_duplicate_result_submission_discarded(self, cluster):
        coordinator, client = cluster
        status, reply = client.post(
            LEASE_PATH, {"worker": "w1", "run_id": coordinator.run_id}
        )
        assert status == 200 and reply["state"] == "lease"
        chunk = reply["chunk"]
        outcome = run_sweep(POINT, GRID[chunk["start"]:chunk["stop"]]).outcomes
        submission = {
            "worker": "w1",
            "run_id": coordinator.run_id,
            "lease_id": reply["lease"]["id"],
            "chunk_index": chunk["index"],
            "ok": True,
            "outcomes": list(outcome),
        }
        status, first = client.post(RESULT_PATH, submission)
        assert status == 200 and first["status"] == "fresh"
        status, second = client.post(RESULT_PATH, submission)
        assert status == 200 and second["status"] == "duplicate"
        status, snap = client.get(STATUS_PATH)
        assert snap["leases"]["duplicates_total"] == 1
        assert snap["leases"]["done"] == 1

    def test_run_id_mismatch_rejected(self, cluster):
        _, client = cluster
        status, reply = client.post(
            LEASE_PATH, {"worker": "w1", "run_id": "run-imposter"}
        )
        assert status == 409
        assert "mismatch" in reply["error"]

    def test_wrong_outcome_count_rejected(self, cluster):
        coordinator, client = cluster
        status, reply = client.post(
            LEASE_PATH, {"worker": "w1", "run_id": coordinator.run_id}
        )
        chunk = reply["chunk"]
        status, error = client.post(
            RESULT_PATH,
            {
                "worker": "w1",
                "run_id": coordinator.run_id,
                "chunk_index": chunk["index"],
                "ok": True,
                "outcomes": [1, 2, 3],  # chunk_size is 1
            },
        )
        assert status == 400
        assert "expects" in error["error"]

    def test_unknown_chunk_404(self, cluster):
        coordinator, client = cluster
        status, error = client.post(
            RESULT_PATH,
            {
                "worker": "w1",
                "run_id": coordinator.run_id,
                "chunk_index": 999,
                "ok": True,
                "outcomes": [],
            },
        )
        assert status == 404

    def test_spec_round_trips_over_the_wire(self, cluster):
        coordinator, client = cluster
        status, payload = client.get(SPEC_PATH)
        assert status == 200
        assert payload["run_id"] == coordinator.run_id
        assert payload["grid"] == [dict(p) for p in GRID]

    def test_metrics_exposition(self, cluster):
        coordinator, client = cluster
        client.post(LEASE_PATH, {"worker": "w1", "run_id": coordinator.run_id})
        status, text = client.get("/metrics")
        assert status == 200
        assert "repro_cluster_leases_outstanding 1" in text
        assert "repro_cluster_workers_live 1" in text

    def test_worker_error_report_requeues_chunk(self, cluster):
        coordinator, client = cluster
        status, reply = client.post(
            LEASE_PATH, {"worker": "w1", "run_id": coordinator.run_id}
        )
        chunk = reply["chunk"]
        status, ack = client.post(
            RESULT_PATH,
            {
                "worker": "w1",
                "run_id": coordinator.run_id,
                "chunk_index": chunk["index"],
                "ok": False,
                "detail": "synthetic failure",
            },
        )
        assert status == 200 and ack["status"] == "recorded"
        status, snap = client.get(STATUS_PATH)
        assert snap["leases"]["pending"] == len(GRID)  # back in the pool


class TestMalformedResult:
    def test_malformed_chunk_is_rejected_and_dispatched_again(self):
        """Outcomes missing a schema field 400 and leave the chunk leased."""
        kind = SWEEP_KINDS["fig4a"]
        params = kind.validate({"n_values": [64, 128, 256], "w_values": [2, 4],
                                "samples": 25})
        expected = json.dumps(kind.assemble(params, kind.run(params, 5)), sort_keys=True)
        frame = kind.make_frame(params)
        handle, coordinator = boot(
            task_from_callable(kind.bind(params, 5)), kind.grid(params),
            CoordinatorConfig(lease_ttl=0.3, chunk_size=2), frame=frame,
        )
        client = Client(coordinator.host, coordinator.port)
        try:
            for _ in range(2):
                status, reply = client.post(
                    LEASE_PATH, {"worker": "bad", "run_id": coordinator.run_id}
                )
                assert status == 200 and reply["state"] == "lease"
                chunk = reply["chunk"]
                status, error = client.post(
                    RESULT_PATH,
                    {
                        "worker": "bad",
                        "run_id": coordinator.run_id,
                        "chunk_index": chunk["index"],
                        "ok": True,
                        "outcomes": [{"w": 2}] * (chunk["stop"] - chunk["start"]),
                    },
                )
                assert status == 400 and "do not fit" in error["error"]
                assert not coordinator.leases.is_done(chunk["index"])
            assert frame.filled_count == 0
            worker = WorkerThread(
                WorkerConfig(coordinator=coordinator.url, worker_id="good",
                             poll_interval=0.01)
            )
            worker.start()
            result = coordinator.result(timeout=60)
            worker.stop()
        finally:
            client.close()
            handle.stop()
        assert json.dumps(kind.assemble(params, result), sort_keys=True) == expected


class TestChunkCache:
    def test_second_run_served_from_cache(self, tmp_path):
        cache = ResultCache(capacity=64, disk_dir=str(tmp_path))
        first = run_sweep_cluster_from_callable(
            POINT, GRID, workers=2, cache=cache, timeout=60
        )
        second = run_sweep_cluster_from_callable(
            POINT, GRID, workers=2, cache=cache, timeout=60
        )
        assert list(second.outcomes) == list(first.outcomes) == list(SERIAL.outcomes)
        assert second.telemetry.cache_hits == len(GRID) // second.telemetry.chunk_size
        # nothing was dispatched: no worker ever got a lease
        assert second.telemetry.points_by_worker == {}

    def test_cache_hits_across_distinct_runs(self, tmp_path):
        # The chunk key hashes task + points, never the run id, so a
        # brand-new run (fresh run_id, fresh coordinator) still hits.
        cache = ResultCache(capacity=64, disk_dir=str(tmp_path))
        run_sweep_cluster_from_callable(
            POINT, GRID, workers=2, cache=cache,
            config=CoordinatorConfig(chunk_size=1), timeout=60,
        )
        rerun = run_sweep_cluster_from_callable(
            POINT, GRID, workers=2, cache=cache,
            config=CoordinatorConfig(chunk_size=1), timeout=60,
        )
        assert rerun.telemetry.cache_hits == len(GRID)


class TestServiceClusterExecution:
    def test_service_cluster_sweep_matches_local(self):
        from repro.service.server import Service, ServiceConfig, ServiceThread
        from repro.sim.catalog import SWEEP_KINDS, execute_sweep

        params = SWEEP_KINDS["fig4a"].validate(
            {"n_values": [64, 128], "w_values": [2, 4], "samples": 25}
        )
        expected = execute_sweep("fig4a", params, 3)

        config = ServiceConfig(port=0, workers=2, cluster_workers=2)
        with ServiceThread(Service(config)) as handle:
            client = Client(handle.host, handle.port)
            try:
                status, reply = client.post(
                    "/v1/sweeps",
                    {
                        "kind": "fig4a",
                        "params": dict(params),
                        "seed": 3,
                        "execution": "cluster",
                    },
                )
                assert status == 202, reply
                job_id = reply["id"]
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    status, job = client.get(f"/v1/sweeps/{job_id}")
                    if job["state"] not in ("queued", "running"):
                        break
                    time.sleep(0.02)
                assert job["state"] == "succeeded", job
                assert job["result"] == expected
            finally:
                client.close()

    def test_bad_execution_mode_rejected(self):
        from repro.service.server import Service, ServiceConfig, ServiceThread

        with ServiceThread(Service(ServiceConfig(port=0))) as handle:
            client = Client(handle.host, handle.port)
            try:
                status, reply = client.post(
                    "/v1/sweeps",
                    {"kind": "fig4a", "params": {}, "execution": "galactic"},
                )
                assert status == 400
                assert "execution" in reply["error"]
            finally:
                client.close()


class TestWorkStealing:
    """Straggler leases are stolen over the wire and surfaced in telemetry."""

    @pytest.fixture
    def stealing_cluster(self):
        task = task_from_callable(POINT)
        config = CoordinatorConfig(
            lease_ttl=30.0, chunk_size=1, steal_min_age=0.2
        )
        handle, coordinator = boot(task, GRID[:1], config)  # single chunk
        client = Client(coordinator.host, coordinator.port)
        yield coordinator, client
        client.close()
        handle.stop()

    def test_negative_steal_min_age_rejected(self):
        with pytest.raises(ValueError, match="steal_min_age"):
            CoordinatorConfig(steal_min_age=-0.5)

    def test_steal_surfaces_in_metrics_and_telemetry(self, stealing_cluster):
        coordinator, client = stealing_cluster
        status, slow = client.post(
            LEASE_PATH, {"worker": "w-slow", "run_id": coordinator.run_id}
        )
        assert status == 200 and slow["state"] == "lease"
        time.sleep(0.3)  # straggle past steal_min_age
        status, fast = client.post(
            LEASE_PATH, {"worker": "w-fast", "run_id": coordinator.run_id}
        )
        assert status == 200 and fast["state"] == "lease"
        assert fast["chunk"]["index"] == slow["chunk"]["index"]

        status, text = client.get("/metrics")
        assert status == 200
        assert "repro_cluster_leases_stolen_total 1" in text
        assert "repro_cluster_chunk_size 1" in text

        chunk = fast["chunk"]
        outcome = run_sweep(POINT, GRID[chunk["start"]:chunk["stop"]]).outcomes
        status, ack = client.post(
            RESULT_PATH,
            {
                "worker": "w-fast",
                "run_id": coordinator.run_id,
                "lease_id": fast["lease"]["id"],
                "chunk_index": chunk["index"],
                "ok": True,
                "outcomes": list(outcome),
            },
        )
        assert status == 200 and ack["status"] == "fresh"
        result = coordinator.result(timeout=10)
        assert result.telemetry.leases_stolen == 1
        assert "stolen=1" in result.telemetry.summary()
