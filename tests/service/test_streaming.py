"""Streamed sweep delivery over the wire: ``GET /v1/sweeps/<id>``.

The acceptance contract of the columnar result path, tested end to end
over real sockets:

* ``format=rows`` streams NDJSON rows whose windowed reads (``offset``/
  ``limit``) concatenate byte-identically to one full read — including
  windows that straddle the parallel engine's chunk boundaries;
* mid-run reads only ever see the contiguous filled prefix and can
  resume where they left off while the job is still running;
* ``format=frame`` ships the same rows as base64 columns;
* range errors are typed: past-the-grid offsets are 416, malformed
  windows and unknown formats are 400, and jobs without a columnar
  stream (cache hits, model kind) are 400.
"""

from __future__ import annotations

import json
import time
from functools import partial

import pytest

from repro.service.server import Service, ServiceConfig, ServiceThread
from repro.sim.catalog import _open_point
from repro.sim.frame import frame_from_wire
from repro.sim.sweep import run_sweep, sweep_grid

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

from tests.service.test_service_http import Client, metric_value  # noqa: E402

BODY = {
    "kind": "fig4a",
    "params": {"n_values": [256, 512], "w_values": [2, 4, 8], "samples": 60},
    "seed": 11,
}


@pytest.fixture
def service():
    with ServiceThread(Service(ServiceConfig(port=0, workers=2, queue_capacity=8))) as handle:
        client = Client(handle.host, handle.port)
        yield handle, client
        client.close()


def expected_rows(body=BODY) -> list[str]:
    """The NDJSON lines a full streamed read must reproduce exactly."""
    params = body["params"]
    grid = sweep_grid(n=params["n_values"], w=params["w_values"])
    sweep = run_sweep(
        partial(_open_point, concurrency=2, samples=params["samples"],
                seed=body["seed"]),
        grid,
    )
    return [
        json.dumps({"index": i, "point": point, "outcome": outcome},
                   separators=(",", ":"), allow_nan=False) + "\n"
        for i, (point, outcome) in enumerate(sweep)
    ]


def submit_and_finish(client, body=BODY) -> str:
    status, submitted, _ = client.post("/v1/sweeps", body)
    assert status == 202
    final = client.poll_job(submitted["id"])
    assert final["state"] == "succeeded"
    return submitted["id"]


class TestRowStreaming:
    def test_full_read_matches_serial_rows_exactly(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        status, text, headers = client.get(f"/v1/sweeps/{job_id}?format=rows")
        assert status == 200
        assert headers["Content-Type"] == "application/x-ndjson"
        assert text == "".join(expected_rows())
        assert headers["X-Sweep-Complete"] == "true"
        assert headers["X-Sweep-Points-Done"] == "6"
        assert headers["X-Sweep-Points-Total"] == "6"
        assert headers["X-Sweep-Count"] == "6"

    def test_windowed_reads_concatenate_byte_identically(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        _, full, _ = client.get(f"/v1/sweeps/{job_id}?format=rows")
        # limit=4 does not divide the 6-point grid: the second window
        # straddles the end, the third is empty — resume must stay exact.
        chunks, offset = [], 0
        while True:
            status, text, headers = client.get(
                f"/v1/sweeps/{job_id}?format=rows&offset={offset}&limit=4"
            )
            assert status == 200
            count = int(headers["X-Sweep-Count"])
            assert headers["X-Sweep-Offset"] == str(offset)
            if count == 0:
                break
            chunks.append(text)
            offset += count
        assert "".join(chunks) == full

    def test_mid_run_resume_sees_only_the_prefix(self, service):
        _, client = service
        # A bigger grid so some polls land mid-run; correctness must not
        # depend on the race, only the final concatenation.
        body = dict(BODY, params=dict(BODY["params"],
                                      n_values=[128, 256, 512, 1024],
                                      w_values=[2, 3, 4, 6, 8],
                                      samples=400))
        status, submitted, _ = client.post("/v1/sweeps", body)
        assert status == 202
        job_id = submitted["id"]
        chunks, offset = [], 0
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, text, headers = client.get(
                f"/v1/sweeps/{job_id}?format=rows&offset={offset}&limit=3"
            )
            assert status == 200
            count = int(headers["X-Sweep-Count"])
            done = int(headers["X-Sweep-Points-Done"])
            total = int(headers["X-Sweep-Points-Total"])
            assert total == 20 and done <= total
            if count:
                chunks.append(text)
                offset += count
            elif headers["X-Sweep-Complete"] == "true":
                break
            else:
                time.sleep(0.01)
        assert offset == 20
        _, full, _ = client.get(f"/v1/sweeps/{job_id}?format=rows")
        assert "".join(chunks) == full == "".join(expected_rows(body))
        client.poll_job(job_id)

    def test_streamed_rows_match_materialized_result(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        _, text, _ = client.get(f"/v1/sweeps/{job_id}?format=rows")
        rows = [json.loads(line) for line in text.splitlines()]
        series = {}
        for row in rows:
            series.setdefault(f"N={row['point']['n']}", []).append(row["outcome"])
        _, final, _ = client.get(f"/v1/sweeps/{job_id}")
        assert json.dumps(series, sort_keys=True) == json.dumps(
            final["result"]["series"], sort_keys=True
        )


class TestFrameFormat:
    def test_frame_payload_decodes_to_the_same_rows(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        status, payload, headers = client.get(f"/v1/sweeps/{job_id}?format=frame")
        assert status == 200
        assert payload["format"] == "sweep-frame"
        assert payload["complete"] is True
        assert headers["X-Sweep-Count"] == str(payload["count"]) == "6"
        frame = frame_from_wire(payload)
        lines = [
            json.dumps({"index": i, "point": frame.point_at(i),
                        "outcome": frame.outcome_at(i)},
                       separators=(",", ":"), allow_nan=False) + "\n"
            for i in range(payload["count"])
        ]
        assert lines == expected_rows()

    def test_frame_window(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        status, payload, _ = client.get(
            f"/v1/sweeps/{job_id}?format=frame&offset=4&limit=10"
        )
        assert status == 200
        assert payload["offset"] == 4 and payload["count"] == 2


class TestStreamingErrors:
    def test_offset_past_grid_is_416(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        status, _, _ = client.get(f"/v1/sweeps/{job_id}?format=rows&offset=7")
        assert status == 416

    def test_offset_at_grid_end_is_empty_200(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        status, text, headers = client.get(
            f"/v1/sweeps/{job_id}?format=rows&offset=6"
        )
        assert status == 200
        assert text == ""
        assert headers["X-Sweep-Count"] == "0"

    def test_bad_windows_and_formats_are_400(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        for query in ("format=rows&limit=0", "format=rows&offset=-1",
                      "format=csv", "format=rows&format=frame"):
            status, _, _ = client.get(f"/v1/sweeps/{job_id}?{query}")
            assert status == 400, query

    def test_cache_hit_job_has_no_stream(self, service):
        _, client = service
        submit_and_finish(client)
        status, second, _ = client.post("/v1/sweeps", BODY)
        assert status == 200 and second["cache_hit"] is True
        status, _, _ = client.get(f"/v1/sweeps/{second['id']}?format=rows")
        assert status == 400

    def test_model_kind_has_no_stream(self, service):
        _, client = service
        body = {"kind": "model",
                "params": {"n_values": [4096], "w_values": [10, 20]}}
        status, submitted, _ = client.post("/v1/sweeps", body)
        assert status == 202
        client.poll_job(submitted["id"])
        status, _, _ = client.get(f"/v1/sweeps/{submitted['id']}?format=rows")
        assert status == 400

    def test_unknown_job_is_404_with_format(self, service):
        _, client = service
        status, _, _ = client.get("/v1/sweeps/nope?format=rows")
        assert status == 404


class TestProgressSurface:
    def test_terminal_status_shape_unchanged(self, service):
        _, client = service
        job_id = submit_and_finish(client)
        _, final, _ = client.get(f"/v1/sweeps/{job_id}")
        assert "points_done" not in final
        assert "points_total" not in final

    def test_pending_status_reports_progress_and_gauge(self, service):
        _, client = service
        body = dict(BODY, params=dict(BODY["params"],
                                      n_values=[128, 256, 512, 1024],
                                      w_values=[2, 3, 4, 6, 8],
                                      samples=400), seed=12)
        status, submitted, _ = client.post("/v1/sweeps", body)
        assert status == 202
        job_id = submitted["id"]
        saw_progress = False
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, data, _ = client.get(f"/v1/sweeps/{job_id}")
            assert status == 200
            if data["state"] in ("queued", "running"):
                assert data["points_total"] == 20
                assert 0 <= data["points_done"] <= 20
                saw_progress = True
            else:
                break
            time.sleep(0.005)
        assert saw_progress, "job finished before any pending poll landed"
        client.poll_job(job_id)
        # The gauge tracks the last observed fill count per job label.
        client.get(f"/v1/sweeps/{job_id}")
        _, text, _ = client.get("/metrics")
        line = next(
            line for line in text.splitlines()
            if line.startswith("repro_sweep_points_done{")
            and f'job="{job_id}"' in line
        )
        assert float(line.split()[1]) == 20.0
