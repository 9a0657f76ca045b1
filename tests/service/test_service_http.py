"""End-to-end tests of the HTTP serving layer over real sockets.

Each test boots a real :class:`~repro.service.server.Service` on an
ephemeral port (asyncio loop on a background thread) and talks to it
with ``http.client`` — the full wire path, no shortcuts.

The acceptance-critical scenarios:

* a Figure 4(a)-style sweep submitted over HTTP returns a series
  byte-identical to :func:`repro.sim.sweep.run_sweep` serial output for
  the same seed;
* resubmitting the same config is served from the cache — observed via
  the ``/metrics`` cache-hit counter — without re-running the engine;
* with the job queue full, new submissions get 429 + ``Retry-After``
  while in-flight jobs still complete.
"""

from __future__ import annotations

import gc
import json
import logging
import threading
import time
from functools import partial

import pytest

from repro.service.server import Service, ServiceConfig, ServiceThread
from repro.sim.catalog import _open_point
from repro.sim.sweep import run_sweep, sweep_grid

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


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
        return response.status, data, dict(response.getheaders())

    def get(self, path: str):
        return self.request("GET", path)

    def post(self, path: str, body):
        return self.request("POST", path, body)

    def close(self) -> None:
        self.conn.close()

    def poll_job(self, job_id: str, timeout: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, data, _ = self.get(f"/v1/sweeps/{job_id}")
            assert status == 200
            if data["state"] not in ("queued", "running"):
                return data
            time.sleep(0.02)
        pytest.fail(f"job {job_id} did not settle within {timeout}s")


@pytest.fixture
def service():
    with ServiceThread(Service(ServiceConfig(port=0, workers=2, queue_capacity=8))) as handle:
        client = Client(handle.host, handle.port)
        yield handle, client
        client.close()


def metric_value(client: Client, name: str) -> float:
    """Read one unlabeled sample out of the /metrics exposition."""
    status, text, _ = client.get("/metrics")
    assert status == 200
    for line in text.splitlines():
        if line.startswith(f"{name} "):
            return float(line.split()[1])
    pytest.fail(f"metric {name} not found in exposition")


class TestFastEndpoints:
    def test_healthz(self, service):
        _, client = service
        status, data, _ = client.get("/healthz")
        assert status == 200
        assert data["status"] == "ok"
        assert data["queue"]["capacity"] == 8
        assert data["uptime_seconds"] >= 0

    def test_conflict_matches_library(self, service):
        from repro.core.model import (
            ModelParams,
            conflict_likelihood,
            conflict_likelihood_product_form,
        )

        _, client = service
        status, data, _ = client.get("/v1/model/conflict?w=20&n=4096&c=2")
        assert status == 200
        params = ModelParams(n_entries=4096, concurrency=2)
        assert data["raw"] == float(conflict_likelihood(20.0, params))
        assert data["conflict_probability"] == float(
            conflict_likelihood_product_form(20.0, params)
        )

    def test_sizing_reproduces_paper(self, service):
        _, client = service
        status, data, _ = client.get("/v1/model/sizing?w=71&commit=0.95&c=8")
        assert status == 200
        assert data["entries"] == 14_114_800  # the paper's ">14 million entries"

    def test_birthday(self, service):
        _, client = service
        status, data, _ = client.get("/v1/birthday?target=0.5")
        assert status == 200
        assert data["people"] == 23
        status, data, _ = client.get("/v1/birthday?people=23&days=365")
        assert data["collision_probability"] > 0.5

    def test_metrics_exposition_format(self, service):
        _, client = service
        client.get("/healthz")
        status, text, headers = client.get("/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE repro_requests_total counter" in text
        assert "# TYPE repro_request_latency_seconds histogram" in text
        assert 'repro_requests_total{endpoint="/healthz"}' in text

    def test_validation_errors_are_400(self, service):
        _, client = service
        for path in (
            "/v1/model/conflict?w=20",  # missing n
            "/v1/model/conflict?w=x&n=4096",  # non-numeric
            "/v1/model/conflict?w=20&n=4096&c=1.5",  # non-integer c
            "/v1/model/sizing?w=71&commit=1.5",  # model-layer ValueError
        ):
            status, data, _ = client.get(path)
            assert status == 400, path
            assert "error" in data

    def test_unknown_path_404_wrong_method_405(self, service):
        _, client = service
        assert client.get("/nope")[0] == 404
        assert client.request("POST", "/healthz")[0] == 405
        assert client.request("PUT", "/v1/sweeps/abc")[0] == 405

    def test_bad_json_body_400(self, service):
        handle, _ = service
        import http.client

        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
        conn.request("POST", "/v1/sweeps", body=b"{not json", headers={})
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()


def raw_get(handle, path: str) -> tuple[int, bytes]:
    """GET returning the undecoded body, for byte-level assertions."""
    import http.client

    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestBatchModelEndpoints:
    def test_conflict_batch_byte_identical_to_scalar(self, service):
        """Every element of a batch POST equals the scalar GET for the
        same point — compared as JSON encodings, i.e. byte-identical on
        the wire."""
        _, client = service
        points = [
            (20.0, 4096, 2, 2.0),
            (71.0, 50410, 2, 2.0),
            (1.0, 64, 1, 0.0),    # C=1, α=0 edges
            (0.0, 1, 4, 3.5),     # W=0
            (300.0, 1 << 20, 16, 8.0),
        ]
        body = {
            "w": [p[0] for p in points],
            "n": [p[1] for p in points],
            "c": [p[2] for p in points],
            "alpha": [p[3] for p in points],
        }
        status, batch, _ = client.post("/v1/model/conflict", body)
        assert status == 200
        assert batch["count"] == len(points)
        for i, (w, n, c, alpha) in enumerate(points):
            status, scalar, _ = client.get(
                f"/v1/model/conflict?w={w}&n={n}&c={c}&alpha={alpha}"
            )
            assert status == 200
            for key in ("raw", "conflict_probability", "commit_probability"):
                assert json.dumps(batch[key][i]) == json.dumps(scalar[key]), (i, key)

    def test_conflict_batch_broadcasts_scalars(self, service):
        _, client = service
        status, data, _ = client.post(
            "/v1/model/conflict", {"w": [10, 20, 30], "n": 4096}
        )
        assert status == 200
        assert data["count"] == 3
        assert data["n"] == [4096, 4096, 4096]
        assert data["c"] == [2, 2, 2]
        assert data["alpha"] == [2.0, 2.0, 2.0]

    def test_sizing_batch_byte_identical_to_scalar(self, service):
        _, client = service
        status, batch, _ = client.post(
            "/v1/model/sizing",
            {"w": [71, 71], "commit": [0.5, 0.95], "c": [2, 8]},
        )
        assert status == 200
        assert batch["entries"][0] == 50410
        for i, (w, commit, c) in enumerate([(71, 0.5, 2), (71, 0.95, 8)]):
            _, scalar, _ = client.get(f"/v1/model/sizing?w={w}&commit={commit}&c={c}")
            assert json.dumps(batch["entries"][i]) == json.dumps(scalar["entries"])
            assert json.dumps(batch["mib_at_8_bytes"][i]) == json.dumps(
                scalar["mib_at_8_bytes"]
            )

    def test_capacity_get(self, service):
        _, client = service
        status, data, _ = client.get("/v1/model/capacity?w=71&commit=0.95&c=8")
        assert status == 200
        assert data["entries"] == 14_114_800
        assert data["entries_pow2"] == 1 << 24
        assert data["log2_entries_pow2"] == 24
        assert data["mib_at_8_bytes"] == 128.0
        # The next power of two can only overshoot the commit target.
        assert data["achieved_commit_probability"] >= 0.95

    def test_capacity_batch_byte_identical_to_scalar(self, service):
        _, client = service
        status, batch, _ = client.post(
            "/v1/model/capacity",
            {"w": [71, 71, 5], "commit": [0.95, 0.5, 0.99], "c": [8, 2, 2]},
        )
        assert status == 200
        for i, (w, commit, c) in enumerate([(71, 0.95, 8), (71, 0.5, 2), (5, 0.99, 2)]):
            _, scalar, _ = client.get(
                f"/v1/model/capacity?w={w}&commit={commit}&c={c}"
            )
            for key in (
                "entries",
                "entries_pow2",
                "log2_entries_pow2",
                "mib_at_8_bytes",
                "achieved_commit_probability",
            ):
                assert json.dumps(batch[key][i]) == json.dumps(scalar[key]), (i, key)

    def test_birthday_batch_people_mode(self, service):
        _, client = service
        status, batch, _ = client.post("/v1/birthday", {"people": [22, 23]})
        assert status == 200
        assert batch["days"] == [365, 365]
        for i, people in enumerate([22, 23]):
            _, scalar, _ = client.get(f"/v1/birthday?people={people}&days=365")
            assert json.dumps(batch["collision_probability"][i]) == json.dumps(
                scalar["collision_probability"]
            )

    def test_birthday_batch_target_mode(self, service):
        _, client = service
        status, batch, _ = client.post(
            "/v1/birthday", {"target": [0.5, 0.99], "days": [365, 1 << 20]}
        )
        assert status == 200
        assert batch["people"][0] == 23
        for i, (target, days) in enumerate([(0.5, 365), (0.99, 1 << 20)]):
            _, scalar, _ = client.get(f"/v1/birthday?target={target}&days={days}")
            assert batch["people"][i] == scalar["people"]
            assert json.dumps(batch["collision_probability"][i]) == json.dumps(
                scalar["collision_probability"]
            )
            assert json.dumps(batch["occupancy_at_threshold"][i]) == json.dumps(
                scalar["occupancy_at_threshold"]
            )

    def test_birthday_batch_both_modes_400(self, service):
        _, client = service
        status, data, _ = client.post(
            "/v1/birthday", {"people": [23], "target": [0.5]}
        )
        assert status == 400
        assert "not both" in data["error"]

    def test_batch_validation_400s(self, service):
        _, client = service
        cases = (
            ({"n": [4096]}, "missing required field 'w'"),
            ({"w": [10], "n": [4096], "bogus": [1]},
             "unknown field(s): 'bogus'; expected ['w', 'n', 'c', 'alpha']"),
            ({"w": [1, 2], "n": [1, 2, 3]}, "field 'n' has length 3, expected 2"),
            ({"w": 10, "n": 4096},
             "at least one field must be a JSON array of points "
             "(use the GET endpoint for single points)"),
            ({"w": ["ten"], "n": [4096]}, "field 'w' must contain only numbers"),
            ({"w": [True], "n": [4096]}, "field 'w' must contain only numbers"),
            ({"w": [float("nan")], "n": [4096]}, "field 'w' must be finite everywhere"),
            ({"w": [-1], "n": [4096]}, "write footprint W must be non-negative"),
            ([1, 2, 3], "request body must be a JSON object"),
        )
        for body, error in cases:
            status, data, _ = client.post("/v1/model/conflict", body)
            assert (status, data) == (400, {"error": error}), body

    @pytest.mark.parametrize(
        "path,body,field",
        [
            ("/v1/model/conflict", {"w": [1], "n": [10**400]}, "n"),
            ("/v1/model/conflict", {"w": [1, -(10**400)], "n": 4096}, "w"),
            ("/v1/birthday", {"people": [10**400]}, "people"),
        ],
    )
    def test_batch_int_beyond_float_range_400_names_field(self, service, path, body, field):
        # The GET form parses such a number to inf and 400s; so does the POST.
        _, client = service
        status, data, _ = client.post(path, body)
        assert status == 400
        assert repr(field) in data["error"]

    @pytest.mark.parametrize(
        ("text", "n"),
        [(str(2**53 + 1), 2**53 + 1), (str(10**300), 10**300), ("1e300", 1e300)],
        ids=["2**53+1", "10**300", "1e300"],
    )
    def test_get_equals_post_element_for_wide_integers(self, service, text, n):
        # Integers above 2**53 must not round through a float on the GET.
        _, client = service
        status, scalar, _ = client.get(f"/v1/model/conflict?w=1&n={text}")
        assert status == 200
        status, batch, _ = client.post("/v1/model/conflict", {"w": [1], "n": [n]})
        assert status == 200
        assert list(scalar) == [key for key in batch if key != "count"]
        for key, value in scalar.items():
            assert json.dumps(value) == json.dumps(batch[key][0]), key

    def test_batch_point_cap_400(self, service):
        _, client = service
        status, data, _ = client.post(
            "/v1/model/conflict", {"w": list(range(65537)), "n": 4096}
        )
        assert status == 400
        assert "65536" in data["error"]

    def test_batch_overflow_point_400_names_position(self, service):
        _, client = service
        status, data, _ = client.post(
            "/v1/model/conflict", {"w": [1.0, 1e200], "n": [4096, 1]}
        )
        assert status == 400
        assert "point 1" in data["error"]


def encoded(payload: dict) -> bytes:
    """A body as the service writes it."""
    return (json.dumps(payload, allow_nan=False) + "\n").encode("utf-8")


class TestGetMatchesScalarReference:
    """Each GET body equals the scalar ``repro.core`` answer, encoded by hand.

    GETs and POSTs share one evaluation path, so the GET-vs-POST identity
    tests above compare that path with itself; these pin it to the scalar
    functions instead, in the response's key order.
    """

    @pytest.mark.parametrize(
        ("w", "n", "c", "alpha"),
        [
            (20, 4096, 2, 2.0),
            (71, 50410, 2, 2.0),
            (5, 64, 1, 2.0),  # C = 1: no other transaction, no conflict
            (7, 1024, 4, 0.0),  # alpha = 0: writes only
            (0, 4096, 2, 2.0),  # W = 0
            (300, 1 << 20, 16, 8.0),
        ],
    )
    def test_conflict(self, service, w, n, c, alpha):
        from repro.core.model import (
            ModelParams,
            conflict_likelihood,
            conflict_likelihood_product_form,
        )

        handle, _ = service
        params = ModelParams(n_entries=n, concurrency=c, alpha=alpha)
        prob = float(conflict_likelihood_product_form(float(w), params))
        expected = {
            "w": float(w),
            "n": n,
            "c": c,
            "alpha": alpha,
            "raw": float(conflict_likelihood(float(w), params)),
            "conflict_probability": prob,
            "commit_probability": 1.0 - prob,
        }
        status, body = raw_get(handle, f"/v1/model/conflict?w={w}&n={n}&c={c}&alpha={alpha}")
        assert (status, body) == (200, encoded(expected))

    # Entries of 2 W^2 / (1 - commit) at C = 2, alpha = 0.5: 256 = 2^8 at
    # W = 8, commit = 0.5, and just above it (257) at commit = 0.50001.
    SIZING_POINTS = [
        (8, 0.5, 2, 0.5, 256),
        (8, 0.50001, 2, 0.5, 257),
        (4, 0.375, 2, 2.0, 128),
        (4, 0.37501, 2, 2.0, 129),
        (1, 0.5, 2, 0.0, 2),
        (71, 0.95, 8, 2.0, 14_114_800),
    ]

    @pytest.mark.parametrize(("w", "commit", "c", "alpha", "entries"), SIZING_POINTS)
    def test_sizing(self, service, w, commit, c, alpha, entries):
        from repro.core.sizing import table_entries_for_commit_probability

        handle, _ = service
        got = table_entries_for_commit_probability(w, commit, concurrency=c, alpha=alpha)
        assert got == entries
        expected = {
            "w": w,
            "commit": commit,
            "c": c,
            "alpha": alpha,
            "entries": got,
            "mib_at_8_bytes": got * 8 / (1 << 20),
        }
        status, body = raw_get(
            handle, f"/v1/model/sizing?w={w}&commit={commit}&c={c}&alpha={alpha}"
        )
        assert (status, body) == (200, encoded(expected))

    @pytest.mark.parametrize(("w", "commit", "c", "alpha", "entries"), SIZING_POINTS)
    def test_capacity(self, service, w, commit, c, alpha, entries):
        from repro.core.model import ModelParams, conflict_likelihood
        from repro.core.sizing import pow2_table_entries_for_commit_probability

        handle, _ = service
        pow2 = pow2_table_entries_for_commit_probability(
            w, commit, concurrency=c, alpha=alpha
        )
        raw = conflict_likelihood(
            float(w), ModelParams(n_entries=pow2, concurrency=c, alpha=alpha)
        )
        expected = {
            "w": w,
            "commit": commit,
            "c": c,
            "alpha": alpha,
            "entries": entries,
            "entries_pow2": pow2,
            "log2_entries_pow2": pow2.bit_length() - 1,
            "mib_at_8_bytes": pow2 * 8 / (1 << 20),
            "achieved_commit_probability": 1.0 - float(raw),
        }
        status, body = raw_get(
            handle, f"/v1/model/capacity?w={w}&commit={commit}&c={c}&alpha={alpha}"
        )
        assert (status, body) == (200, encoded(expected))

    @pytest.mark.parametrize(
        ("people", "days"), [(0, 365), (1, 365), (2, 365), (23, 365), (366, 365), (5, 1)]
    )
    def test_birthday_people(self, service, people, days):
        from repro.core.birthday import birthday_collision_probability

        handle, _ = service
        expected = {
            "people": people,
            "days": days,
            "collision_probability": birthday_collision_probability(people, days=days),
        }
        status, body = raw_get(handle, f"/v1/birthday?people={people}&days={days}")
        assert (status, body) == (200, encoded(expected))

    @pytest.mark.parametrize(
        ("query", "target", "days"),
        [
            ("", 0.5, 365),  # every default
            ("days=1000", 0.5, 1000),  # default target
            ("target=0.5", 0.5, 365),
            ("target=0.99&days=1048576", 0.99, 1 << 20),
            ("target=0.01&days=2", 0.01, 2),
        ],
    )
    def test_birthday_target(self, service, query, target, days):
        from repro.core.birthday import (
            birthday_collision_probability,
            people_for_collision_probability,
        )

        handle, _ = service
        people = people_for_collision_probability(target, days=days)
        expected = {
            "target": target,
            "days": days,
            "people": people,
            "collision_probability": birthday_collision_probability(people, days=days),
            "occupancy_at_threshold": people / days,
        }
        status, body = raw_get(handle, f"/v1/birthday?{query}")
        assert (status, body) == (200, encoded(expected))


class TestStrictQueryParsing:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity", "NaN"])
    @pytest.mark.parametrize("path", [
        "/v1/model/conflict?n=4096&w={}",
        "/v1/model/sizing?w=71&commit={}",
        "/v1/birthday?target={}",
    ])
    def test_non_finite_query_floats_400(self, service, path, value):
        _, client = service
        status, data, _ = client.get(path.format(value))
        assert status == 400, (path, value)
        assert "finite" in data["error"]

    def test_duplicate_query_params_400(self, service):
        _, client = service
        status, data, _ = client.get("/v1/model/conflict?w=1&w=2&n=4096")
        assert status == 400
        assert "'w'" in data["error"] and "2 times" in data["error"]
        status, data, _ = client.get("/v1/model/sizing?w=71&commit=0.5&commit=0.9")
        assert status == 400
        assert "'commit'" in data["error"]


class TestNaNSafeJSON:
    def test_overflowing_conflict_is_400_not_infinity(self, service):
        """w=1e200 overflows Eq. 8 to inf; the response must be a clean
        400 whose body never contains a bare Infinity/NaN token."""
        handle, _ = service
        status, raw = raw_get(handle, "/v1/model/conflict?w=1e200&n=1")
        assert status == 400
        assert b"Infinity" not in raw and b"NaN" not in raw
        assert "overflows" in json.loads(raw)["error"]

    def test_overflowing_sizing_is_400(self, service):
        _, client = service
        status, data, _ = client.get(
            "/v1/model/sizing?w=1000000000&commit=0.999999999999999&c=64"
        )
        assert status == 400
        assert "overflows" in data["error"]

    def test_batch_responses_never_carry_nan_tokens(self, service):
        handle, client = service
        status, data, _ = client.post(
            "/v1/model/conflict", {"w": [1e200], "n": [1]}
        )
        assert status == 400
        assert "non-finite" in data["error"]


class TestModelMetrics:
    def test_model_points_counted_per_endpoint(self, service):
        _, client = service
        client.get("/v1/model/conflict?w=20&n=4096")
        client.post("/v1/model/conflict", {"w": [1.0, 2.0, 3.0], "n": 4096})
        client.get("/v1/model/sizing?w=71&commit=0.5")
        status, text, _ = client.get("/metrics")
        assert status == 200
        assert 'repro_model_points_total{endpoint="/v1/model/conflict"} 4' in text
        assert 'repro_model_points_total{endpoint="/v1/model/sizing"} 1' in text

    def test_microbatch_metrics_exposed(self, service):
        _, client = service
        client.get("/v1/model/conflict?w=20&n=4096")
        status, text, _ = client.get("/metrics")
        assert status == 200
        assert "# TYPE repro_microbatch_occupancy histogram" in text
        assert "# TYPE repro_microbatch_flush_wait_seconds histogram" in text
        assert metric_value(client, "repro_microbatch_flushes_total") >= 1
        assert metric_value(client, "repro_microbatch_occupancy_count") >= 1

    def test_concurrent_scalar_gets_coalesce(self, service):
        """Parallel scalar GETs inside one collection window share a
        flush: occupancy samples exceed flush count only if batching
        actually coalesced."""
        _, client = service
        barrier = threading.Barrier(8)
        answers = []

        def hit():
            local = Client(client.conn.host, client.conn.port)
            try:
                barrier.wait(timeout=10)
                for _ in range(20):
                    answers.append(local.get("/v1/model/conflict?w=20&n=4096")[0])
            finally:
                local.close()

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert answers.count(200) == 160
        points = metric_value(client, "repro_microbatch_occupancy_sum")
        flushes = metric_value(client, "repro_microbatch_flushes_total")
        assert points == 160
        # Coalescing must have merged at least some concurrent requests.
        assert flushes < points


SWEEP_BODY = {
    "kind": "fig4a",
    "params": {"n_values": [512, 1024], "w_values": [4, 8, 16], "samples": 80},
    "seed": 3,
}


def serial_reference(body=SWEEP_BODY):
    """The run_sweep serial ground truth for a fig4a request body."""
    params = body["params"]
    grid = sweep_grid(n=params["n_values"], w=params["w_values"])
    sweep = run_sweep(
        partial(
            _open_point, concurrency=2, samples=params["samples"], seed=body["seed"]
        ),
        grid,
    )
    return {
        f"N={n}": sweep.where(n=n).series("w", float)[1] for n in params["n_values"]
    }


class TestSweepJobs:
    def test_fig4a_sweep_byte_identical_to_serial(self, service):
        _, client = service
        status, submitted, _ = client.post("/v1/sweeps", SWEEP_BODY)
        assert status == 202
        assert submitted["cache_hit"] is False
        final = client.poll_job(submitted["id"])
        assert final["state"] == "succeeded"
        result = final["result"]
        assert result["w_values"] == SWEEP_BODY["params"]["w_values"]
        # Byte-identical: same JSON encoding, not just approximately equal.
        assert json.dumps(result["series"], sort_keys=True) == json.dumps(
            serial_reference(), sort_keys=True
        )

    def test_resubmission_served_from_cache(self, service):
        _, client = service
        status, first, _ = client.post("/v1/sweeps", SWEEP_BODY)
        assert status == 202
        first_result = client.poll_job(first["id"])["result"]
        assert metric_value(client, "repro_cache_hits_total") == 0

        # Same config, different spelling: key order shuffled, ints as
        # floats. Must hit the cache without re-running the engine.
        respelled = {
            "seed": 3.0,
            "params": {
                "samples": 80.0,
                "w_values": [4.0, 8, 16],
                "n_values": [512, 1024.0],
            },
            "kind": "fig4a",
        }
        status, second, _ = client.post("/v1/sweeps", respelled)
        assert status == 200  # completed immediately, no queueing
        assert second["cache_hit"] is True
        assert second["state"] == "succeeded"
        cached = client.poll_job(second["id"])
        assert cached["cache_hit"] is True
        assert cached["result"] == first_result
        assert metric_value(client, "repro_cache_hits_total") == 1
        # The engine ran exactly once: one miss, one hit.
        assert metric_value(client, "repro_cache_misses_total") == 1

    def test_different_seed_misses_cache(self, service):
        _, client = service
        body = dict(SWEEP_BODY, params=dict(SWEEP_BODY["params"], samples=20))
        status, first, _ = client.post("/v1/sweeps", body)
        assert status == 202
        client.poll_job(first["id"])
        status, second, _ = client.post("/v1/sweeps", dict(body, seed=99))
        assert status == 202
        assert second["cache_hit"] is False
        client.poll_job(second["id"])

    def test_model_sweep_kind(self, service):
        _, client = service
        body = {
            "kind": "model",
            "params": {"n_values": [4096], "w_values": [10, 20], "concurrency": 2},
        }
        status, submitted, _ = client.post("/v1/sweeps", body)
        assert status == 202
        final = client.poll_job(submitted["id"])
        assert final["state"] == "succeeded"
        from repro.core.model import ModelParams, conflict_likelihood

        expected = float(conflict_likelihood(20.0, ModelParams(n_entries=4096)))
        assert final["result"]["raw"]["N=4096"][1] == expected

    def test_invalid_sweep_bodies_400(self, service):
        _, client = service
        for body in (
            {"kind": "nope"},
            {"kind": "fig4a", "params": {"samples": 0}},
            {"kind": "fig4a", "params": {"bogus_param": 1}},
            {"kind": "fig4a", "params": {"n_values": []}},
            {"kind": "fig4a", "params": {"samples": 10**9}},
            {"kind": "fig4a", "seed": -1},
            [1, 2, 3],
        ):
            status, data, _ = client.post("/v1/sweeps", body)
            assert status == 400, body
            assert "error" in data

    def test_closed_sweep_validation_400(self, service):
        """Impossible concurrency is a clean 400, not a worker crash."""
        _, client = service
        params = {"n_values": [128], "c_values": [64]}
        status, data, _ = client.post("/v1/sweeps", {"kind": "closed", "params": params})
        assert status == 400
        assert "error" in data

    def test_fig2a_sweep_validation_400(self, service):
        """Non-power-of-two table sizes and too-short traces are clean
        400s, not worker crashes."""
        _, client = service
        for params in (
            {"n_values": [1000]},
            {"n_values": [128], "accesses": 10},
        ):
            status, data, _ = client.post(
                "/v1/sweeps", {"kind": "fig2a", "params": params}
            )
            assert status == 400, params
            assert "error" in data

    @pytest.mark.parametrize("kind", ["fig4a", "fig2a", "fig3", "closed"])
    def test_engine_param_is_400(self, service, kind):
        """No request names an engine: the fast engine always runs, and
        a request that still sends one gets the unknown-parameter 400."""
        _, client = service
        params = {"n_values": [128]} if kind == "closed" else {}
        status, data, _ = client.post(
            "/v1/sweeps", {"kind": kind, "params": dict(params, engine="fast")}
        )
        assert status == 400
        assert "unknown parameter(s): engine" in data["error"]

    def test_unknown_job_404(self, service):
        _, client = service
        assert client.get("/v1/sweeps/doesnotexist")[0] == 404

    def test_cancel_completed_job_conflicts(self, service):
        _, client = service
        body = {"kind": "model", "params": {"n_values": [64], "w_values": [2]}}
        _, submitted, _ = client.post("/v1/sweeps", body)
        client.poll_job(submitted["id"])
        status, _, _ = client.request("DELETE", f"/v1/sweeps/{submitted['id']}")
        assert status == 409

    def test_queue_wait_histogram_observed(self, service):
        """Every executed job contributes one queue-wait sample."""
        _, client = service
        body = {"kind": "model", "params": {"n_values": [64], "w_values": [2]}}
        _, submitted, _ = client.post("/v1/sweeps", body)
        client.poll_job(submitted["id"])
        assert metric_value(client, "repro_queue_wait_seconds_count") == 1
        assert metric_value(client, "repro_queue_wait_seconds_sum") >= 0.0
        # a cache hit never enters the queue, so the count must not move
        status, again, _ = client.post("/v1/sweeps", body)
        assert again["cache_hit"] is True
        assert metric_value(client, "repro_queue_wait_seconds_count") == 1

    def test_placement_sweep_byte_identical_to_serial(self, service):
        """An allocator-placement sweep over the wire matches the
        catalog's serial ``execute_sweep`` byte for byte."""
        from repro.sim.catalog import SWEEP_KINDS, execute_sweep

        _, client = service
        params = {
            "n_values": [256, 1024],
            "placements": ["bump", "slab"],
            "hash_kinds": ["mask"],
            "samples": 30,
            "objects": 128,
            "w": 6,
        }
        _, submitted, _ = client.post(
            "/v1/sweeps", {"kind": "placement", "params": params, "seed": 5}
        )
        final = client.poll_job(submitted["id"])
        assert final["state"] == "succeeded"
        serial = execute_sweep(
            "placement", SWEEP_KINDS["placement"].validate(params), 5
        )
        assert json.dumps(final["result"], sort_keys=True) == json.dumps(
            serial, sort_keys=True
        )

    def test_fig7_sweep_reports_tagged_elimination(self, service):
        _, client = service
        params = {
            "n_values": [256],
            "w_values": [4, 8],
            "rounds": 10,
            "objects": 128,
            "concurrency": 3,
        }
        _, submitted, _ = client.post(
            "/v1/sweeps", {"kind": "fig7", "params": params, "seed": 5}
        )
        final = client.poll_job(submitted["id"])
        assert final["state"] == "succeeded"
        totals = final["result"]["false_conflicts_by_table"]["N=256"]
        assert totals["tagged"] == 0

    def test_placement_registry_errors_are_400(self, service):
        """Unknown hash kinds and placement names surface the registry's
        own ValueError message as a clean 400 at admission."""
        _, client = service
        cases = (
            ("placement", {"hash_kinds": ["crc32"]}, "unknown hash kind"),
            ("placement", {"placements": ["arena"]}, "unknown placement"),
            ("placement", {"n_values": [1000]}, "powers of two"),
            ("placement", {"w": 64, "objects": 128}, "objects per thread"),
            ("fig7", {"hash_kind": "crc32"}, "unknown hash kind"),
            ("fig7", {"placement": "arena"}, "unknown placement"),
            ("fig7", {"tables": ["victim"]}, "tables"),
        )
        for kind, params, needle in cases:
            status, data, _ = client.post(
                "/v1/sweeps", {"kind": kind, "params": params}
            )
            assert status == 400, (kind, params)
            assert needle in data["error"], (kind, params, data["error"])

    def test_execution_mode_validated_and_echoed(self, service):
        _, client = service
        status, data, _ = client.post(
            "/v1/sweeps", dict(SWEEP_BODY, execution="galactic")
        )
        assert status == 400 and "execution" in data["error"]
        # the default local mode is not echoed back in the request body
        _, submitted, _ = client.post("/v1/sweeps", SWEEP_BODY)
        job = client.poll_job(submitted["id"])
        assert "execution" not in job["params"]


class TestBackpressure:
    def test_full_queue_gets_429_with_retry_after(self):
        config = ServiceConfig(port=0, workers=1, queue_capacity=2)
        with ServiceThread(Service(config)) as handle:
            client = Client(handle.host, handle.port)
            try:
                release = threading.Event()
                # Pin the single worker and fill the remaining slot
                # beneath the HTTP layer, so admission state is exact.
                handle.service.queue.submit(partial(release.wait, 30.0))
                in_flight_body = {
                    "kind": "model",
                    "params": {"n_values": [128], "w_values": [4]},
                }
                status, queued, _ = client.post("/v1/sweeps", in_flight_body)
                assert status == 202

                status, data, headers = client.post("/v1/sweeps", SWEEP_BODY)
                assert status == 429
                assert "Retry-After" in headers
                assert int(headers["Retry-After"]) >= 1
                assert data["queue_capacity"] == 2
                assert metric_value(client, "repro_queue_rejections_total") == 1

                # In-flight jobs still complete once the blocker clears.
                release.set()
                final = client.poll_job(queued["id"])
                assert final["state"] == "succeeded"

                # And capacity is admitting again.
                status, _, _ = client.post("/v1/sweeps", in_flight_body)
                assert status == 200  # cache hit from the completed run
            finally:
                client.close()

    def test_jobs_by_terminal_state_exported(self, service):
        _, client = service
        body = {"kind": "model", "params": {"n_values": [32], "w_values": [2]}}
        _, submitted, _ = client.post("/v1/sweeps", body)
        client.poll_job(submitted["id"])
        status, text, _ = client.get("/metrics")
        assert status == 200
        assert 'repro_jobs_total{state="succeeded"}' in text


class TestLifecycle:
    def test_ephemeral_port_reported(self):
        with ServiceThread(Service(ServiceConfig(port=0))) as handle:
            assert handle.port != 0

    def test_stop_drains_in_flight_jobs(self):
        config = ServiceConfig(port=0, workers=1, queue_capacity=4, drain_timeout=30.0)
        handle = ServiceThread(Service(config)).start()
        client = Client(handle.host, handle.port)
        body = {
            "kind": "fig4a",
            "params": {"n_values": [256], "w_values": [4], "samples": 200},
            "seed": 1,
        }
        _, submitted, _ = client.post("/v1/sweeps", body)
        client.close()
        handle.stop()  # graceful: waits for the job
        job = handle.service.queue.get(submitted["id"])
        assert job is not None
        assert job.state.value == "succeeded"

    def test_stop_with_open_keep_alive_connection_leaves_no_pending_task(self, caplog):
        handle = ServiceThread(Service(ServiceConfig(port=0))).start()
        client = Client(handle.host, handle.port)
        assert client.get("/healthz")[0] == 200  # connection stays open
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            handle.stop()
            gc.collect()
        client.close()
        destroyed = [r for r in caplog.records if "destroyed but it is pending" in r.getMessage()]
        assert destroyed == []

    def test_two_services_side_by_side(self):
        with ServiceThread(Service(ServiceConfig(port=0))) as a:
            with ServiceThread(Service(ServiceConfig(port=0))) as b:
                assert a.port != b.port
                ca, cb = Client(a.host, a.port), Client(b.host, b.port)
                assert ca.get("/healthz")[0] == 200
                assert cb.get("/healthz")[0] == 200
                ca.close()
                cb.close()
