"""Byte goldens of the model endpoints: every 200 body and 400 text.

The model endpoints promise that a change to how a request is validated
or evaluated leaves the wire alone.  These goldens hold them to it:

* for seeded GET and POST requests on ``/v1/model/conflict``,
  ``/v1/model/sizing``, ``/v1/model/capacity`` and ``/v1/birthday``
  (people and target modes), the SHA-256 of every status and body,
  request after request;
* capacity points whose table lands exactly on a power of two, and
  points whose table is one entry or just past a power of two;
* integers a float cannot hold (``2**53 + 1``, ``10**300``), echoed as
  written;
* the exact ``"error"`` text of each bad body and bad query.

The seeded bodies mix ints and floats in every field, integral floats
in integer fields, scalars that broadcast, and missing defaults, so the
Python types of the echoed columns are pinned along with the values.
Like the sweep result goldens, the digests pin the last bit of numpy's
float64 ``expm1``/``log1p`` as x86-64 builds compute them.  To
re-record after a deliberate wire change, run with
``MODEL_GOLDEN_PRINT=1`` and ``-s`` and paste the printed digests.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random

import pytest

from repro.service.server import Service, ServiceConfig, ServiceThread

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.fixture(scope="module")
def conn():
    with ServiceThread(Service(ServiceConfig(port=0, workers=1))) as handle:
        connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        yield connection
        connection.close()


def send(conn, method: str, path: str, body=None) -> tuple[int, bytes]:
    """One request; a body is JSON-encoded with NaN/Infinity tokens allowed."""
    payload = None if body is None else json.dumps(body)
    conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _num(rng: random.Random, value: float, integral: bool):
    """``value`` as an int, an integral float, or (if not integral) a float."""
    if integral:
        return rng.choice([int(value), float(int(value))])
    return value


def _conflict_body(rng: random.Random, size: int) -> dict:
    body = {
        "w": [rng.choice([rng.randint(0, 500), float(rng.randint(0, 500)),
                          rng.uniform(0.0, 500.0)]) for _ in range(size)],
        "n": [_num(rng, rng.choice([1 << rng.randint(0, 24), rng.randint(1, 10**6)]), True)
              for _ in range(size)],
        "c": [_num(rng, rng.randint(1, 64), True) for _ in range(size)],
        "alpha": [rng.choice([rng.randint(0, 4), round(rng.uniform(0.0, 8.0), 3)])
                  for _ in range(size)],
    }
    return _shape(rng, body, required=("w", "n"))


def _sizing_body(rng: random.Random, size: int) -> dict:
    body = {
        "w": [_num(rng, rng.randint(1, 5000), True) for _ in range(size)],
        "commit": [rng.choice([round(rng.uniform(0.001, 0.999), 4), rng.uniform(1e-9, 0.5)])
                   for _ in range(size)],
        "c": [_num(rng, rng.randint(2, 16), True) for _ in range(size)],
        "alpha": [rng.choice([rng.randint(0, 4), round(rng.uniform(0.0, 8.0), 3)])
                  for _ in range(size)],
    }
    return _shape(rng, body, required=("w", "commit"))


def _people_body(rng: random.Random, size: int) -> dict:
    body = {
        "people": [_num(rng, rng.randint(0, 3000), True) for _ in range(size)],
        "days": [_num(rng, rng.choice([365, rng.randint(1, 10**6)]), True)
                 for _ in range(size)],
    }
    return _shape(rng, body, required=("people",))


def _target_body(rng: random.Random, size: int) -> dict:
    body = {
        "target": [round(rng.uniform(0.01, 0.99), 4) for _ in range(size)],
        "days": [_num(rng, rng.choice([365, rng.randint(1, 10**6)]), True)
                 for _ in range(size)],
    }
    return _shape(rng, body, required=("target",))


def _shape(rng: random.Random, body: dict, required: tuple[str, ...]) -> dict:
    """Drop some optional fields and turn some others into broadcast scalars."""
    out = {}
    arrays = 0
    for i, (name, column) in enumerate(body.items()):
        roll = rng.random()
        if name not in required and roll < 0.25:
            continue  # take the default
        if roll < 0.5 and (arrays or i < len(body) - 1):
            out[name] = column[0]  # a scalar broadcasts
        else:
            out[name] = column
            arrays += 1
    if not arrays:
        name = required[0]
        out[name] = body[name]
    return out


def _query(point: dict) -> str:
    return "&".join(f"{key}={value}" for key, value in point.items())


def _points(body: dict) -> list[dict]:
    """The POST body's points, as GET query dicts (scalars repeat)."""
    size = max(len(v) for v in body.values() if isinstance(v, list))
    return [
        {key: (value[i] if isinstance(value, list) else value) for key, value in body.items()}
        for i in range(size)
    ]


BODIES = {
    "conflict": ("/v1/model/conflict", _conflict_body),
    "sizing": ("/v1/model/sizing", _sizing_body),
    "capacity": ("/v1/model/capacity", _sizing_body),
    "birthday_people": ("/v1/birthday", _people_body),
    "birthday_target": ("/v1/birthday", _target_body),
}


def seeded_requests(group: str) -> list[tuple[str, str, object]]:
    """Eight seeded POSTs of 1-40 points, then a GET for each of some points."""
    path, make = BODIES[group]
    rng = random.Random(f"model-golden-{group}")
    requests: list[tuple[str, str, object]] = []
    for _ in range(8):
        body = make(rng, rng.randint(1, 40))
        requests.append(("POST", path, body))
        points = _points(body)
        for point in rng.sample(points, min(3, len(points))):
            requests.append(("GET", f"{path}?{_query(point)}", None))
    return requests


# Capacity and sizing edges.  Entries are C (C-1) (1+2a) W^2 / (2 (1-commit)).
EDGE_POINTS = [
    {"w": 1, "commit": 0.5, "c": 2, "alpha": 0.0},  # entries = 2 = 2^1 exactly
    {"w": 1, "commit": 0.75, "c": 2, "alpha": 0.0},  # 4 = 2^2
    {"w": 8, "commit": 0.5, "c": 2, "alpha": 0.5},  # 256 = 2^8
    {"w": 8, "commit": 0.50001, "c": 2, "alpha": 0.5},  # 257: just past 2^8
    {"w": 4, "commit": 0.375, "c": 2, "alpha": 2.0},  # 128
    {"w": 4, "commit": 0.37501, "c": 2, "alpha": 2.0},  # 129
    {"w": 1, "commit": 1e-17, "c": 2, "alpha": 0.0},  # 1 - commit rounds to 1: one entry
    {"w": 1, "commit": 1e-9, "c": 2, "alpha": 0.0},  # just over one entry: 2
    {"w": 1, "commit": 0.999999, "c": 2, "alpha": 0.0},  # commit near one
    {"w": 1 << 16, "commit": 0.5, "c": 2, "alpha": 0.0},  # 2^33
    {"w": 71, "commit": 0.95, "c": 8, "alpha": 2.0},  # the paper's 14M
]


def edge_requests() -> list[tuple[str, str, object]]:
    requests: list[tuple[str, str, object]] = []
    for path in ("/v1/model/sizing", "/v1/model/capacity"):
        columns = {key: [p[key] for p in EDGE_POINTS] for key in EDGE_POINTS[0]}
        requests.append(("POST", path, columns))
        requests += [("GET", f"{path}?{_query(p)}", None) for p in EDGE_POINTS]
    return requests


def wide_requests() -> list[tuple[str, str, object]]:
    requests: list[tuple[str, str, object]] = []
    for text, n in ((str(2**53 + 1), 2**53 + 1), (str(10**300), 10**300), ("1e300", 1e300)):
        requests.append(("GET", f"/v1/model/conflict?w=1&n={text}", None))
        requests.append(("POST", "/v1/model/conflict", {"w": [1, 2.5], "n": [n, 4096]}))
        requests.append(("POST", "/v1/model/conflict", {"w": [1, 2.5], "n": n}))
    requests.append(("POST", "/v1/birthday", {"people": [2**53 + 1, 23], "days": 10**6}))
    return requests


def digest(conn, requests) -> str:
    """SHA-256 over every request's method, status and body; each must be a 200."""
    sha = hashlib.sha256()
    for method, path, body in requests:
        status, data = send(conn, method, path, body)
        assert status == 200, (method, path, body, data)
        sha.update(f"{method} {status}\n".encode())
        sha.update(data)
    return sha.hexdigest()


GOLDEN_DIGESTS = {
    "conflict": "d48acf56a47a82faad0d2badd484a6efe61b89ee5cb4d4c680da84325afba73e",
    "sizing": "8424a815b6aa977629696ad47203b13bd205542a300705cee442dc21b128419c",
    "capacity": "f3d32f560b3051ee697611e6667d5a4d0ef3bc088d8a091f89b64e97090bd4ce",
    "birthday_people": "b1c5d237ca1bb9ce665160704709b9024109ee7edf52e0e85a4253baa02ce182",
    "birthday_target": "af7f28972261c4ce93f3d07ee0608498ceba40b8af647ad9c3f46f18674962be",
    "edges": "e45e895c057ddadcbc5dd83dbe25c0819c0a64d25f8de36714477c795f7faca2",
    "wide": "75a428ae7f3514469bdf071d49f2f102e9ff9a7381219fc6959d82142d394be0",
}


def _requests(group: str):
    if group == "edges":
        return edge_requests()
    if group == "wide":
        return wide_requests()
    return seeded_requests(group)


@pytest.mark.parametrize("group", sorted(GOLDEN_DIGESTS))
def test_response_bytes_match_golden(conn, group):
    got = digest(conn, _requests(group))
    if os.environ.get("MODEL_GOLDEN_PRINT"):
        print(f"\n    {group!r}: {got!r},")
    assert got == GOLDEN_DIGESTS[group], "model response bytes changed"


def test_wide_integers_echo_as_written(conn):
    for n in (2**53 + 1, 10**300):
        status, data = send(conn, "GET", f"/v1/model/conflict?w=1&n={n}")
        assert status == 200
        assert f'"n": {n},'.encode() in data
        status, data = send(conn, "POST", "/v1/model/conflict", {"w": [1], "n": [n]})
        assert status == 200
        assert f'"n": [{n}],'.encode() in data


NAN, INF = float("nan"), float("inf")

# (body, exact error) for POST /v1/model/conflict.
BAD_CONFLICT_BODIES = [
    ({"n": [4096]}, "missing required field 'w'"),
    ({"w": [10], "n": [4096], "bogus": [1]},
     "unknown field(s): 'bogus'; expected ['w', 'n', 'c', 'alpha']"),
    ({"w": [1, 2], "n": [1, 2, 3]}, "field 'n' has length 3, expected 2"),
    ({"w": 10, "n": 4096},
     "at least one field must be a JSON array of points "
     "(use the GET endpoint for single points)"),
    ({"w": ["ten"], "n": [4096]}, "field 'w' must contain only numbers"),
    ({"w": [True], "n": [4096]}, "field 'w' must contain only numbers"),
    ({"w": [NAN], "n": [4096]}, "field 'w' must be finite everywhere"),
    ({"w": [-1], "n": [4096]}, "write footprint W must be non-negative"),
    ([1, 2, 3], "request body must be a JSON object"),
    ({"w": [], "n": 4096}, "field 'w' must not be empty"),
    ({"w": [1, INF], "n": 4096}, "field 'w' must be finite everywhere"),
    ({"w": [1, -INF], "n": [4096, "x"]}, "field 'w' must be finite everywhere"),
    ({"w": [1, 2], "n": [4096, 4096.5]}, "field 'n' must contain integers"),
    ({"w": [1, 2], "n": [4096, None]}, "field 'n' must contain only numbers"),
    ({"w": [1, [2]], "n": 4096}, "field 'w' must contain only numbers"),
    ({"w": [1], "n": [10**400]}, "field 'n' must be finite everywhere"),
    ({"w": [1], "n": 4096, "c": 2.5}, "field 'c' must contain integers"),
    ({"w": [1], "n": 4096, "alpha": "2"}, "field 'alpha' must contain only numbers"),
    ({"w": [1], "n": [0]}, "n_entries must be positive integers"),
    ({"w": [1], "n": [4096], "c": [0]}, "concurrency must be integers >= 1"),
    ({"w": [1], "n": [4096], "alpha": [-0.5]}, "alpha must be non-negative"),
    ({"w": [1.0, 1e200], "n": [4096, 1]},
     "result 'raw' is non-finite at point 1; the model overflows for these parameters"),
    ({"w": list(range(65537)), "n": 4096},
     "batch of 65537 points exceeds the limit of 65536"),
]

# (method, path, body, exact error) on the other endpoints and on GETs.
BAD_REQUESTS = [
    ("POST", "/v1/model/sizing", {"w": [71], "commit": [1.5]},
     "commit_probability must be in (0, 1)"),
    ("POST", "/v1/model/sizing", {"w": [71.5], "commit": [0.5]},
     "field 'w' must contain integers"),
    ("POST", "/v1/model/sizing", {"w": [71], "commit": [0.5], "c": [1]},
     "concurrency must be integers >= 2 for conflicts"),
    ("POST", "/v1/model/sizing", {"w": [10**9], "commit": [1 - 1e-15], "c": [64]},
     "required table size overflows for these parameters; "
     "shrink W or relax the commit target"),
    ("POST", "/v1/model/capacity", {"w": [0], "commit": [0.5]}, "W must be positive"),
    ("POST", "/v1/model/capacity", {"w": [71], "commit": [-INF]},
     "field 'commit' must be finite everywhere"),
    ("POST", "/v1/birthday", {"people": [23], "target": [0.5]},
     "pass either 'people' or 'target', not both"),
    ("POST", "/v1/birthday", {"people": [-1]}, "people must be in [0, 2**62]"),
    ("POST", "/v1/birthday", {"target": [1.0]}, "target must be in (0, 1)"),
    ("POST", "/v1/birthday", {"people": [10**400]}, "field 'people' must be finite everywhere"),
    ("GET", "/v1/model/conflict?w=-1&n=4096", None, "write footprint W must be non-negative"),
    ("GET", "/v1/model/conflict?w=1", None, "missing query parameter 'n'"),
    ("GET", "/v1/model/conflict?w=1&n=4096.5", None, "query parameter 'n' must be an integer"),
    ("GET", "/v1/model/conflict?w=nan&n=4096", None,
     "query parameter 'w' must be finite, got 'nan'"),
    ("GET", "/v1/model/conflict?w=1e200&n=1", None,
     "result 'raw' is non-finite at point 0; the model overflows for these parameters"),
    ("GET", "/v1/model/sizing?w=71&commit=1.5", None, "commit_probability must be in (0, 1)"),
    ("GET", "/v1/model/sizing?w=71&commit=0.5&commit=0.9", None,
     "query parameter 'commit' given 2 times; pass it once"),
    ("GET", "/v1/model/capacity?w=0&commit=0.5", None, "W must be positive"),
    ("GET", "/v1/model/capacity?w=71&commit=x", None,
     "query parameter 'commit' must be a number"),
    ("GET", "/v1/birthday?people=-1", None, "people must be in [0, 2**62]"),
    ("GET", "/v1/birthday?target=2", None, "target must be in (0, 1)"),
    ("GET", "/v1/birthday?people=2&days=0", None, "days must be in [1, 2**62]"),
]


@pytest.mark.parametrize("body,error", BAD_CONFLICT_BODIES,
                         ids=[f"conflict{i}" for i in range(len(BAD_CONFLICT_BODIES))])
def test_bad_conflict_body_error_text(conn, body, error):
    status, data = send(conn, "POST", "/v1/model/conflict", body)
    assert (status, json.loads(data)) == (400, {"error": error})


@pytest.mark.parametrize("method,path,body,error", BAD_REQUESTS,
                         ids=[f"{m} {p}" for m, p, _, _ in BAD_REQUESTS])
def test_bad_request_error_text(conn, method, path, body, error):
    status, data = send(conn, method, path, body)
    assert (status, json.loads(data)) == (400, {"error": error})
