"""Pinned digests of every sweep kind's assembled result, per ``result_version``.

For each ``CASES`` entry of ``test_frame_identity.py`` (plus
``MODEL_CASE`` for the closed-form ``model`` kind) at seed 7: the
SHA-256 of ``json.dumps(result, sort_keys=True, allow_nan=False)``.
The grid kinds' digests were recorded from the list-of-dicts result
path before the frame became the only way a grid kind's result is
held.  The serial runner, the process pool, the in-process cluster and
a cluster whose workers each run a pool must all reproduce the same
bytes, so one digest per kind covers all four modes.

Digests are keyed by the kind's ``result_version``, because every
cache key of a kind's outcomes carries that version: a change that
moves a single outcome bit must bump it, or old disk entries would
still hit.  The test reads the kind's current version, so it fails
both when the bytes change under an unchanged version and when a
bumped version has no digest pinned yet.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import pytest

from repro.sim.catalog import SWEEP_KINDS, execute_sweep

from tests.sim.test_frame_identity import CASES, _params

SEED = 7

MODEL_CASE = {"n_values": [512, 1024, 4096], "w_values": [4, 8, 32],
              "concurrency": 4, "alpha": 1.5}

RESULT_DIGESTS = {
    "closed": {1: "afd97b71ad173b0952d6ec73f5903c7ee4f385a5e653f4064a3b56450ad116c8"},
    "fig2a": {1: "a8eacdaf73370f7b53467406c6b40b2c01ad1da9303352bd37b5a5c006468b3b"},
    "fig3": {1: "2158e595fad0df8148e1a24ea437a1a8be5e5e73775d3347d88d28f59d11d3db"},
    "fig4a": {1: "39f6516adb6b2661e2b496f858532f76811050533ab0777b4c5e968c118a5475"},
    "fig7": {1: "cc19eb02d9526d5ecc5aa459d53540406e8378630d56c4eaf91b5c2bdf286b9a"},
    "model": {1: "43f60954a2134ce9e8c889a0babe9d89a9f9921952369b3ecd2cda76c67337fa"},
    "placement": {1: "1bd345b9ce524358d98f14151e136a742cbac8f01001ae11c84af632e0b1824b"},
}

MODES = {
    "serial": {},
    "jobs2": {"jobs": 2},
    "cluster": {"execution": "cluster"},
    "cluster_jobs2": {"jobs": 2, "execution": "cluster"},
}


def result_digest(result: Any) -> str:
    """SHA-256 of an assembled result's canonical JSON."""
    text = json.dumps(result, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def assert_pinned(kind_name: str, digest: str) -> None:
    """``digest`` must be the one pinned for the kind's current version."""
    version = SWEEP_KINDS[kind_name].result_version
    pinned = RESULT_DIGESTS[kind_name].get(version)
    assert digest == pinned, (
        f"{kind_name} result_version {version}: digest {digest} != pinned {pinned}; "
        "outcome bytes changed: bump result_version and pin the new digest under it"
    )


def test_every_case_is_pinned():
    assert set(RESULT_DIGESTS) == set(CASES) | {"model"} == set(SWEEP_KINDS)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("kind_name", sorted(RESULT_DIGESTS))
def test_assembled_result_pinned(kind_name, mode):
    raw = MODEL_CASE if kind_name == "model" else _params(kind_name)
    params = SWEEP_KINDS[kind_name].validate(raw)
    result = execute_sweep(kind_name, params, SEED, **MODES[mode])
    assert_pinned(kind_name, result_digest(result))


def test_bumped_version_without_a_pin_fails(monkeypatch):
    kind = SWEEP_KINDS["model"]
    digest = RESULT_DIGESTS["model"][kind.result_version]
    monkeypatch.setattr(kind, "result_version", kind.result_version + 1)
    with pytest.raises(AssertionError, match="bump result_version"):
        assert_pinned("model", digest)


def test_changed_bytes_without_a_bump_fail():
    with pytest.raises(AssertionError, match="bump result_version"):
        assert_pinned("model", "0" * 64)
