"""Pinned digests of every frame-identity case's assembled result.

For each ``CASES`` entry of ``test_frame_identity.py`` at seed 7: the
SHA-256 of ``json.dumps(result, sort_keys=True, allow_nan=False)``,
recorded from the list-of-dicts result path before the frame became
the only way a grid kind's result is held.  The serial runner, the
process pool, the in-process cluster and a cluster whose workers each
run a pool must all reproduce the same bytes, so one digest per kind
covers all four modes.  A change to a point function, a frame column
or an assembler that moves a single bit fails here.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import pytest

from repro.sim.catalog import SWEEP_KINDS, execute_sweep

from tests.sim.test_frame_identity import CASES, _params

SEED = 7

RESULT_DIGESTS = {
    "closed": "afd97b71ad173b0952d6ec73f5903c7ee4f385a5e653f4064a3b56450ad116c8",
    "fig2a": "a8eacdaf73370f7b53467406c6b40b2c01ad1da9303352bd37b5a5c006468b3b",
    "fig3": "2158e595fad0df8148e1a24ea437a1a8be5e5e73775d3347d88d28f59d11d3db",
    "fig4a": "39f6516adb6b2661e2b496f858532f76811050533ab0777b4c5e968c118a5475",
    "fig7": "cc19eb02d9526d5ecc5aa459d53540406e8378630d56c4eaf91b5c2bdf286b9a",
    "placement": "1bd345b9ce524358d98f14151e136a742cbac8f01001ae11c84af632e0b1824b",
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


def test_every_case_is_pinned():
    assert set(RESULT_DIGESTS) == set(CASES)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("kind_name", sorted(CASES))
def test_assembled_result_pinned(kind_name, mode):
    params = SWEEP_KINDS[kind_name].validate(_params(kind_name))
    result = execute_sweep(kind_name, params, SEED, **MODES[mode])
    assert result_digest(result) == RESULT_DIGESTS[kind_name]
