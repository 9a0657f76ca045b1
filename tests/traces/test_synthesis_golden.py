"""Pinned SHA-256 digests of synthesized traces.

Trace synthesis feeds Figures 2 and 3; any change to the order in which
it consumes its generator silently changes every downstream number.  The
digests below cover ``blocks``, ``is_write`` and ``instr`` (with their
dtypes) of one 250k-access trace per SPEC2000 profile, of a
layout-correlated SPECJBB-like trace, and of that trace after
true-conflict removal.

Every SPEC2000 profile has three strides and a power-of-two ``span``, and
draws from PCG64, so ``VARIANT_DIGESTS`` also pins the layout draws
those miss: a single stride (a one-way pick draws nothing), spans that
are not a power of two (the bounded draw can reject) and at least 2**32
(the 64-bit draw), and a Philox generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.traces.dedup import remove_true_conflicts
from repro.traces.events import AccessTrace
from repro.traces.workloads import SPEC2000_PROFILES, specjbb_like, synthesize_trace
from repro.util.rng import stream_rng

SPEC_DIGESTS = {
    "bzip2": "1874368601c319c315f62792ac6f4a677996e849f7b2320966a00b32d3672d68",
    "crafty": "d4457b06b459eb78e0f3eb2b4fad4a5a2790317c9a9cc90b44a0ab3eb6bc186a",
    "eon": "cf733fbd94e6ba91819f1bc136c4ce52156bba95948113d346f533636e13b6ef",
    "gap": "850c0c5157e4429d1d46a913fb69424cffb7ce7f0351286d5e1fd4dc6c4c7075",
    "gcc": "a3c973c5593363458723f09e586cb4df3cd5318fc65fd9b2695afa45dc848b31",
    "gzip": "84c021866e1c9f3e5a61b79f494ba14842455cd424fbf4973e90defcd534872a",
    "mcf": "257053fa0c8fdef654b4b99a7e6fc65dc0f66557d173adee6b39a5c35c6afbd5",
    "parser": "598c25389d15ce755c63961533c6ba131f759bd1fb679992f2f6768bf9563410",
    "perlbmk": "250f1bf7c7f38c21fddac7a46266f9ba9ac28992377413053008c76b28c36a6f",
    "twolf": "bde4c0d621874785822412c7926b107304b60093f92719eb7bb258a2f2362f46",
    "vortex": "085fb84027d353eee523d55da24f0973ef31b0a48db91a85b2eb56bdaafaf7fe",
    "vpr": "3aee5d8198dc6d12430f72284aef47f149276a9d24bd8a975b50c9b944461aab",
}

VARIANT_DIGESTS = {
    "one-stride": "7100f72165e448da004e9192351e59b099ba649e915b3be8ef58bf064797059b",
    "odd-span": "dc9b89b527424a91f39e7358aa147c52510b115c2bf78081863fe001e28e992f",
    "wide-span": "d3cbd5825c8dcc72e7b21260b68813f30b1704a221ff1d4a2c4db50dec22842b",
    "philox": "606a7729520d7606d7daf659a3334a8eb0c933901367a4576f6750b90f592a6a",
}

SPECJBB_DIGESTS = [
    "7b37b9c5e8dd8af0ecb6af483ab93b57ff3bd240a5d31bac69d3327c003b6147",
    "8f07660bdb6e9baefe286a442e311b39c803ce1e1e26787accf56384345b96fa",
    "a196bbeecfb8534ed004e608e90641b0bfd04dc8e6c39d6e569e846a27e0a844",
    "c07509ea4b4b13f994de5a6b1fdc1f531ee223bab8a5f3e0fd0610ecd6868b5f",
]

DEDUP_DIGESTS = [
    "2553e79d4d2651d9d23bbf3bab2c8891444cf00d42c44a6158ed9cc7d74d278d",
    "265b8b2c6b9d4009b2a1b259056c50d9aea5cfae04b5cb821b522ab5f5784664",
    "6a42b6a261d94ab234a9983c68941bb441382d2f94e75f27e601d7ea1873f1f5",
    "4f9b7507cf8f1f2d2ac1129469e03071e0594c6e2368cf2c0c1bcba9c7d26f30",
]


def digest(trace: AccessTrace) -> str:
    h = hashlib.sha256()
    for arr in (trace.blocks, trace.is_write, trace.instr):
        h.update(arr.dtype.str.encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_every_profile_pinned():
    assert sorted(SPEC_DIGESTS) == sorted(SPEC2000_PROFILES)


@pytest.mark.parametrize("name", sorted(SPEC_DIGESTS))
def test_synthesize_trace_pinned(name):
    rng = stream_rng(11, "golden-synth", bench=name)
    trace = synthesize_trace(SPEC2000_PROFILES[name], 250_000, rng, base=1 << 30)
    assert digest(trace) == SPEC_DIGESTS[name]


def variant(key: str) -> tuple:
    """``(profile, rng)`` of one ``VARIANT_DIGESTS`` trace."""
    spec = SPEC2000_PROFILES
    if key == "philox":
        return spec["vpr"], np.random.Generator(np.random.Philox(3))
    profile = {
        "one-stride": replace(spec["gcc"], strides=(5,)),
        "odd-span": replace(spec["mcf"], span=3_000_017),
        "wide-span": replace(spec["twolf"], span=1 << 33),
    }[key]
    return profile, stream_rng(11, "golden-synth", bench=key)


@pytest.mark.parametrize("key", sorted(VARIANT_DIGESTS))
def test_layout_draw_variants_pinned(key):
    profile, rng = variant(key)
    trace = synthesize_trace(profile, 250_000, rng, base=1 << 30)
    assert digest(trace) == VARIANT_DIGESTS[key]


def test_specjbb_like_and_dedup_pinned():
    trace = specjbb_like(4, 20_000, seed=3, layout_correlation=0.3)
    assert [digest(t) for t in trace] == SPECJBB_DIGESTS
    assert [digest(t) for t in remove_true_conflicts(trace)] == DEDUP_DIGESTS
