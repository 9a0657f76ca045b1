"""numpy's ziggurat ``standard_exponential``, emulated from raw PCG64 words.

The burst layout decodes its geometric burst lengths from raw words
(``workloads._exponentials``), so the emulation must give numpy's draws
value for value and word for word, slow paths included, and its tables
must hold numpy's.  A numpy release that changed the ziggurat fails here
by name, not as a golden digest mismatch.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.traces import workloads
from repro.traces.workloads import _exponentials, _pcg64_state_before, _ziggurat

_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def follow(values: np.ndarray, used: np.ndarray, count: int) -> tuple[list[float], int]:
    """The first ``count`` draws of a stream read from word 0, and the words they take."""
    values, used = values.tolist(), used.tolist()
    at, out = 0, []
    for _ in range(count):
        assert used[at] > 0, f"draw at word {at} left unread"
        out.append(values[at])
        at += used[at]
    return out, at


def words_taken(word: int) -> int:
    """How many words numpy's ``standard_exponential`` takes from ``word`` on."""
    bits = np.random.PCG64()
    bits.state = _pcg64_state_before(word)
    np.random.Generator(bits).standard_exponential()
    after = bits.state["state"]["state"]
    probe = np.random.PCG64()
    probe.state = _pcg64_state_before(word)
    for taken in range(1, 50):
        probe.random_raw()
        if probe.state["state"]["state"] == after:
            return taken
    raise AssertionError("no match")


def test_state_before_outputs_the_word():
    assert _MULT * workloads._PCG64_MULT_INVERSE % (1 << 128) == 1
    for word in (0, 1, 12345, 2**64 - 1, 0xDEADBEEF << 20):
        bits = np.random.PCG64()
        bits.state = _pcg64_state_before(word)
        assert int(bits.random_raw()) == word


def test_table_probes_are_lazy():
    """Importing the module probes nothing; the first call does, once."""
    code = (
        "from repro.traces import workloads as w; "
        "assert w._ziggurat.cache_info().currsize == 0; "
        "assert w._ziggurat() is w._ziggurat()"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


@pytest.mark.parametrize("ri", [1, 3, 12345, 2**40 + 7])
def test_we_gives_fast_path_values(ri):
    we, ke_lo, _, _ = _ziggurat()
    for idx in range(256):
        if ri >= int(ke_lo[idx]):  # the top layer has no fast path
            continue
        bits = np.random.PCG64()
        bits.state = _pcg64_state_before(ri << 11 | idx << 3)
        assert np.random.Generator(bits).standard_exponential() == ri * we[idx]


def test_ke_bands_hold_numpys_thresholds():
    """Below each band numpy returns at once, from its top it takes the slow path."""
    _, ke_lo, ke_hi, _ = _ziggurat()
    assert ke_lo[1] == ke_hi[1] == 0  # the top layer is all slow path
    assert words_taken(0 << 11 | 1 << 3) >= 2
    for idx in range(256):
        if idx == 1:
            continue
        assert 0 < ke_lo[idx] < ke_hi[idx] < 2**53
        assert words_taken((int(ke_lo[idx]) - 1) << 11 | idx << 3) == 1, idx
        assert words_taken(int(ke_hi[idx]) << 11 | idx << 3) >= 2, idx


def test_fe_is_the_density_at_each_edge():
    we, _, _, fe = _ziggurat()
    assert fe[0] == 1.0
    assert fe[1] == 0.9381436808621747  # numpy's table entry
    assert np.all(np.diff(fe[1:]) < 0) and np.all(np.diff(we[1:]) > 0)
    assert we[255] * 2.0**53 == pytest.approx(workloads._ZIGGURAT_R, rel=1e-15)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_million_draws_from_raw_words(seed):
    """1,000,000 numpy exponentials: the values, the words taken, each slow path."""
    n = 1_000_000
    rng = np.random.default_rng(seed)
    raw = np.random.PCG64()
    raw.state = rng.bit_generator.state
    values, used = _exponentials(raw.random_raw(n + n // 20))
    got, taken = follow(values, used, n)
    assert np.array_equal(np.array(got), rng.standard_exponential(n))
    raw.state = np.random.default_rng(seed).bit_generator.state
    raw.advance(taken)
    assert raw.state == rng.bit_generator.state

    _, ke_lo, _, _ = _ziggurat()
    words = np.random.default_rng(seed).bit_generator.random_raw(n)
    idx = (words >> np.uint64(3)) & np.uint64(0xFF)
    slow = (words >> np.uint64(11)) >= ke_lo[idx.astype(np.intp)]
    # the tail, accepted wedges and rejected ones that draw again all occur
    assert np.count_nonzero(slow & (idx == 0)) > 100
    assert np.count_nonzero(used == 2) > 10_000
    assert np.count_nonzero(used >= 4) > 100


def test_near_ties_and_the_last_word_are_unread(monkeypatch):
    words = np.random.default_rng(5).bit_generator.random_raw(20_000)
    values, used = _exponentials(words)
    monkeypatch.setattr(workloads, "_TIE", 2.0)
    _, tied = _exponentials(words)
    _, ke_lo, _, _ = _ziggurat()
    idx = ((words >> np.uint64(3)) & np.uint64(0xFF)).astype(np.intp)
    slow = (words >> np.uint64(11)) >= ke_lo[idx]
    # every wedge test is a near tie now; only the tail is still read
    assert np.all(tied[slow & (idx != 0)] == 0)
    assert np.array_equal(tied[~slow], used[~slow])
    last = np.array([words[-1] | np.uint64(((1 << 53) - 1) << 11)])
    assert _exponentials(last)[1][0] == 0
