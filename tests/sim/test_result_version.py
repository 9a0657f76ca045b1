"""A sweep kind's ``result_version`` keys every cache entry of its outcomes.

Disk caches outlive the code that wrote them (``repro serve
--cache-dir``, ``experiments run`` output dirs), so bumping a kind's
``result_version`` must turn its old entries into misses — chunk
checkpoints and the assembled-result key alike — while every other
kind's entries keep hitting.
"""

from __future__ import annotations

from repro.experiments.manifest import spec_hash
from repro.service.cache import ResultCache
from repro.sim.catalog import SWEEP_KINDS


def test_bumping_one_kind_misses_only_its_disk_entries(tmp_path, monkeypatch):
    fig4a, closed = SWEEP_KINDS["fig4a"], SWEEP_KINDS["closed"]
    requests = {
        fig4a: fig4a.validate({"n_values": [64], "w_values": [2, 4], "samples": 20}),
        closed: closed.validate({"n_values": [64], "w_values": [2, 3]}),
    }

    def run_all():
        # A fresh cache per pass: only entries on disk can hit.
        cache = ResultCache(disk_dir=tmp_path)
        out = {}
        for kind, params in requests.items():
            before = cache.stats().disk_hits
            result = kind.execute(params, 3, None, cache=cache)
            out[kind.name] = (result, cache.stats().disk_hits - before)
        return out

    def result_keys():
        return {
            kind.name: (kind.result_key(params, 3), spec_hash(kind.name, params, 3))
            for kind, params in requests.items()
        }

    cold, cold_keys = run_all(), result_keys()
    assert all(hits == 0 for _, hits in cold.values())

    monkeypatch.setattr(fig4a, "result_version", fig4a.result_version + 1)
    warm, warm_keys = run_all(), result_keys()

    assert warm["fig4a"][1] == 0  # both old fig4a chunks missed
    assert warm["closed"][1] == 2  # both closed chunks still hit
    assert warm_keys["fig4a"][0] != cold_keys["fig4a"][0]
    assert warm_keys["fig4a"][1] != cold_keys["fig4a"][1]
    assert warm_keys["closed"] == cold_keys["closed"]
    # The version is a key, never an input: recomputed bytes are equal.
    assert {name: r for name, (r, _) in warm.items()} == {
        name: r for name, (r, _) in cold.items()
    }
