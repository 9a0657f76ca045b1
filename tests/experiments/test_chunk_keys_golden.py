"""Golden pin of the experiments checkpoint namespace.

A resumed run finds its finished chunks only if it derives the same
cache keys and the same chunk geometry as the run that wrote them.  The
file names below are the content addresses a serial ``--quality smoke``
run at seed 7 writes for ``fig4a``, ``fig7`` and ``model``; the chunk
geometry is what its manifest pins.  An output dir written by an older
checkout keeps resuming with every chunk cached only while both hold,
so a change to how chunks are keyed or sized must fail here first.
"""

from __future__ import annotations

from repro.experiments import ExperimentsConfig, RunManifest, run_experiments

FIGURES = ("fig4a", "fig7", "model")

CACHE_FILES = [
    "189d0632854d459e8f5325a888f7f6c87dab0e8d8e3d830937440ce6e128a6b5.json",
    "308d307ad7af6fb1fabebfbd0f7510430c5e938f490c741b130a73af37b11e40.json",
    "3c9145a099123cf1a35091ab766c872e096ae755f3a0e7f461e9538d4a63ce8d.json",
    "8de0774f13dd698a990ff1149e05f72046f05716976b8f96e583c92ef5f10957.json",
    "9262634c68ba51c75f50bccbf2f95dca541cfa3fff2438351cada63df373946d.json",
    "a24bd3f3a109bb57308be8d83c2860238661dbb2b13bef8b22e61ff2ad98d3cc.json",
    "f73e1499d6c484dfd7b1e4dc53e29a2a63b43ddf804b5e7ee431fc35594ec7de.json",
]

CHUNKING = {
    "fig4a": {"chunk_size": 1, "chunks": 4},
    "fig7": {"chunk_size": 4, "chunks": 2},
    "model": {"chunk_size": 1, "chunks": 1},
}


def _run(out_dir):
    return run_experiments(
        ExperimentsConfig(out_dir=out_dir, quality="smoke", seed=7, figures=FIGURES)
    )


def test_serial_smoke_chunk_keys_and_geometry(tmp_path):
    out = tmp_path / "run"
    _run(out)
    names = sorted(p.name for p in (out / "cache").rglob("*") if p.is_file())
    assert names == CACHE_FILES
    manifest = RunManifest.load(out)
    assert {
        figure: {"chunk_size": r["chunk_size"], "chunks": r["chunks"]}
        for figure, r in manifest.figures.items()
    } == CHUNKING


def test_rerun_serves_every_pinned_chunk(tmp_path):
    out = tmp_path / "run"
    _run(out)
    again = _run(out)
    assert again.computed_chunks == 0
    assert again.cache_hits == sum(c["chunks"] for c in CHUNKING.values())
