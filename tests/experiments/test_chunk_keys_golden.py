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
    "10002e2643dd9243d3a1247654862c5921f817c66ad0294d0eb594d706481a14.json",
    "6aa7c566c4cee3de9516e4a726dc3606a359183646a4aea955ae9673227e332e.json",
    "a4685d3609dd7edc53b9e2a7da1acf2779d96eb8b611585ec286abd4d5ea02be.json",
    "cb0bdc1f223247342d62af8b2ca895a5d169b70d44e1e794f719497ae3bf7fb5.json",
    "d5aaac41e67ea8fb0fe7ae1a6ec20c3a15a12b317a4ef29c52fbe793f5a5aca8.json",
    "eecb394277daed697f12b2afbab6ffa14d8651184ce11cda4ff0b02aff0b3c4f.json",
    "fb6b12c90f48886569bdc5d45f5b8b5856b808071f49d57f1718cd52e1530453.json",
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
