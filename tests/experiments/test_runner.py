"""End-to-end tests of the resumable experiments orchestrator.

The resume contract under test: a run interrupted between two chunks
and restarted with the same command serves every finished chunk from
the checkpoint cache and produces a byte-identical report artifact —
including when the interrupted run and the resume use different
execution modes, and when the cluster fleet churns mid-run.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import re
import shutil

import pytest

from repro.cli import main
from repro.cluster.coordinator import ClusterError, chunk_cache_key
from repro.cluster.protocol import chunk_grid
from repro.experiments import (
    EXPERIMENTS,
    ExperimentInterrupted,
    ExperimentsConfig,
    ManifestMismatch,
    RunManifest,
    run_experiments,
)
from repro.sim.catalog import SWEEP_KINDS

SMALL = ("fig4a", "model")  # one clusterable sweep + the single-shot figure


def smoke_cfg(out_dir, **overrides):
    defaults = dict(out_dir=out_dir, quality="smoke", seed=7, figures=SMALL)
    defaults.update(overrides)
    return ExperimentsConfig(**defaults)


def artifact_bytes(result):
    return result.report_md.read_bytes(), result.report_json.read_bytes()


class TestConfigValidation:
    def test_crash_after_rejected_with_cluster(self, tmp_path):
        with pytest.raises(ValueError, match="crash_after_chunks"):
            ExperimentsConfig(out_dir=tmp_path, cluster=2, crash_after_chunks=1)

    def test_cli_crash_after_with_cluster_exits_2(self, tmp_path, capsys):
        argv = ["experiments", "run", "--out", str(tmp_path / "run"),
                "--cluster", "2", "--crash-after", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: crash_after_chunks ")
        assert not (tmp_path / "run").exists()

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown figure"):
            ExperimentsConfig(out_dir=tmp_path, figures=["fig99"])

    def test_unknown_quality_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="quality"):
            ExperimentsConfig(out_dir=tmp_path, quality="paper")


class TestSerialRun:
    def test_run_emits_manifest_and_artifact(self, tmp_path):
        result = run_experiments(smoke_cfg(tmp_path / "run"))
        assert result.report_md.exists() and result.report_json.exists()
        assert result.computed_chunks > 0 and result.cache_hits == 0
        manifest = RunManifest.load(tmp_path / "run")
        assert manifest.complete
        assert all(r["done"] for r in manifest.figures.values())
        assert set(manifest.figures) == set(SMALL)

    def test_rerun_is_all_cache_hits_and_byte_identical(self, tmp_path):
        first = run_experiments(smoke_cfg(tmp_path / "run"))
        second = run_experiments(smoke_cfg(tmp_path / "run"))
        assert second.computed_chunks == 0
        assert second.cache_hits == first.cache_hits + first.computed_chunks
        assert artifact_bytes(first) == artifact_bytes(second)

    def test_mismatched_seed_refuses_to_resume(self, tmp_path):
        run_experiments(smoke_cfg(tmp_path / "run"))
        with pytest.raises(ManifestMismatch):
            run_experiments(smoke_cfg(tmp_path / "run", seed=8))


class TestResumeAfterInterrupt:
    def test_interrupted_run_resumes_from_checkpoints(self, tmp_path):
        interrupted = tmp_path / "interrupted"
        with pytest.raises(ExperimentInterrupted):
            run_experiments(smoke_cfg(interrupted, crash_after_chunks=1))

        # the kill left a loadable manifest with pinned chunk geometry
        manifest = RunManifest.load(interrupted)
        assert manifest is not None and not manifest.complete
        pinned = {f: r["chunk_size"] for f, r in manifest.figures.items()}

        resumed = run_experiments(smoke_cfg(interrupted))
        assert resumed.cache_hits >= 1  # finished chunks were not recomputed
        after = RunManifest.load(interrupted)
        assert after.complete
        for figure, size in pinned.items():
            if size is not None:
                assert after.figures[figure]["chunk_size"] == size

        fresh = run_experiments(smoke_cfg(tmp_path / "fresh"))
        assert artifact_bytes(resumed) == artifact_bytes(fresh)

    def test_interrupt_inside_the_pool_leaves_no_workers(self, tmp_path):
        interrupted = tmp_path / "interrupted"
        with pytest.raises(ExperimentInterrupted) as excinfo:
            run_experiments(smoke_cfg(interrupted, jobs=2, crash_after_chunks=1))
        # raised while the pool still runs, from the chunk's store
        assert any(entry.name == "_run_on_pool" for entry in excinfo.traceback)
        assert multiprocessing.active_children() == []

        resumed = run_experiments(smoke_cfg(interrupted))
        assert resumed.cache_hits >= 1
        fresh = run_experiments(smoke_cfg(tmp_path / "fresh"))
        assert artifact_bytes(resumed) == artifact_bytes(fresh)

    def test_resume_can_switch_execution_mode(self, tmp_path):
        shared = tmp_path / "shared"
        with pytest.raises(ExperimentInterrupted):
            run_experiments(smoke_cfg(shared, crash_after_chunks=1))
        resumed = run_experiments(smoke_cfg(shared, jobs=2))
        assert resumed.cache_hits >= 1
        fresh = run_experiments(smoke_cfg(tmp_path / "fresh"))
        assert artifact_bytes(resumed) == artifact_bytes(fresh)


class TestWrongShapeCacheEntries:
    """A chunk entry that does not fit its chunk is a miss, not a crash.

    Each case overwrites one chunk's disk entry of a clean smoke run with
    valid JSON of the wrong shape and resumes: the resume recomputes that
    chunk alone, stores it again, and writes the clean run's artifact.
    """

    WRONG = {"int": 5, "null": None, "str": "s", "dict": {"a": 1}, "short": "short",
             "nulls": "nulls", "mistyped": "mistyped"}

    @staticmethod
    def wrong_value(wrong, outcomes):
        """The entry to write: a fixed value, or one built from the clean entry.

        ``nulls`` and ``mistyped`` keep the entry's length; a frame
        would have read them as NaN, 1.5 and 1.0 if it coerced.
        """
        if wrong == "short":
            return outcomes[:-1]
        if wrong == "nulls":
            return [None] * len(outcomes)
        if wrong == "mistyped":
            if isinstance(outcomes[0], dict):  # a record: bool, str and null fields
                first = {**outcomes[0], "traces_fit": True, "traces_overflowed": "3",
                         "mean_utilization": None}
                return [first] + outcomes[1:]
            return ["1.5" if i % 2 else True for i in range(len(outcomes))]
        return TestWrongShapeCacheEntries.WRONG[wrong]

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        runs = {}
        for figure in ("fig4a", "fig3"):
            out = tmp_path_factory.mktemp(f"clean-{figure}")
            runs[figure] = out, artifact_bytes(
                run_experiments(smoke_cfg(out, figures=(figure,)))
            )
        return runs

    @staticmethod
    def chunk_entry(out_dir, figure):
        """The disk entry of the figure's last chunk, and its outcomes."""
        spec = EXPERIMENTS[figure]
        kind = SWEEP_KINDS[spec.kind]
        params = spec.params("smoke")
        grid = kind.grid(params)
        size = RunManifest.load(out_dir).figures[figure]["chunk_size"]
        chunk = chunk_grid(len(grid), size)[-1]
        key = chunk_cache_key(kind.task(params, 7), grid[chunk.start:chunk.stop])
        (path,) = (out_dir / "cache").rglob(f"{key}.json")
        return path, json.loads(path.read_text())

    def resume_corrupted(self, clean, tmp_path, figure, wrong, **mode):
        source, expected = clean[figure]
        out = tmp_path / "run"
        shutil.copytree(source, out)
        path, outcomes = self.chunk_entry(out, figure)
        value = self.wrong_value(wrong, outcomes)
        path.write_text(json.dumps(value))
        resumed = run_experiments(smoke_cfg(out, figures=(figure,), **mode))
        (tele,) = resumed.figures
        assert (tele.computed_chunks, tele.cache_hits) == (1, tele.chunks - 1)
        assert artifact_bytes(resumed) == expected
        assert json.loads(path.read_text()) == outcomes  # overwritten

    @pytest.mark.parametrize("wrong", sorted(WRONG))
    @pytest.mark.parametrize("figure", ["fig4a", "fig3"])
    def test_serial_resume_recomputes_the_chunk(self, clean, tmp_path, figure, wrong):
        self.resume_corrupted(clean, tmp_path, figure, wrong)

    def test_cluster_resume_recomputes_the_chunk(self, clean, tmp_path):
        self.resume_corrupted(clean, tmp_path, "fig3", "dict", cluster=2)

    def test_cluster_resume_recomputes_a_mistyped_chunk(self, clean, tmp_path):
        self.resume_corrupted(clean, tmp_path, "fig3", "mistyped", cluster=2)

    def test_refused_entry_counts_as_a_cache_miss(self, clean, tmp_path, monkeypatch):
        from repro.experiments import runner

        caches = []

        class Recording(runner._CheckpointCache):
            def __init__(self, cfg):
                super().__init__(cfg)
                caches.append(self)

        monkeypatch.setattr(runner, "_CheckpointCache", Recording)
        self.resume_corrupted(clean, tmp_path, "fig4a", "int")
        (cache,) = caches
        stats = cache.stats()
        assert (stats.hits, stats.disk_hits, stats.misses) == (3, 3, 1)


class TestElasticCluster:
    def test_elastic_run_matches_serial_bytes(self, tmp_path):
        elastic = run_experiments(
            smoke_cfg(
                tmp_path / "elastic",
                figures=("fig4a",),
                cluster=2,
                lease_ttl=2.0,
                elastic_depart_after=1,
                elastic_join_after=0.1,
            )
        )
        serial = run_experiments(
            smoke_cfg(tmp_path / "serial", figures=("fig4a",))
        )
        assert artifact_bytes(elastic) == artifact_bytes(serial)
        fig = elastic.figures[0]
        assert fig.workers >= 2  # late joiner was counted
        assert fig.computed_chunks + fig.cache_hits == fig.chunks


class TestJobsWithCluster:
    def test_cluster_with_jobs_matches_serial_bytes(self, tmp_path):
        both = run_experiments(smoke_cfg(tmp_path / "both", cluster=2, jobs=2))
        serial = run_experiments(smoke_cfg(tmp_path / "serial"))
        assert artifact_bytes(both) == artifact_bytes(serial)
        assert both.computed_chunks == serial.computed_chunks

    def test_serial_interrupt_resumes_on_cluster_with_jobs(self, tmp_path):
        shared = tmp_path / "shared"
        with pytest.raises(ExperimentInterrupted):
            run_experiments(smoke_cfg(shared, crash_after_chunks=1))
        resumed = run_experiments(smoke_cfg(shared, cluster=2, jobs=2))
        assert resumed.cache_hits >= 1
        fresh = run_experiments(smoke_cfg(tmp_path / "fresh"))
        assert artifact_bytes(resumed) == artifact_bytes(fresh)


# At seed 0, fig2a over a 100-access, 2-thread trace cannot reach W=5,
# so every point raises (see tests/sim/test_sweep_failures.py).
FAILING_FIG2A = {"accesses": 100, "threads": 2, "w_values": [5, 100000]}


class TestFailedPoint:
    @pytest.fixture(autouse=True)
    def failing_fig2a(self, monkeypatch):
        spec = dataclasses.replace(
            EXPERIMENTS["fig2a"], quality_params={"smoke": FAILING_FIG2A}
        )
        monkeypatch.setitem(EXPERIMENTS, "fig2a", spec)

    def cached_files(self, out_dir):
        return [p for p in (out_dir / "cache").rglob("*") if p.is_file()]

    def test_jobs_raises_the_named_point_and_caches_nothing(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ValueError) as err:
            run_experiments(smoke_cfg(out, seed=0, figures=("fig2a",), jobs=2))
        message = str(err.value)
        assert message.startswith("fig2a point {'n': 4096, 'w': 5} failed: ValueError: ")
        assert message.endswith("cannot reach W=5")
        assert self.cached_files(out) == []

    def test_cluster_raises_the_chunk_failure(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(ClusterError, match="failed after 3 attempts: ValueError: "):
            run_experiments(smoke_cfg(out, seed=0, figures=("fig2a",), cluster=2))
        assert self.cached_files(out) == []

    @pytest.mark.parametrize(
        "mode, pattern",
        [
            (["--jobs", "2"], r"error: fig2a point \{'n': 4096, 'w': 5\} failed: ValueError: "),
            (["--cluster", "2"], r"error: chunk \d+ \(points \[\d+, \d+\)\) failed after 3 "),
        ],
    )
    def test_cli_exits_2_with_an_error_line(self, tmp_path, capsys, mode, pattern):
        argv = ["experiments", "run", "--out", str(tmp_path / "run"),
                "--figures", "fig2a", *mode]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.match(pattern, err.splitlines()[-1])
        assert "Traceback" not in err
