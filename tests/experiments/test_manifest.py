"""Tests for the resumable run manifest."""

from __future__ import annotations

import json

import pytest

from repro.experiments.manifest import (
    MANIFEST_NAME,
    ManifestMismatch,
    RunManifest,
    environment_fingerprint,
    spec_hash,
)


@pytest.fixture
def manifest():
    return RunManifest(quality="smoke", seed=7)


class TestSpecHash:
    def test_stable_for_equal_inputs(self):
        a = spec_hash("fig4a", {"n_values": [512], "w_values": [8]}, 7)
        b = spec_hash("fig4a", {"w_values": [8], "n_values": [512]}, 7)
        assert a == b

    def test_sensitive_to_params_and_seed(self):
        base = spec_hash("fig4a", {"n_values": [512]}, 7)
        assert spec_hash("fig4a", {"n_values": [1024]}, 7) != base
        assert spec_hash("fig4a", {"n_values": [512]}, 8) != base


class TestPlanning:
    def test_plan_records_figure(self, manifest):
        record = manifest.plan_figure("fig4a", "fig4a", {"n_values": [512]}, 7)
        assert record["spec_hash"] == spec_hash("fig4a", {"n_values": [512]}, 7)
        assert record["chunk_size"] is None and not record["done"]

    def test_replan_with_same_spec_is_idempotent(self, manifest):
        first = manifest.plan_figure("fig4a", "fig4a", {"n_values": [512]}, 7)
        again = manifest.plan_figure("fig4a", "fig4a", {"n_values": [512]}, 7)
        assert again is first

    def test_replan_with_changed_params_raises(self, manifest):
        manifest.plan_figure("fig4a", "fig4a", {"n_values": [512]}, 7)
        with pytest.raises(ManifestMismatch, match="fresh"):
            manifest.plan_figure("fig4a", "fig4a", {"n_values": [1024]}, 7)

    def test_pin_chunking_first_write_wins(self, manifest):
        manifest.plan_figure("fig4a", "fig4a", {"n_values": [512]}, 7)
        assert manifest.pin_chunking("fig4a", 4, 3) == 4
        # a resume whose sizer now recommends differently keeps the pin
        assert manifest.pin_chunking("fig4a", 9, 2) == 4
        assert manifest.figures["fig4a"]["chunks"] == 3

    def test_mark_done_completes_chunk_count(self, manifest):
        """Done is the only per-figure progress the manifest keeps: the
        pinned geometry stays, and no chunk count is recorded."""
        manifest.plan_figure("fig4a", "fig4a", {}, 7)
        manifest.pin_chunking("fig4a", 2, 5)
        manifest.mark_done("fig4a")
        record = manifest.figures["fig4a"]
        assert record["done"] and record["chunks"] == 5
        assert "chunks_done" not in record


class TestPersistence:
    def test_save_load_round_trip(self, manifest, tmp_path):
        manifest.plan_figure("fig4a", "fig4a", {"n_values": [512]}, 7)
        manifest.pin_chunking("fig4a", 2, 1)
        path = manifest.save(tmp_path)
        assert path == tmp_path / MANIFEST_NAME
        loaded = RunManifest.load(tmp_path)
        assert loaded.to_wire() == manifest.to_wire()

    def test_load_missing_returns_none(self, tmp_path):
        assert RunManifest.load(tmp_path) is None

    def test_load_rejects_future_version(self, manifest, tmp_path):
        manifest.save(tmp_path)
        data = json.loads((tmp_path / MANIFEST_NAME).read_text())
        data["version"] = 99
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(data))
        with pytest.raises(ManifestMismatch, match="version"):
            RunManifest.load(tmp_path)

    def test_save_leaves_no_temp_files(self, manifest, tmp_path):
        manifest.save(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [MANIFEST_NAME]


class TestResume:
    def test_matching_request_yields_no_warnings(self, manifest):
        assert manifest.check_resume("smoke", 7) == []

    @pytest.mark.parametrize("quality,seed", [("normal", 7), ("smoke", 8)])
    def test_quality_or_seed_divergence_raises(self, manifest, quality, seed):
        with pytest.raises(ManifestMismatch, match="fresh output dir"):
            manifest.check_resume(quality, seed)

    def test_environment_drift_warns(self):
        env = dict(environment_fingerprint())
        env["numpy"] = "0.0.1"
        manifest = RunManifest(quality="smoke", seed=7, environment=env)
        warnings = manifest.check_resume("smoke", 7)
        assert len(warnings) == 1 and "numpy" in warnings[0]
