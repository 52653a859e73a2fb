"""Tests for the perf-baseline document's content.

The envelope, reproducibility, writer and ``bench`` CLI checks every
bench shares live in ``tests/test_bench.py``.
"""

import json

import pytest

from repro.experiments.baseline import run_bench


@pytest.fixture(scope="module")
def small_doc():
    return run_bench(n_peers=200, n_requests=400, seed=7)


class TestPipeline:
    def test_document_shape(self, small_doc):
        assert set(small_doc["phases"]) == {
            "build", "trace", "chord_routes", "hieras_routes", "protocol_smoke",
            "peak_rss",
        }
        assert set(small_doc["metrics"]) == {"chord", "hieras", "protocol"}

    def test_both_stacks_covered(self, small_doc):
        for net in ("chord", "hieras"):
            m = small_doc["metrics"][net]
            assert m["lookups"] == small_doc["config"]["n_requests"]
            assert m["hops"]["count"] == 400.0
            assert m["latency_ms"]["mean"] > 0.0
        assert small_doc["metrics"]["chord"]["low_layer_hop_share"] == 0.0
        assert small_doc["metrics"]["hieras"]["low_layer_hop_share"] > 0.0

    def test_protocol_smoke_counters(self, small_doc):
        proto = small_doc["metrics"]["protocol"]
        assert proto["lookups_completed"] == proto["lookups_issued"]
        assert proto["counters"]["sim.messages_sent"] > 0
        assert proto["counters"]["sim.events_processed"] > 0
        assert proto["counters"]["protocol.lookups"] >= proto["lookups_issued"]

    def test_different_seed_differs(self, small_doc):
        other = run_bench(n_peers=200, n_requests=400, seed=8)
        assert other["metrics"] != small_doc["metrics"]


class TestCli:
    def test_run_emits_metrics_artifact(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        assert main(["run", "table1"]) == 0
        artifact = tmp_path / "metrics_table1.json"
        assert artifact.exists()
        doc = json.loads(artifact.read_text())
        assert doc["experiment"] == "table1"
        assert doc["diverged"] is False
        assert "data" in doc
