"""Tests for the experiment harness: config, runner, registry, CLI."""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.config import SimConfig, SweepSpec, landmarks_for
from repro.experiments.figures import EXPERIMENTS, get_experiment
from repro.experiments.runner import build_bundle, make_trace, run_pair


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.model == "ts"
        assert cfg.n_routers >= cfg.n_peers

    def test_with_(self):
        cfg = dataclasses.replace(SimConfig(), n_peers=500, depth=3)
        assert cfg.n_peers == 500 and cfg.depth == 3

    def test_topology_key_ignores_routing_settings(self):
        a = SimConfig(depth=2).topology_key()
        b = SimConfig(depth=3).topology_key()
        assert a == b
        c = SimConfig(n_landmarks=8).topology_key()
        assert c != a

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(model="grid")
        with pytest.raises(ValueError):
            SimConfig(depth=1)
        with pytest.raises(ValueError):
            SimConfig(n_peers=4)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"bits": 0}, "bits must be in [1, 64], got 0"),
            ({"bits": 161}, "bits must be in [1, 64], got 161"),
            ({"n_peers": 300, "bits": 8}, "cannot draw 300 unique ids from a space of 256"),
            ({"successor_list_r": -1}, "successor_list_r must be an integer >= 0, got -1"),
            ({"successor_list_policy": "bogus"}, "unknown successor_list_policy 'bogus'"),
            ({"n_landmarks": True}, "n_landmarks must be an integer >= 1, got True"),
            ({"successor_list_r": 2.0}, "successor_list_r must be an integer >= 0, got 2.0"),
            ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
            ({"depth": 2.0}, "depth must be an integer in [2, 4], got 2.0"),
            ({"n_peers": 100.0}, "n_peers must be an integer >= 8, got 100.0"),
            ({"bits": 32.0}, "bits must be in [1, 64], got 32.0"),
            ({"bits": True}, "bits must be in [1, 64], got True"),
            ({"bits": 65}, "bits must be in [1, 64], got 65"),
        ],
    )
    def test_rejects_before_any_topology_is_built(self, fields, message, monkeypatch):
        """What the id sampler, ``ChordNetwork`` and ``HierasNetwork``
        would reject fails at ``SimConfig``, with their messages — not
        after the topology, latency model and attachment are paid for."""
        generated = []
        real = runner._generate_topology

        def spy(*args):
            generated.append(args)
            return real(*args)

        monkeypatch.setattr(runner, "_generate_topology", spy)
        monkeypatch.setattr(runner, "_SUBSTRATES", {})  # a cache hit would hide the spy
        with pytest.raises(ValueError, match=re.escape(message)):
            runner.build_bundle(SimConfig(**fields))
        assert generated == []

    def test_edge_values_accepted(self):
        SimConfig(n_peers=256, bits=8, successor_list_r=0)
        for policy in ("transitions", "always", "off"):
            SimConfig(successor_list_policy=policy)

    def test_explicit_landmark_count_wins_over_the_rule(self):
        assert SimConfig(n_peers=1_000_000, n_landmarks=4).n_landmarks == 4
        assert SimConfig(n_peers=100, n_landmarks=9).n_landmarks == 9

    @pytest.mark.parametrize("n", [8, 1000, 4095, 4096, 65_536, 131_072, 1_000_000])
    def test_default_landmark_count_is_the_rule(self, n):
        config = SimConfig(n_peers=n)
        assert config.n_landmarks == landmarks_for(n)
        assert type(config.n_landmarks) is int
        assert config.topology_key()[2] == landmarks_for(n)
        assert config == SimConfig(n_peers=n, n_landmarks=landmarks_for(n))

    def test_landmark_rule_keeps_the_paper_count_below_4096_and_never_falls(self):
        assert {landmarks_for(n) for n in range(8, 4096)} == {4}
        sizes = [2**k for k in range(3, 24)] + [3 * 2**k for k in range(2, 22)]
        counts = [landmarks_for(n) for n in sorted(sizes)]
        assert counts == sorted(counts)
        assert landmarks_for(131_072) <= 8  # perfbench route_large's RSS budget

    def test_sweeps_keep_the_paper_landmark_count(self):
        configs = SweepSpec(sizes=(1000, 4096, 65_536, 1_000_000)).configs()
        assert {config.n_landmarks for config in configs} == {4}

    def test_auto_strategy_resolution(self):
        assert SimConfig(model="ts").resolved_landmark_strategy == "spread"
        assert SimConfig(model="inet", n_peers=3000).resolved_landmark_strategy == "random"
        assert SimConfig(model="brite").resolved_landmark_strategy == "spread"


class TestRunner:
    @pytest.fixture(scope="class")
    def bundle(self):
        runner._SUBSTRATES.clear()
        runner._SAMPLE_PAIRS.clear()
        return build_bundle(SimConfig(n_peers=200, seed=1))

    def test_bundle_wiring(self, bundle):
        assert bundle.chord.n_peers == 200
        assert bundle.hieras.n_peers == 200
        assert bundle.attachment.n_landmarks == 4
        assert bundle.orders.n_nodes == 200

    def test_smallest_deployment_has_room_for_its_landmarks(self):
        """The rule never asks for more landmarks than there are stub routers."""
        bundle = build_bundle(SimConfig(n_peers=8, seed=3), cache=False)
        assert bundle.attachment.n_landmarks == landmarks_for(8)

    def test_substrate_cached_across_depths(self, bundle):
        other = build_bundle(SimConfig(n_peers=200, seed=1, depth=3))
        np.testing.assert_array_equal(other.node_ids, bundle.node_ids)
        assert other.topology is bundle.topology  # cache hit

    def test_trace_deterministic(self, bundle):
        a = make_trace(bundle, 50)
        b = make_trace(bundle, 50)
        np.testing.assert_array_equal(a.keys, b.keys)

    def test_run_pair_owner_agreement(self, bundle):
        chord, hieras = run_pair(bundle, 300)
        assert len(chord) == len(hieras) == 300
        # Same owners means same keys resolved identically.
        trace = make_trace(bundle, 10)
        for s, k in trace:
            assert bundle.chord.route(s, k).owner == bundle.hieras.route(s, k).owner

    def test_hieras_latency_wins_on_ts(self, bundle):
        chord, hieras = run_pair(bundle, 500)
        assert hieras.mean_latency_ms < chord.mean_latency_ms

    def test_inet_size_floor_enforced(self):
        with pytest.raises(ValueError, match="3000"):
            build_bundle(SimConfig(model="inet", n_peers=500))


class TestRegistry:
    PAPER_ARTIFACTS = [
        "table1", "table2",
        "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    ]

    def test_every_paper_artifact_registered(self):
        for artifact in self.PAPER_ARTIFACTS:
            assert artifact in EXPERIMENTS

    def test_ablations_registered(self):
        for ablation in (
            "ablation_binning",
            "ablation_succlist",
            "ablation_can",
            "ablation_pastry",
            "ablation_noise",
            "ablation_landmark_failure",
            "cost_analysis",
            "churn",
        ):
            assert ablation in EXPERIMENTS

    def test_get_experiment_error_lists_ids(self):
        with pytest.raises(ValueError, match="table1"):
            get_experiment("nope")

    def test_metadata_complete(self):
        for exp in EXPERIMENTS.values():
            assert exp.title and exp.paper_claim
            assert callable(exp.run)


class TestExperimentsSmoke:
    """Tiny-scale end-to-end runs of the cheap experiments."""

    def test_table1_matches_paper_exactly(self):
        result = get_experiment("table1").run(42)
        assert "[ok]" in result.text and "[DIVERGES]" not in result.text
        assert result.data["orders"] == result.data["expected"]

    def test_table2_structure(self):
        result = get_experiment("table2").run(42)
        assert "[DIVERGES]" not in result.text
        assert len(result.data["rows"]) == 8


class TestCli:
    def test_list_command(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out and "table1" in out

    def test_run_table1(self, capsys):
        from repro.experiments.cli import main

        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "1012" in out

    def test_unknown_experiment(self):
        from repro.experiments.cli import main

        with pytest.raises(ValueError):
            main(["run", "bogus"])

    def test_run_emits_metrics_artifact(self, tmp_path, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        assert main(["run", "table1"]) == 0
        artifact = tmp_path / "metrics_table1.json"
        assert artifact.exists()
        doc = json.loads(artifact.read_text())
        assert doc["experiment"] == "table1"
        assert doc["diverged"] is False
        assert "data" in doc

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table1", "fig4", "--seed", "-1"],
            ["report", "--seed", "-1"],
            ["bench", "scenarios", "--seed", "-1"],
            ["sweep", "--seeds", "1,-2"],
            ["sweep", "--requests", "0"],
        ],
        ids=["run-seed", "report-seed", "bench-seed", "sweep-seeds", "sweep-requests"],
    )
    def test_bad_numbers_are_usage_errors_before_anything_runs(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "expected an integer >=" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCliReportAndSweep:
    def test_report_writes_markdown(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import cli, figures
        from repro.experiments.figures import Experiment, ExperimentResult

        tiny = Experiment(
            "tiny", "Tiny", "claim",
            lambda seed: ExperimentResult("tiny", "Tiny", "  [ok] fine"),
        )
        monkeypatch.setattr(figures, "EXPERIMENTS", {"tiny": tiny})
        monkeypatch.setattr(cli, "EXPERIMENTS", {"tiny": tiny})
        out = tmp_path / "report.md"
        assert cli.main(["report", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# HIERAS reproduction report" in text
        assert "[ok] fine" in text

    def test_report_flags_divergence(self, tmp_path, monkeypatch):
        from repro.experiments import cli, figures
        from repro.experiments.figures import Experiment, ExperimentResult

        bad = Experiment(
            "bad", "Bad", "claim",
            lambda seed: ExperimentResult("bad", "Bad", "  [DIVERGES] nope"),
        )
        monkeypatch.setattr(cli, "EXPERIMENTS", {"bad": bad})
        out = tmp_path / "report.md"
        assert cli.main(["report", "--out", str(out)]) == 1

    def test_sweep_command_csv(self, tmp_path, capsys):
        from repro.experiments.cli import main

        out = tmp_path / "s.csv"
        code = main([
            "sweep", "--models", "ts", "--sizes", "200", "--landmarks", "4",
            "--depths", "2", "--seeds", "1", "--requests", "200",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert "latency_ratio_pct" in header

    def test_sweep_no_valid_cells(self, capsys):
        from repro.experiments.cli import main

        code = main([
            "sweep", "--models", "inet", "--sizes", "200", "--requests", "100",
        ])
        assert code == 1
