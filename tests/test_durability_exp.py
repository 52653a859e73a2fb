"""Tests for the durability experiment (``repro.experiments.durability``).

The envelope, reproducibility and writer checks every bench shares live
in ``tests/test_bench.py``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.config import SimConfig
from repro.experiments.durability import durability_metrics, run_bench
from repro.replication import ReplicationPolicy
from repro.scenarios import ScenarioParams, run_scenario_cell

ROOT = Path(__file__).resolve().parent.parent

# Tiny parameters: every cell below replays on one cached substrate.
N_PEERS = 120
N_KEYS = 24


def run_cell(config=None, **overrides):
    """One ``two_wave_crash`` cell as ``bench durability`` runs it."""
    kwargs = dict(
        seed=42,
        probe_interval_ms=1.0,
        n_probes=0,
        fail_fraction=0.3,
        catalog_size=N_KEYS,
        policy=ReplicationPolicy(replicas=2, consistency="quorum"),
    )
    kwargs.update(overrides)
    if config is None:
        config = SimConfig(model="ts", n_peers=N_PEERS, n_landmarks=4, depth=2, seed=42)
    stack = kwargs.pop("stack", "chord")
    return run_scenario_cell(config, "two_wave_crash", stack, ScenarioParams(**kwargs))


class TestCell:
    def test_cell_is_deterministic(self):
        assert run_cell() == run_cell()

    def test_cell_counts_are_consistent(self):
        cell = run_cell()
        # publish + half updated + half new keys
        assert cell["puts"] == N_KEYS + 2 * (N_KEYS // 2)
        assert cell["gets"] == 2 * (N_KEYS + N_KEYS // 2)
        # ``keys`` counts names with an acknowledged put: 3 of the 36
        # names written saw every put fail, and each such name takes at
        # least one of the 8 failed puts.
        acked = cell["puts"] * cell["put_success_rate"]
        assert (cell["keys"], acked) == (33.0, 40.0)
        assert N_KEYS + N_KEYS // 2 - cell["keys"] <= cell["puts"] - acked
        assert run_cell(fail_fraction=0.0)["keys"] == N_KEYS + N_KEYS // 2
        assert 0.0 <= cell["loss_probability"] <= 1.0
        assert cell["crashed_final"] > 0

    def test_replication_beats_bare_storage(self):
        bare = run_cell(policy=ReplicationPolicy(replicas=0))
        replicated = run_cell()
        assert bare["loss_probability"] > replicated["loss_probability"]

    def test_chain_aborts_only_in_chain_mode(self):
        chain = run_cell(policy=ReplicationPolicy(replicas=2, consistency="chain"))
        quorum = run_cell()
        assert chain["chain_aborts"] > 0
        assert quorum["chain_aborts"] == 0
        assert quorum["put_success_rate"] > chain["put_success_rate"]

    def test_handoff_reduces_loss_or_staleness(self):
        on = run_cell()
        off = run_cell(
            policy=ReplicationPolicy(replicas=2, consistency="quorum", hinted_handoff=False)
        )
        assert on["hints_replayed"] > 0 and off["hints_replayed"] == 0
        assert (on["loss_probability"], on["stale_probability"]) <= (
            off["loss_probability"],
            off["stale_probability"],
        )

    def test_a_lost_read_is_a_failed_read(self):
        """One definition of a successful read across the benches: a read
        that comes back empty for a key with an acknowledged put counts
        against ``read_success_rate`` exactly as against the scenario
        runner's ``get_success_rate``.  One-ack writes without hints
        leave acknowledged keys whose every live holder is down when
        the reads reach a replica that never got the write."""
        policy = ReplicationPolicy(
            replicas=1, consistency="quorum", write_quorum=1, read_quorum=1, hinted_handoff=False
        )
        cell = run_cell(policy=policy)
        assert cell["lost"] > 0
        assert (cell["gets"], cell["get_successes"], cell["lost_reads"]) == (72.0, 68.0, 10.0)
        metrics = durability_metrics(cell)
        assert metrics["read_success_rate"] == cell["get_success_rate"] == 58.0 / 72.0
        # The other read rates keep the successful-get denominator.
        assert metrics["lost_read_rate"] == 10.0 / 68.0

    def test_fault_free_cell_is_lossless(self):
        cell = run_cell(fail_fraction=0.0)
        assert cell["loss_probability"] == 0.0
        assert cell["put_success_rate"] == 1.0
        assert cell["get_successes"] == cell["gets"]
        assert cell["hints_queued"] == 0


class TestCommittedCells:
    """Two cells of the committed document, replayed through the
    scenario runner at its config, equal it key by key."""

    @pytest.mark.parametrize(
        "stack, consistency, placement, churn",
        [("chord", "chain", "successor", 0.1), ("hieras", "quorum", "ring_scoped", 0.3)],
    )
    def test_scenario_cell_reproduces_committed_cell(self, stack, consistency, placement, churn):
        doc = json.loads((ROOT / "BENCH_durability.json").read_text(encoding="utf-8"))
        config = doc["config"]
        replicas = 2
        committed = next(
            c
            for c in doc["metrics"]["cells"]
            if (c["stack"], c["replicas"], c["churn_fraction"], c["consistency"], c["placement"])
            == (stack, replicas, churn, consistency, placement)
        )
        cell = run_cell(
            SimConfig(
                model="ts", n_peers=config["n_peers"], n_landmarks=4, depth=2, seed=config["seed"]
            ),
            stack=stack,
            seed=config["seed"],
            fail_fraction=churn,
            catalog_size=config["n_keys"],
            policy=ReplicationPolicy(
                replicas=replicas, consistency=consistency, placement=placement
            ),
        )
        metrics = durability_metrics(cell)
        expected = {k: v for k, v in committed.items() if k in metrics}
        assert len(expected) == len(metrics) == 22
        assert metrics == expected


class TestBenchDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_bench(
            seed=42,
            n_peers=N_PEERS,
            n_keys=N_KEYS,
            replication_factors=(0, 2),
            churn_fractions=(0.3,),
        )

    def test_shape(self, doc):
        # 1 stack-pair x 2 factors x 1 churn x 2 modes x 2 placements
        assert len(doc["metrics"]["cells"]) == 2 * 2 * 1 * 2 * 2
        assert set(doc["metrics"]["headline"]) == {
            "ring_locality",
            "chain_vs_quorum",
            "handoff_loss",
        }
        for stack in ("chord", "hieras"):
            assert set(doc["metrics"]["handoff"][stack]) == {"on", "off"}

    def test_chord_placements_identical(self, doc):
        """Flat Chord has one ring: ring_scoped must equal successor."""
        by_key = {}
        for c in doc["metrics"]["cells"]:
            if c["stack"] != "chord":
                continue
            scrubbed = {k: v for k, v in c.items() if k != "placement"}
            key = (c["replicas"], c["consistency"], c["placement"])
            by_key[key] = scrubbed
        for replicas in (0, 2):
            for mode in ("chain", "quorum"):
                assert (
                    by_key[(replicas, mode, "successor")]
                    == by_key[(replicas, mode, "ring_scoped")]
                )
