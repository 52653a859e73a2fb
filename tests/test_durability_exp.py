"""Tests for the durability experiment (``repro.experiments.durability``).

The envelope, reproducibility and writer checks every bench shares live
in ``tests/test_bench.py``.
"""

import pytest

from repro.experiments.config import SimConfig
from repro.experiments.durability import run_bench, run_durability_cell
from repro.experiments.runner import build_bundle
from repro.replication import ReplicationPolicy

# Tiny parameters: every test below shares one cached bundle.
N_PEERS = 120
N_KEYS = 24


@pytest.fixture(scope="module")
def bundle():
    return build_bundle(
        SimConfig(model="ts", n_peers=N_PEERS, n_landmarks=4, depth=2, seed=42)
    )


def run_cell(bundle, **overrides):
    kwargs = dict(
        stack="chord",
        policy=ReplicationPolicy(replicas=2, consistency="quorum"),
        churn_fraction=0.3,
        n_keys=N_KEYS,
        seed=42,
    )
    kwargs.update(overrides)
    return run_durability_cell(bundle, **kwargs)


class TestCell:
    def test_cell_is_deterministic(self, bundle):
        assert run_cell(bundle) == run_cell(bundle)

    def test_cell_counts_are_consistent(self, bundle):
        cell = run_cell(bundle)
        # publish + half updated + half new keys
        assert cell["puts"] == N_KEYS + 2 * (N_KEYS // 2)
        assert cell["reads"] == 2 * (N_KEYS + N_KEYS // 2)
        assert cell["keys"] == N_KEYS + N_KEYS // 2
        assert 0.0 <= cell["loss_probability"] <= 1.0
        assert cell["crashed_final"] > 0

    def test_replication_beats_bare_storage(self, bundle):
        bare = run_cell(bundle, policy=ReplicationPolicy(replicas=0))
        replicated = run_cell(bundle)
        assert bare["loss_probability"] > replicated["loss_probability"]

    def test_chain_aborts_only_in_chain_mode(self, bundle):
        chain = run_cell(
            bundle, policy=ReplicationPolicy(replicas=2, consistency="chain")
        )
        quorum = run_cell(bundle)
        assert chain["chain_aborts"] > 0
        assert quorum["chain_aborts"] == 0
        assert quorum["put_success_rate"] > chain["put_success_rate"]

    def test_handoff_reduces_loss_or_staleness(self, bundle):
        on = run_cell(bundle)
        off = run_cell(
            bundle,
            policy=ReplicationPolicy(
                replicas=2, consistency="quorum", hinted_handoff=False
            ),
        )
        assert on["hints_replayed"] > 0 and off["hints_replayed"] == 0
        assert (on["loss_probability"], on["stale_probability"]) <= (
            off["loss_probability"],
            off["stale_probability"],
        )

    def test_fault_free_cell_is_lossless(self, bundle):
        cell = run_cell(bundle, churn_fraction=0.0)
        assert cell["loss_probability"] == 0.0
        assert cell["put_success_rate"] == 1.0
        assert cell["read_success_rate"] == 1.0
        assert cell["hints_queued"] == 0


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
