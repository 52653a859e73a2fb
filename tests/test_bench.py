"""The bench harness, checked once for every registered bench.

A bench is an experiment that names a committed ``BENCH_*.json``
(``Experiment.document``).  Everything the six documents share — the
envelope, reproducibility of ``config`` + ``metrics``, the byte-stable
writer, a report that renders from the document alone, drift detection
— is asserted here for each of them at a tiny configuration; what is
*in* a document stays with its own module's tests
(``test_perf_baseline.py``, ``test_durability_exp.py``, …).
"""

import copy
import json
import shutil
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.experiments.bench import drift, read_committed, write_doc
from repro.experiments.figures import EXPERIMENTS, Experiment, ExperimentResult

ROOT = Path(__file__).resolve().parent.parent
BENCHES = {e.id: e for e in EXPERIMENTS.values() if e.document}

#: ``run_bench`` overrides small enough for tier-1, one per bench — the
#: configurations the per-module tests use.
TINY = {
    "perf_baseline": dict(n_peers=200, n_requests=400, seed=7),
    "batch_route": dict(seed=2, sizes=(128,), n_requests=200),
    "scale": dict(sizes=(192, 320)),
    "durability": dict(
        seed=42, n_peers=120, n_keys=24,
        replication_factors=(0, 2), churn_fractions=(0.3,),
    ),
    "saturation": dict(
        seed=42, n_peers=100, duration_ms=1500.0, rates=(200.0, 1600.0, 2400.0)
    ),
    "scenarios": dict(seed=7, scenarios=("regional_failure",)),
}


def _produce(bench_id: str) -> dict:
    return BENCHES[bench_id].load().run_bench(**TINY[bench_id])


@pytest.fixture(scope="module")
def tiny_doc():
    """``tiny_doc(bench_id)``: the bench's tiny document, produced once."""
    docs: dict[str, dict] = {}

    def get(bench_id: str) -> dict:
        if bench_id not in docs:
            docs[bench_id] = _produce(bench_id)
        return docs[bench_id]

    return get


def _first_leaf(node, path=""):
    """(key path as ``drift`` prints it, keys to walk) of the first scalar leaf."""
    keys = []
    while isinstance(node, (dict, list)):
        key = sorted(node)[0] if isinstance(node, dict) else 0
        path += f".{key}" if isinstance(node, dict) else f"[{key}]"
        keys.append(key)
        node = node[key]
    return path, keys


def _is_claim(line: str) -> bool:
    return line.startswith(("  [ok] ", "  [DIVERGES] "))


class TestRegistry:
    def test_every_bench_has_a_tiny_config(self):
        assert BENCHES and set(TINY) == set(BENCHES)

    def test_every_committed_document_is_named_by_exactly_one_bench(self):
        committed = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
        assert sorted(e.document for e in BENCHES.values()) == committed

    @pytest.mark.parametrize("bench_id", list(BENCHES))
    def test_committed_schema_is_the_producers(self, bench_id, tiny_doc):
        exp = BENCHES[bench_id]
        doc = read_committed(ROOT / exp.document, exp.load().SCHEMA)
        assert set(doc) == {"schema", "config", "phases", "metrics"}
        # The producer's own config keys, no more: a key the producers
        # stopped writing fails here in tier-1, not only in CI's --check.
        assert set(doc["config"]) == set(tiny_doc(bench_id)["config"])
        assert "seed" in doc["config"]

    def test_other_experiments_name_no_document(self):
        others = [e for e in EXPERIMENTS.values() if e.id not in BENCHES]
        assert others and all(e.document is None and e.module is None for e in others)


@pytest.mark.parametrize("bench_id", list(BENCHES))
class TestEveryBench:
    def test_envelope(self, bench_id, tiny_doc):
        doc = tiny_doc(bench_id)
        assert set(doc) == {"schema", "config", "phases", "metrics"}
        assert doc["schema"] == BENCHES[bench_id].load().SCHEMA
        assert doc["config"]["seed"] == TINY[bench_id].get("seed", 42)
        assert list(doc["phases"])[-1] == "peak_rss"
        assert set(doc["phases"]["peak_rss"]) == {"peak_rss_mb"}
        assert doc["phases"]["peak_rss"]["peak_rss_mb"] > 0.0
        timings = [
            value
            for name, phase in doc["phases"].items()
            if name != "peak_rss"
            for key, value in phase.items()
            if key.endswith("wall_ms")
        ]
        assert timings and all(t >= 0.0 for t in timings)

    def test_rerun_reproduces_config_and_metrics(self, bench_id, tiny_doc):
        doc, again = tiny_doc(bench_id), _produce(bench_id)
        for section in ("config", "metrics"):
            assert json.dumps(again[section], sort_keys=True) == json.dumps(
                doc[section], sort_keys=True
            )
        assert set(again["phases"]) == set(doc["phases"])

    def test_writer_is_byte_stable(self, bench_id, tiny_doc, tmp_path):
        doc = tiny_doc(bench_id)
        first = write_doc(doc, tmp_path / "a.json")
        second = write_doc(doc, tmp_path / "b.json")
        text = first.read_text(encoding="utf-8")
        assert text == second.read_text(encoding="utf-8")
        assert text.endswith("}\n")
        assert json.loads(text) == json.loads(json.dumps(doc))
        assert drift(doc, json.loads(text)) is None

    def test_report_renders_from_the_document(self, bench_id, tiny_doc):
        doc = tiny_doc(bench_id)
        report = BENCHES[bench_id].load().report
        text = report(doc)
        assert sum(_is_claim(line) for line in text.splitlines()) >= 1
        # ... and from the document as it reads back from disk.
        assert report(json.loads(json.dumps(doc))) == text

    def test_drift_names_the_changed_leaf_and_ignores_phases(self, bench_id, tiny_doc):
        doc = tiny_doc(bench_id)
        committed = json.loads(json.dumps(doc))
        committed["phases"] = {"peak_rss": {"peak_rss_mb": -1.0}}
        assert drift(doc, committed) is None
        for section in ("config", "metrics"):
            edited = copy.deepcopy(committed)
            path, keys = _first_leaf(edited[section], section)
            node = edited[section]
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = "edited"
            where = drift(doc, edited)
            assert where is not None and where.startswith(f"{path}: ")
            assert "'edited'" in where


class TestDrift:
    def test_type_changes_and_missing_keys_are_drift(self):
        base = {"schema": "s", "config": {"n": 1}, "metrics": {"cells": [1.5, 2.5]}}
        assert drift(base, copy.deepcopy(base)) is None
        assert drift(base, {**base, "config": {"n": 1.0}}).startswith("config.n: ")
        assert drift(base, {**base, "config": {}}) == (
            "config.n: only in the regenerated document"
        )
        assert drift(base, {**base, "config": {"n": 1, "m": 2}}) == (
            "config.m: only in the committed document"
        )
        assert drift(base, {**base, "metrics": {"cells": [1.5]}}).startswith(
            "metrics.cells: 2 items"
        )
        assert drift(base, {**base, "metrics": {"cells": [1.5, 2.0]}}).startswith(
            "metrics.cells[1]: "
        )
        assert drift(base, {**base, "schema": "t"}).startswith("schema: ")

    def test_tuples_compare_as_the_lists_they_serialise_to(self):
        assert drift({"config": {"sizes": (1, 2)}}, {"config": {"sizes": [1, 2]}}) is None


class TestReadCommitted:
    def test_missing_file_names_file_and_schema(self, tmp_path):
        with pytest.raises(ValueError, match=r"BENCH_x\.json.*not found.*'repro\.x/1'"):
            read_committed(tmp_path / "BENCH_x.json", "repro.x/1")

    def test_schema_mismatch_names_file_and_both_schemas(self, tmp_path):
        path = write_doc({"schema": "repro.old/1"}, tmp_path / "BENCH_x.json")
        with pytest.raises(
            ValueError, match=r"BENCH_x\.json: expected schema 'repro\.x/1', found 'repro\.old/1'"
        ):
            read_committed(path, "repro.x/1")


@pytest.fixture()
def stub_resilience(monkeypatch):
    """``resilience`` with its 15 s of lookups replaced by fixed cell readings."""
    from repro.experiments import resilience

    cell = {
        net: {"success_rate": 1.0, "mean_hops": 5.0, "timeouts_per_lookup": 0.0,
              "mean_total_latency_ms": latency}
        for net, latency in (("chord", 900.0), ("hieras", 600.0))
    }
    proto = {"completed": 10.0, "failed": 0.0, "correct": 10.0, "retries_used": 0.0}
    monkeypatch.setattr(resilience, "run_static_resilience_cell", lambda *a, **kw: cell)
    monkeypatch.setattr(resilience, "run_protocol_resilience", lambda **kw: proto)


class TestCli:
    def test_bench_writes_the_document(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench", "perf_baseline", "--out", "out.json"]) == 0
        out = capsys.readouterr().out
        assert "wrote out.json" in out and "[ok]" in out
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["schema"] == BENCHES["perf_baseline"].load().SCHEMA
        assert doc["metrics"]["hieras"]["low_layer_hop_share"] > 0.5
        for net in ("chord", "hieras"):
            assert doc["metrics"][net]["lookups"] == doc["config"]["n_requests"]

    def test_out_defaults_to_the_document_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench", "perf_baseline", "--seed", "5"]) == 0
        doc = json.loads((tmp_path / "BENCH_baseline.json").read_text())
        assert doc["config"]["seed"] == 5

    def test_check_passes_on_the_committed_file_and_names_an_edited_metric(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        shutil.copy(ROOT / "BENCH_baseline.json", tmp_path)
        assert cli.main(["bench", "perf_baseline", "--check"]) == 0
        assert "equal the committed BENCH_baseline.json" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_baseline.json"]

        doc = json.loads((tmp_path / "BENCH_baseline.json").read_text())
        doc["metrics"]["hieras"]["hops"]["mean"] += 0.5
        write_doc(doc, tmp_path / "BENCH_baseline.json")
        assert cli.main(["bench", "perf_baseline", "--check", "--out", "new.json"]) == 1
        out = capsys.readouterr().out
        assert "DRIFT from the committed BENCH_baseline.json" in out
        assert "metrics.hieras.hops.mean" in out
        assert (tmp_path / "new.json").exists()

    def test_check_regenerates_at_the_committed_seed(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench", "perf_baseline", "--seed", "5"]) == 0
        assert cli.main(["bench", "perf_baseline", "--check"]) == 0
        assert "seed 5]" in capsys.readouterr().out

    def test_check_and_seed_are_mutually_exclusive(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for argv in (["--check", "--seed", "7"], ["--seed", "42", "--check"]):
            with pytest.raises(SystemExit) as exit_:
                cli.main(["bench", "perf_baseline", *argv])
            assert exit_.value.code == 2
            assert "not allowed with argument" in capsys.readouterr().err

    def test_check_without_a_committed_file_fails_loudly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=r"BENCH_baseline\.json.*repro\.perf_baseline/1"):
            cli.main(["bench", "perf_baseline", "--check"])

    @pytest.mark.parametrize("bad_id", ["fig2", "nope"])
    def test_non_bench_id_lists_the_bench_ids(self, bad_id):
        with pytest.raises(ValueError) as err:
            cli.main(["bench", bad_id])
        assert all(bench_id in str(err.value) for bench_id in BENCHES)

    def test_a_diverging_claim_exits_1_after_writing(self, tmp_path, monkeypatch):
        doc = {"schema": "t/1", "config": {}, "phases": {}, "metrics": {}}
        bad = Experiment(
            "bad", "Bad", "claim",
            lambda seed: ExperimentResult("bad", "Bad", "  [DIVERGES] nope", doc),
            document="BENCH_bad.json",
        )
        monkeypatch.setattr(cli, "EXPERIMENTS", {"bad": bad})
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench", "bad"]) == 1
        assert json.loads((tmp_path / "BENCH_bad.json").read_text()) == doc

    def test_artifact_dir_is_created_on_demand(self, tmp_path, monkeypatch, stub_resilience):
        """``REPRO_ARTIFACT_DIR`` may name a directory that does not exist
        yet: ``run``'s metrics artifacts land in it, ``resilience``'s rows
        among them, and under the registry's one title."""
        fresh = tmp_path / "a" / "b"
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(fresh))
        assert cli.main(["run", "table1", "resilience"]) == 0
        assert json.loads((fresh / "metrics_table1.json").read_text())["experiment"] == "table1"
        doc = json.loads((fresh / "metrics_resilience.json").read_text())
        assert len(doc["data"]["rows"]) == 8
        assert doc["title"] == EXPERIMENTS["resilience"].title
        assert sorted(p.name for p in fresh.iterdir()) == [
            "metrics_resilience.json", "metrics_table1.json",
        ]

    def test_unwritable_artifact_dir_raises(self, tmp_path, monkeypatch):
        """The artifact writers do not swallow a directory they cannot write."""
        (tmp_path / "file").write_text("not a directory")
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "file" / "dir"))
        with pytest.raises(OSError):
            cli.main(["run", "table1"])
        with pytest.raises(OSError):
            cli.main(["bench", "perf_baseline", "--out", str(tmp_path / "no" / "x.json")])
