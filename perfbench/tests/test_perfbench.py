"""Smoke tests of the benchmark itself: ``python -m pytest perfbench/tests``.

Not collected by the tier-1 suite (``testpaths`` is ``tests``).  The
smoke sizes (N=512, a few thousand operations) run the same code paths
as the full benchmark in a few seconds.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import spec  # noqa: E402
from perfbench.compare import compare, judge  # noqa: E402
from perfbench.harness import driver_result, run_workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 3


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict[tuple[str, bool], dict]:
    """Every workload once untraced and once traced, at smoke size."""
    out = tmp_path_factory.mktemp("out")
    return {
        (name, trace): run_workload(
            name, seed=SEED, seconds=0.2, trace=trace, smoke=True, out_dir=out
        )
        for name in spec.ALL
        for trace in (False, True)
    }


def test_benchmark_json_matches_spec() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in declared["workloads"]} == spec.WORKLOADS
    units = {m.name: (m.unit, m.better) for m in spec.END_TO_END}
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == [(n, *units[n], bound) for n, bound in spec.DRIVER_END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(
        spec.PER_LAYER
    )
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + list(spec.WORKLOADS))
    assert all(len(why) <= 200 and "\n" not in why for why in spec.WORKLOADS.values())


def test_every_declared_metric_is_present(smoke: dict) -> None:
    for name in spec.ALL:
        plain, traced = smoke[name, False], smoke[name, True]
        assert set(plain["end_to_end"]) == {m.name for m in spec.end_to_end_for(name)}
        assert {n for n, _, _ in spec.PER_LAYER} <= set(traced["per_layer"])
        for doc in (plain, traced):
            line = driver_result(doc)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert all(NAME.fullmatch(n) for n in line["metrics"])
        assert set(driver_result(plain)["metrics"]) == set(spec.DRIVER_END_TO_END)
        assert all(m["value"] != 0 for m in driver_result(plain)["metrics"].values())
        assert set(driver_result(traced)["metrics"]) == {n for n, _, _ in spec.PER_LAYER}


def test_checks_pass_and_nothing_fails(smoke: dict) -> None:
    for (name, trace), doc in smoke.items():
        failed = [k for k, ok in doc["checks"].items() if not ok]
        assert not failed, (name, trace, failed)
        assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
        assert doc["end_to_end"]["failed_fraction"]["value"] == 0.0


def test_traced_run_writes_spans(smoke: dict) -> None:
    doc = smoke["churn_waves", True]
    assert doc["spans"] > 0 and doc["spans_file"] == f"spans-churn_waves-seed{SEED}.jsonl"
    assert doc["per_layer"]["dht.chord.full_rebuilds"]["value"] == 0
    assert doc["per_layer"]["core.hieras.full_rebuilds"]["value"] == 0


def test_sim_block_is_byte_equal_across_runs(smoke: dict, tmp_path: Path) -> None:
    for name in spec.ALL:
        again = run_workload(name, seed=SEED, seconds=0.1, trace=False, smoke=True, out_dir=tmp_path)
        first = smoke[name, False]
        assert json.dumps(again["sim"], sort_keys=True) == json.dumps(first["sim"], sort_keys=True)
        assert again["sim_sha256"] == first["sim_sha256"]
    other = run_workload(
        "route_small", seed=SEED + 1, seconds=0.1, trace=False, smoke=True, out_dir=tmp_path
    )
    assert other["sim_sha256"] != smoke["route_small", False]["sim_sha256"]
    assert other["correct"]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
LOOKUPS = next(m for m in spec.END_TO_END if m.name == "lookups_per_s")
RATIO = next(m for m in spec.END_TO_END if m.name == "latency_ratio")
SETUP = next(m for m in spec.END_TO_END if m.name == "setup_s")


def test_compare_regression_is_worse() -> None:
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert judge(LOOKUPS, base, [v * 0.8 for v in base]).verdict == "worse"
    assert judge(LOOKUPS, base, [v * 1.3 for v in base]).verdict == "better"
    assert judge(LOOKUPS, base, [v * 0.97 for v in base]).verdict == "equal"


def test_compare_noise_is_unresolved() -> None:
    noisy_a = [100.0, 70.0, 130.0, 95.0, 120.0]
    noisy_b = [85.0, 60.0, 125.0, 80.0, 110.0]
    assert judge(LOOKUPS, noisy_a, noisy_b).verdict == "unresolved"
    # Wide spread, but every run of B is worse than every run of A.
    assert judge(LOOKUPS, noisy_a, [40.0, 30.0, 55.0, 45.0, 50.0]).verdict == "worse"


def test_compare_setup_bound_has_a_floor() -> None:
    # +0.2 s on a 0.5 s set-up is +40 %, but under the 0.25 s floor.
    assert judge(SETUP, [0.5, 0.5, 0.5], [0.7, 0.7, 0.7]).verdict == "equal"
    assert judge(SETUP, [0.5, 0.5, 0.5], [0.8, 0.8, 0.8]).verdict == "worse"


def test_compare_exact_drift_in_a_sim_metric() -> None:
    assert judge(RATIO, [0.664, 0.664], [0.664, 0.664]).verdict == "equal"
    assert judge(RATIO, [0.664, 0.664], [0.664001, 0.664001]).verdict == "worse"
    assert judge(RATIO, [0.664, 0.664], [0.663999, 0.663999]).verdict == "better"


def _result(doc: dict, calib: float = 500.0) -> dict:
    return {
        "schema": "perfbench.result/1", "trace": doc["trace"],
        "host": {"host.calib_searchsorted_ns": calib, "host.calib_gather_ns": 5.0},
        "workloads": {doc["workload"]: doc},
    }


def test_compare_documents(smoke: dict) -> None:
    doc = smoke["route_small", False]
    rows, warnings = compare([_result(doc)], [_result(doc)])
    assert {r.verdict for r in rows} == {"equal"} and not warnings
    assert "sim_sha256" in {r.metric for r in rows}

    drifted = json.loads(json.dumps(doc))
    drifted["sim_sha256"] = "0" * 64
    drifted["end_to_end"]["lookups_per_s"]["value"] *= 0.5
    rows, warnings = compare([_result(doc)], [_result(drifted, calib=600.0)])
    verdicts = {r.metric: r.verdict for r in rows}
    assert verdicts["sim_sha256"] == "worse" and verdicts["lookups_per_s"] == "worse"
    assert len(warnings) == 1 and "calib_searchsorted" in warnings[0]
