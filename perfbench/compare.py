"""``perfbench compare A/ B/``: did B get worse than A?

Each directory holds one or more result files written by ``run``.  For
every (metric, workload) the two sets are summarised by median and
quartiles and given one verdict:

* **sim** metrics are compared exactly — any drift is a behaviour
  change, reported as better or worse by its direction;
* **host** metrics are compared against the metric's bound.  When the
  run-to-run spread of either side exceeds the bound and the two sets
  interleave, the verdict is *unresolved*, never *equal*.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from perfbench.spec import END_TO_END, Metric

RESULT_SCHEMA = "perfbench.result/1"

#: Relative difference of the calibration microbench between the two
#: sets beyond which host verdicts deserve a warning.
CALIBRATION_TOLERANCE = 0.10


@dataclass
class Row:
    """One (workload, metric) comparison."""

    workload: str
    metric: str
    kind: str
    a: tuple[float, float, float]  # q1, median, q3
    b: tuple[float, float, float]
    bound: float
    verdict: str


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(metric: Metric, a: list[float], b: list[float], workload: str = "") -> Row:
    """Verdict for one metric on one workload (``a`` is the baseline)."""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (qb[1] - qa[1])  # > 0: B's median is worse
    if metric.kind == "sim":
        allowed = metric.bound * abs(qa[1])
        exact = len(set(a) | set(b)) == 1
        verdict = "equal" if exact or abs(worse_by) <= allowed else (
            "worse" if worse_by > 0 else "better"
        )
        return Row(workload, metric.name, "sim", qa, qb, allowed, verdict)

    allowed = max(metric.bound * abs(qa[1]), metric.floor)
    spread = max(qa[2] - qa[0], qb[2] - qb[0])
    worst_a, best_a = (max(a), min(a)) if sign > 0 else (min(a), max(a))
    worst_b, best_b = (max(b), min(b)) if sign > 0 else (min(b), max(b))
    b_all_worse = sign * (best_b - worst_a) > 0
    b_all_better = sign * (best_a - worst_b) > 0
    noisy = spread > allowed
    if worse_by > allowed:
        verdict = "unresolved" if noisy and not b_all_worse else "worse"
    elif -worse_by > allowed:
        verdict = "unresolved" if noisy and not b_all_better else "better"
    else:
        verdict = "unresolved" if noisy else "equal"
    return Row(workload, metric.name, "host", qa, qb, allowed, verdict)


def load_results(directory: Path) -> list[dict[str, Any]]:
    """Every result file of ``run`` under ``directory``."""
    docs = []
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("schema") == RESULT_SCHEMA:
            docs.append(doc)
    if not docs:
        raise SystemExit(f"perfbench compare: no result files in {directory}")
    return docs


def _values(docs: list[dict[str, Any]], workload: str, metric: str) -> list[float]:
    """End-to-end values of the untraced runs (a traced run spends its
    seconds on spans and probes, so its end-to-end numbers don't count)."""
    return [
        doc["workloads"][workload]["end_to_end"][metric]["value"]
        for doc in docs
        if not doc["trace"]
        and metric in doc["workloads"].get(workload, {}).get("end_to_end", {})
    ]


def compare(a_docs: list[dict[str, Any]], b_docs: list[dict[str, Any]]) -> tuple[list[Row], list[str]]:
    """All rows, and warnings about the machines behind the two sets."""
    rows: list[Row] = []
    workloads = sorted(
        set().union(*(doc["workloads"] for doc in a_docs))
        & set().union(*(doc["workloads"] for doc in b_docs))
    )
    for workload in workloads:
        for metric in END_TO_END:
            a, b = _values(a_docs, workload, metric.name), _values(b_docs, workload, metric.name)
            if a and b:
                rows.append(judge(metric, a, b, workload))
        # The whole sim block, per (seed, traced) both sides ran.
        shas: dict[tuple[int, bool], list[set[str]]] = {}
        for side, docs in enumerate((a_docs, b_docs)):
            for doc in docs:
                if workload in doc["workloads"]:
                    entry = doc["workloads"][workload]
                    key = (entry["seed"], entry["trace"])
                    shas.setdefault(key, [set(), set()])[side].add(entry["sim_sha256"])
        shared = [pair for pair in shas.values() if pair[0] and pair[1]]
        if shared:
            same = all(len(pair[0] | pair[1]) == 1 for pair in shared)
            rows.append(
                Row(workload, "sim_sha256", "sim", (0, 0, 0), (0, 0, 0), 0.0,
                    "equal" if same else "worse")
            )

    warnings = []
    for key in ("host.calib_searchsorted_ns", "host.calib_gather_ns"):
        med_a = statistics.median(doc["host"][key] for doc in a_docs)
        med_b = statistics.median(doc["host"][key] for doc in b_docs)
        if abs(med_b - med_a) > CALIBRATION_TOLERANCE * med_a:
            warnings.append(
                f"warning: {key} differs by {100 * (med_b - med_a) / med_a:+.0f}% between the "
                f"sets ({med_a:.4g} vs {med_b:.4g} ns): host verdicts compare two machines"
            )
    return rows, warnings


def render(rows: list[Row], warnings: list[str]) -> str:
    """The comparison as a fixed-width table."""
    lines = [
        f"{'workload':<13}{'metric':<24}{'kind':<6}{'A q1/median/q3':<36}"
        f"{'B q1/median/q3':<36}{'bound':>10}  verdict"
    ]
    for r in rows:
        if r.metric == "sim_sha256":
            lines.append(f"{r.workload:<13}{r.metric:<24}{r.kind:<6}{'':<36}{'':<36}{'exact':>10}  {r.verdict}")
            continue
        fa = "/".join(f"{v:.6g}" for v in r.a)
        fb = "/".join(f"{v:.6g}" for v in r.b)
        lines.append(
            f"{r.workload:<13}{r.metric:<24}{r.kind:<6}{fa:<36}{fb:<36}{r.bound:>10.4g}  {r.verdict}"
        )
    return "\n".join(lines + warnings)


def main(a_dir: Path, b_dir: Path) -> int:
    rows, warnings = compare(load_results(a_dir), load_results(b_dir))
    print(render(rows, warnings))
    return 1 if any(r.verdict == "worse" for r in rows) else 0
