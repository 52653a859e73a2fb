"""The scenario-suite benchmark: named failure campaigns, both stacks.

Runs every campaign in :mod:`repro.scenarios.library` against flat
Chord and HIERAS on the same deployment config and collects the four
scenario-level measurements — availability over time, route stretch
versus a fault-free twin, sustained recovery time, and data
durability — into one ``BENCH_scenarios.json`` document.

The document follows the repo-wide ``BENCH_*`` convention: ``phases``
holds wall-clock timings (nondeterministic), ``metrics`` is a pure
function of ``(config, seed)`` and byte-reproducible — CI regenerates
the reduced sweep and compares it with the committed document.

:data:`GATES` pins regression thresholds for the adversarial headline
(the correlated regional failure): if HIERAS availability collapses
further than observed at pin time, recovery slows past the ceiling, or
data loss appears where none was, :func:`check_gates` reports the
violations; the report's last claim is "no violations", so every
runner of the ``scenarios`` experiment fails on them.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.bench import BenchRun, claim
from repro.experiments.config import SimConfig
from repro.scenarios.runner import run_scenario_cell
from repro.scenarios.spec import ScenarioParams
from repro.scenarios.library import scenario_names

__all__ = ["GATES", "SCHEMA", "check_gates", "report", "run_bench"]

SCHEMA = "repro.bench_scenarios/1"

#: Regression thresholds for the reduced (CI) sweep at the default
#: seed, pinned from the run committed as ``BENCH_scenarios.json``.
#: Keys are ``(scenario, stack)``; each gate names a metric, a bound
#: direction, and the pinned limit (with headroom over the observed
#: value so only a real regression trips it).
#:
#: Pinned observations (reduced sweep, seed 42): HIERAS rides out the
#: whole-ring crash at availability_min 0.583 and recovers in 650 ms,
#: but ring-scoped placement loses 20.3% of keys to the correlated
#: failure; Chord bottoms at 0.708, recovers in 650 ms, loses nothing.
GATES: dict[tuple[str, str], dict[str, tuple[str, float]]] = {
    ("regional_failure", "hieras"): {
        "availability_min": ("min", 0.40),
        "recovery_ms": ("max", 1400.0),
        "loss_probability": ("max", 0.35),
        "availability_final": ("min", 0.95),
    },
    ("regional_failure", "chord"): {
        "availability_min": ("min", 0.50),
        "recovery_ms": ("max", 1400.0),
        "loss_probability": ("max", 0.05),
    },
}


def run_bench(
    *,
    full: bool = False,
    seed: int = 42,
    scenarios: tuple[str, ...] | None = None,
) -> dict[str, object]:
    """Run the scenario sweep once; returns the BENCH document.

    Every named campaign replays against both stacks on the same
    deployment config — the campaigns themselves are compiled from the
    pristine HIERAS overlay, so e.g. the regional failure kills the
    identical peer set under flat Chord.  ``full`` scales peers,
    duration and probe density up; the reduced shape is the CI smoke
    sweep.
    """
    names = list(scenarios) if scenarios is not None else scenario_names()
    config = SimConfig(
        model="ts",
        n_peers=1200 if full else 360,
        n_landmarks=4,
        depth=2,
        seed=seed,
    )
    params = ScenarioParams(
        seed=seed,
        duration_ms=8000.0 if full else 3000.0,
        probe_interval_ms=200.0 if full else 150.0,
        n_probes=32 if full else 24,
        rate_per_s=60.0 if full else 40.0,
        fault_at_ms=2000.0 if full else 1000.0,
        stabilize_delay_ms=600.0,
        catalog_size=128 if full else 64,
    )

    bench = BenchRun(SCHEMA, full=full, seed=seed)
    results: dict[str, dict[str, dict[str, object]]] = {}
    for name in names:
        with bench.timed(name):
            results[name] = {
                stack: run_scenario_cell(config, name, stack, params)
                for stack in ("chord", "hieras")
            }

    return bench.document(
        config={
            "n_peers": config.n_peers,
            "n_landmarks": config.n_landmarks,
            "depth": config.depth,
            "duration_ms": params.duration_ms,
            "probe_interval_ms": params.probe_interval_ms,
            "n_probes": params.n_probes,
            "rate_per_s": params.rate_per_s,
            "scenarios": names,
        },
        metrics={"scenarios": results, "headline": _headline(results, params)},
    )


def _headline(
    results: dict[str, dict[str, dict[str, object]]], params: ScenarioParams
) -> dict[str, object]:
    """Condense the cross-scenario comparisons the suite exists for."""
    headline: dict[str, object] = {}
    if "regional_failure" in results:
        headline["regional_failure"] = {
            stack: {
                "availability_min": cell["availability_min"],
                "availability_final": cell["availability_final"],
                "recovery_ms": cell["recovery_ms"],
                "recovered": cell["recovered"],
                "loss_probability": cell["loss_probability"],
                "ring_size": cell["notes"]["ring_size"],  # type: ignore[index]
            }
            for stack, cell in results["regional_failure"].items()
        }
    if "graceful_leave" in results and "abrupt_crash" in results:
        headline["graceful_vs_abrupt"] = {
            stack: {
                "graceful_loss": results["graceful_leave"][stack]["loss_probability"],
                "abrupt_loss": results["abrupt_crash"][stack]["loss_probability"],
                "graceful_availability_min": results["graceful_leave"][stack][
                    "availability_min"
                ],
                "abrupt_availability_min": results["abrupt_crash"][stack][
                    "availability_min"
                ],
                "graceful_stretch": results["graceful_leave"][stack]["stretch_mean"],
                "abrupt_stretch": results["abrupt_crash"][stack]["stretch_mean"],
            }
            for stack in ("chord", "hieras")
        }
    if "flash_join" in results:
        flash: dict[str, object] = {}
        for stack, cell in results["flash_join"].items():
            rebalance_at = float(cell["notes"]["rebalance_at_ms"])  # type: ignore[index]
            totals = cell["gets_total_timeline"]
            oks = cell["gets_ok_timeline"]
            pre_total = pre_ok = post_total = post_ok = 0.0
            for i in range(len(totals)):  # type: ignore[arg-type]
                t = (i + 1) * params.probe_interval_ms
                if t <= params.fault_at_ms:
                    continue
                if t <= rebalance_at:
                    pre_total += totals[i]  # type: ignore[index]
                    pre_ok += oks[i]  # type: ignore[index]
                else:
                    post_total += totals[i]  # type: ignore[index]
                    post_ok += oks[i]  # type: ignore[index]
            flash[stack] = {
                "rebalanced": cell["rebalanced"],
                "pre_rebalance_get_failure": (
                    1.0 - pre_ok / pre_total if pre_total else 0.0
                ),
                "post_rebalance_get_failure": (
                    1.0 - post_ok / post_total if post_total else 0.0
                ),
            }
        headline["flash_join"] = flash
    if "landmark_outage_rolling" in results:
        headline["landmark_outage"] = {
            stack: {
                "stretch_mean": cell["stretch_mean"],
                "stretch_max": cell["stretch_max"],
                "availability_min": cell["availability_min"],
            }
            for stack, cell in results["landmark_outage_rolling"].items()
        }
    if "weibull_churn" in results:
        headline["weibull_churn"] = {
            stack: {
                "availability_mean": cell["availability_mean"],
                "availability_min": cell["availability_min"],
                "loss_probability": cell["loss_probability"],
                "graceful_handoffs": cell["graceful_handoffs"],
            }
            for stack, cell in results["weibull_churn"].items()
        }
    return headline


def check_gates(doc: dict[str, object]) -> list[str]:
    """Evaluate :data:`GATES` against a BENCH document; list violations.

    Gates are pinned for the reduced default-seed sweep; a ``full`` or
    reseeded document is checked against the same limits (they carry
    headroom, and a wildly different shape should be looked at anyway).
    Returns human-readable violation strings; empty means all gates
    hold.
    """
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return ["document has no metrics section"]
    scenarios = metrics.get("scenarios")
    if not isinstance(scenarios, dict):
        return ["metrics has no scenarios section"]
    violations: list[str] = []
    for (scenario, stack), rules in sorted(GATES.items()):
        cell = scenarios.get(scenario, {}).get(stack)
        if cell is None:
            violations.append(f"{scenario}/{stack}: cell missing from document")
            continue
        for metric, (direction, limit) in sorted(rules.items()):
            value = cell.get(metric)
            if not isinstance(value, (int, float)):
                violations.append(f"{scenario}/{stack}: metric {metric!r} missing")
                continue
            if metric == "recovery_ms" and value < 0.0:
                # -1.0 is the censored sentinel: never recovered.
                violations.append(
                    f"{scenario}/{stack}: never re-crossed the recovery threshold"
                )
            elif direction == "min" and value < limit:
                violations.append(
                    f"{scenario}/{stack}: {metric}={value:.4f} below floor {limit}"
                )
            elif direction == "max" and value > limit:
                violations.append(
                    f"{scenario}/{stack}: {metric}={value:.4f} above ceiling {limit}"
                )
    return violations


def report(doc: dict[str, object]) -> str:
    """Render the scenario-suite report from its document.

    One claim per headline contrast the document carries (a run
    restricted to some campaigns reports on those), then the pinned
    regression gates.
    """
    metrics = doc["metrics"]
    scenarios = metrics["scenarios"]
    headline = metrics["headline"]
    rows = [
        {
            "scenario": name,
            "stack": stack,
            "avail_min": round(c["availability_min"], 3),
            "avail_final": round(c["availability_final"], 3),
            "recovery_ms": int(c["recovery_ms"]),
            "stretch": round(c["stretch_mean"], 2),
            "loss_%": round(100 * c["loss_probability"], 2),
            "handoffs": int(c["graceful_handoffs"]),
        }
        for name, cells in scenarios.items()
        for stack, c in cells.items()
    ]
    claims = []
    if "regional_failure" in headline:
        regional = headline["regional_failure"]
        claims.append(claim(
            all(
                c["notes"]["ring_size"] > 0
                and c["crashed_final"] == c["notes"]["ring_size"]
                and c["availability_min"] < 1.0
                and c["recovered"] == 1.0
                for c in scenarios["regional_failure"].values()
            ),
            "the regional campaign crashes an entire lowest-layer HIERAS ring "
            f"({regional['hieras']['ring_size']} peers) in one wave on both "
            "stacks; availability dips "
            f"({ {s: round(r['availability_min'], 2) for s, r in regional.items()} } min) "
            "and sustainably recovers "
            f"({ {s: round(r['recovery_ms']) for s, r in regional.items()} } ms)",
        ))
        claims.append(claim(
            regional["hieras"]["loss_probability"] > regional["chord"]["loss_probability"],
            "ring-scoped placement trades correlated-failure durability for "
            "write locality: the whole-ring crash takes every co-located "
            f"replica ({100 * regional['hieras']['loss_probability']:.1f}% keys "
            f"lost on HIERAS vs {100 * regional['chord']['loss_probability']:.1f}% "
            "on Chord, whose replicas spread hash-uniformly)",
        ))
    if "graceful_vs_abrupt" in headline:
        pair = headline["graceful_vs_abrupt"]
        claims.append(claim(
            all(
                p["graceful_stretch"] < p["abrupt_stretch"]
                and p["graceful_loss"] <= p["abrupt_loss"]
                for p in pair.values()
            ),
            "announcing a departure is worth the handoff: the same cohort "
            "leaving gracefully routes at "
            f"{ {s: round(p['graceful_stretch'], 2) for s, p in pair.items()} } stretch vs "
            f"{ {s: round(p['abrupt_stretch'], 2) for s, p in pair.items()} } when it "
            "crashes silently (stale fingers until the stabilize purge)",
        ))
    if "flash_join" in headline:
        flash = headline["flash_join"]
        claims.append(claim(
            all(
                f["rebalanced"] > 0
                and f["post_rebalance_get_failure"] < f["pre_rebalance_get_failure"]
                for f in flash.values()
            ),
            "the flash join shifts ownership away from the data until the "
            "rebalance pass re-homes it: get failure "
            f"{ {s: round(f['pre_rebalance_get_failure'], 3) for s, f in flash.items()} } pre- vs "
            f"{ {s: round(f['post_rebalance_get_failure'], 3) for s, f in flash.items()} } post-rebalance",
        ))
    if "weibull_churn" in headline:
        weibull = headline["weibull_churn"]
        claims.append(claim(
            all(
                w["availability_mean"] >= 0.9 and w["graceful_handoffs"] > 0
                for w in weibull.values()
            ),
            "both stacks serve through sustained heavy-tailed (Weibull) session "
            "churn at >=90% mean probe availability "
            f"({ {s: round(w['availability_mean'], 3) for s, w in weibull.items()} })",
        ))
    if "landmark_outage" in headline:
        landmark = headline["landmark_outage"]
        claims.append(claim(
            landmark["hieras"]["stretch_mean"] > landmark["chord"]["stretch_mean"],
            "rolling landmark outages are a HIERAS-specific hazard: rejoiners "
            "binned from blinded coordinates land in the wrong low-layer rings "
            f"(stretch {landmark['hieras']['stretch_mean']:.2f} vs flat Chord "
            f"{landmark['chord']['stretch_mean']:.2f}, which ignores landmarks)",
        ))
    violations = check_gates(doc)
    claims.append(claim(
        not violations,
        "all pinned regional regression gates hold "
        "(availability floor, recovery ceiling, loss ceiling)"
        + "".join(f"; VIOLATED {v}" for v in violations),
    ))
    config = doc["config"]
    lines = [
        f"{config['n_peers']} peers, TS model, {len(config['scenarios'])} campaigns "
        f"x both stacks, {config['duration_ms']:.0f} ms per run, seed {config['seed']}",
        format_table(rows),
        "",
        *claims,
    ]
    return "\n".join(lines)
