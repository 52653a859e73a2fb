"""The experiment registry: one entry per paper table/figure + ablations.

Each experiment builds its deployments through the cached runner, runs
the request trace through Chord and HIERAS, and renders the same rows
or series the paper reports, followed by a shape check against the
paper's qualitative claims.  Deployments are data: ``_GRIDS`` holds a
reduced- and a full-scale :class:`SweepSpec` per experiment.
``EXPERIMENTS`` maps ids to :class:`Experiment` records; the CLI and
the pytest benchmarks both dispatch through it.  It is the only
registry: a run function returns ``(text, data)``, its entry adds the
id and title, and the seven *benches* (experiments whose data is also
a committed ``BENCH_*.json``) are ``_bench(...)`` lines naming a
producer module beside this one, imported on first use.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Iterable

import numpy as np

from repro.analysis.compare import bootstrap_ratio_ci
from repro.analysis.plots import bar_chart, line_plot
from repro.analysis.stats import RouteSample, collect_routes, hop_pdf, ratio_percent
from repro.analysis.tables import format_table, render_series
from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.core.hieras_can import HierasCanNetwork
from repro.dht.can import CanNetwork, CanParams
from repro.dht.pastry import PastryNetwork, PastryParams
from repro.experiments.bench import claim as _claim
from repro.experiments.config import DEFAULT_REQUESTS, FULL_REQUESTS, SimConfig, SweepSpec
from repro.experiments.runner import SimulationBundle, build_bundle, make_trace, sample_pair
from repro.topology.latency import NoisyLatencyModel
from repro.util.rng import RngFactory

__all__ = ["Experiment", "ExperimentResult", "EXPERIMENTS", "get_experiment"]


@dataclass
class ExperimentResult:
    """Rendered report plus the structured numbers behind it."""

    experiment_id: str
    title: str
    text: str
    data: dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Experiment:
    """A registered, runnable reproduction of one paper artifact.

    A *bench* additionally names its producer ``module`` (under
    ``repro.experiments``; see :mod:`repro.experiments.bench` for what
    it exposes) and the committed repo-root ``document`` its ``data``
    regenerates.  Both are registry data, ``None`` for every other id.
    """

    id: str
    title: str
    paper_claim: str
    run: Callable[[bool, int], ExperimentResult]
    module: str | None = None
    document: str | None = None

    def load(self):
        """Import a bench's producer module (``SCHEMA``/``run_bench``/``report``)."""
        return importlib.import_module(f"repro.experiments.{self.module}")


#: What a run function returns: the report text and its structured data.
_Output = tuple[str, dict[str, object]]


def _entry(
    experiment_id: str,
    title: str,
    paper_claim: str,
    produce: Callable[[bool, int], _Output],
    module: str | None = None,
    document: str | None = None,
) -> Experiment:
    """Register ``produce(full, seed) -> (text, data)`` under this id and title."""

    def run(full: bool, seed: int) -> ExperimentResult:
        text, data = produce(full, seed)
        return ExperimentResult(experiment_id, title, text, data)

    return Experiment(experiment_id, title, paper_claim, run, module, document)


def _bench(
    experiment_id: str, title: str, paper_claim: str, module: str, document: str
) -> Experiment:
    """Register a bench: run the module's producer, render its report.

    The module is imported on first use, not here — ``perfbench``
    imports ``repro.experiments.config``/``.runner`` and so pays for
    whatever this package's ``__init__`` pulls in.
    """

    def produce(full: bool, seed: int) -> _Output:
        producer = importlib.import_module(f"repro.experiments.{module}")
        doc = producer.run_bench(full=full, seed=seed)
        return producer.report(doc), doc

    return _entry(experiment_id, title, paper_claim, produce, module, document)


# ----------------------------------------------------------------------
# the grids and their readers
# ----------------------------------------------------------------------

_MODELS = ("ts", "inet", "brite")
_HALF = (DEFAULT_REQUESTS // 2, FULL_REQUESTS // 2)


def _scaled(
    sizes: tuple[tuple[int, ...], tuple[int, ...]],
    requests: tuple[int, int] = (DEFAULT_REQUESTS, FULL_REQUESTS),
    **axes: tuple,
) -> tuple[SweepSpec, SweepSpec]:
    """A (reduced-scale, full-scale) grid pair: per-scale sizes and request
    counts, shared other ``axes``."""
    reduced, full = (SweepSpec(sizes=s, n_requests=r, **axes) for s, r in zip(sizes, requests))
    return reduced, full


#: Every deployment an experiment reads, as a (reduced-scale,
#: full-scale) pair; :func:`_grid` sets the run's seed.  Inet cells
#: below the generator's floor drop out through ``SweepSpec.cells``.
_GRIDS: dict[str, tuple[SweepSpec, SweepSpec]] = {
    # Figs 2/3 — §4.1: 1000–10000 nodes on all three topology models.
    "size": _scaled(((1000, 2000, 3000, 4000), tuple(range(1000, 10_001, 1000))), models=_MODELS),
    # Figs 6/7 — §4.4: the landmark count.
    "landmarks": (
        SweepSpec(sizes=(3000,), landmarks=(2, 4, 6, 8, 10, 12), n_requests=DEFAULT_REQUESTS),
        SweepSpec(sizes=(10_000,), landmarks=tuple(range(2, 13)), n_requests=FULL_REQUESTS),
    ),
    # Figs 8/9 — §4.5: hierarchy depth 2–4 with 6 landmarks.
    "depth": _scaled(
        ((2000, 3000, 4000), tuple(range(5000, 10_001, 1000))), landmarks=(6,), depths=(2, 3, 4)
    ),
    # Figs 4/5 — the distributions on one large transit-stub network.
    "dist": _scaled(((4000,), (10_000,))),
    # ablation_binning / _succlist / _noise, and landmark_failure.
    "ablation": _scaled(((2000,), (4000,)), _HALF),
    "landmark_failure": _scaled(((2000,), (4000,)), _HALF, landmarks=(6,)),
    "can": _scaled(((512,), (2048,)), (1500, 4000)),
    "pastry": _scaled(((1500,), (4000,)), (3000, 8000)),
    # cost_analysis measures state, not routes: its requests go unused.
    "cost": _scaled(((1500,), (4000,)), landmarks=(6,), depths=(2, 3, 4)),
    "resilience": _scaled(((1000,), (3000,)), (6000, 12_000)),
}

_Pair = tuple[RouteSample, RouteSample]
_Column = Callable[[RouteSample, RouteSample], float]


def _grid(name: str, full: bool, seed: int) -> SweepSpec:
    """Grid ``name`` at this scale, for this run's seed."""
    return replace(_GRIDS[name][int(full)], seeds=(seed,))


def _sweep(
    name: str, full: bool, seed: int, group: str, x: str
) -> tuple[SweepSpec, dict[object, tuple[list[int], list[_Pair]]]]:
    """Grid ``name`` through the sample cache: per value of config field
    ``group``, the values of field ``x`` and each cell's (chord, hieras)."""
    spec = _grid(name, full, seed)
    groups: dict[object, tuple[list[int], list[_Pair]]] = {}
    for config in spec.cells():
        xs, pairs = groups.setdefault(getattr(config, group), ([], []))
        xs.append(getattr(config, x))
        pairs.append(sample_pair(config, spec.n_requests))
    return spec, groups


def _cell(name: str, full: bool, seed: int) -> tuple[SimConfig, int]:
    """The one deployment of grid ``name`` and its request count."""
    spec = _grid(name, full, seed)
    (config,) = spec.configs()
    return config, spec.n_requests


def _variants(
    name: str,
    full: bool,
    seed: int,
    networks: Callable[[SimulationBundle], Iterable[tuple[object, object]]],
) -> tuple[SimulationBundle, RouteSample, RouteSample, list[tuple[object, object, RouteSample]]]:
    """Grid ``name``'s one deployment with networks rebuilt on it.

    Returns its bundle, its cached (chord, hieras) samples and, for each
    ``(label, network)`` that ``networks(bundle)`` yields, that network
    and its sample over the bundle's own trace.
    """
    config, n_requests = _cell(name, full, seed)
    chord, hieras = sample_pair(config, n_requests)
    bundle = build_bundle(config)
    trace = make_trace(bundle, n_requests)
    rebuilt = [(label, net, collect_routes(net, trace)) for label, net in networks(bundle)]
    return bundle, chord, hieras, rebuilt


def _rebinned(bundle: SimulationBundle, orders, **options) -> HierasNetwork:
    """HIERAS on the bundle's ids and latency, re-binned (at the orders' depth) or reconfigured."""
    return HierasNetwork(
        bundle.space, bundle.node_ids, latency=bundle.peer_latency, landmark_orders=orders, **options
    )


#: Table columns over one cell's (chord, hieras) samples.
_HOPS: dict[str, _Column] = {
    "chord_hops": lambda c, h: round(c.mean_hops, 3),
    "hieras_hops": lambda c, h: round(h.mean_hops, 3),
}


def _latency(digits: int) -> dict[str, _Column]:
    return {
        "chord_ms": lambda c, h: round(c.mean_latency_ms, 1),
        "hieras_ms": lambda c, h: round(h.mean_latency_ms, 1),
        "hieras/chord_%": lambda c, h: round(ratio_percent(h.mean_latency_ms, c.mean_latency_ms), digits),
    }


def _series(pairs: list[_Pair], columns: dict[str, _Column]) -> dict[str, list[float]]:
    return {name: [column(c, h) for c, h in pairs] for name, column in columns.items()}


def _vs_rows(samples: dict[str, RouteSample], base: str) -> list[dict[str, object]]:
    """``variant / hops / latency_ms / vs_<base>_%`` rows against the first sample."""
    base_ms = next(iter(samples.values())).mean_latency_ms
    return [
        {
            "variant": name,
            "hops": round(s.mean_hops, 3),
            "latency_ms": round(s.mean_latency_ms, 1),
            f"vs_{base}_%": round(ratio_percent(s.mean_latency_ms, base_ms), 1),
        }
        for name, s in samples.items()
    ]


# ----------------------------------------------------------------------
# Tables 1/2 — the distributed binning example and layered finger tables
# ----------------------------------------------------------------------

def _run_table1(full: bool, seed: int) -> _Output:
    """Reproduce Table 1: landmark orders of the paper's 6 sample nodes."""
    distances = np.asarray(
        [
            [25, 5, 30, 100],
            [40, 18, 12, 200],
            [100, 180, 5, 10],
            [160, 220, 8, 20],
            [45, 10, 100, 5],
            [20, 140, 50, 40],
        ],
        dtype=np.float64,
    )
    expected = ["1012", "1002", "2200", "2200", "1020", "0211"]
    orders = BinningScheme.default_for_depth(2).orders(distances)
    rows = orders.table1_rows(labels=list("ABCDEF"))
    got = [row["order"] for row in rows]
    same_ring = orders.order_of(2) == orders.order_of(3)
    lines = [
        format_table(rows),
        "",
        _claim(got == expected, f"orders match the paper exactly: {got}"),
        _claim(same_ring, 'C and D share layer-2 ring "2200"'),
    ]
    return "\n".join(lines), {"orders": got, "expected": expected}


def _run_table2(full: bool, seed: int) -> _Output:
    """Reproduce Table 2's layout: one node's finger table per layer.

    The paper's sample is a 2**8 id space with 3 landmarks; we build an
    equivalent small deployment and print the same columns (start,
    interval, layer-1 successor with its ring, layer-2 successor).
    """
    config = SimConfig(model="ts", n_peers=24, n_landmarks=3, depth=2, seed=seed, bits=8)
    bundle = build_bundle(config)
    peer = 0
    rows = []
    checks = []
    ring_name = bundle.hieras.ring_name_of(peer, 2)
    for row in bundle.hieras.table2_rows(peer):
        (l1_id, _l1_peer, l1_ring), (l2_id, l2_peer, l2_ring) = row.successors
        rows.append(
            {
                "start": row.start,
                "interval": f"[{row.interval[0]},{row.interval[1]})",
                "layer1_succ": f'{l1_id} ("{l1_ring}")',
                "layer2_succ": f'{l2_id} ("{l2_ring}")',
            }
        )
        checks.append(l2_ring == ring_name)
    my_ring = bundle.hieras.ring_of(peer, 2)
    lines = [
        f'node {bundle.hieras.id_of(peer)} ("{ring_name}"), '
        f"{bundle.hieras.n_peers} peers, layer-2 ring size {len(my_ring)}",
        format_table(rows),
        "",
        _claim(
            all(checks),
            "every layer-2 successor belongs to the node's own ring "
            "(layer-1 successors roam freely) — Table 2's defining property",
        ),
    ]
    return "\n".join(lines), {"rows": rows}


# ----------------------------------------------------------------------
# Figures 2/3 — hops and latency vs network size, three models
# ----------------------------------------------------------------------

def _run_fig2(full: bool, seed: int) -> _Output:
    """Figure 2: average routing hops vs size, HIERAS ≈ Chord."""
    sections = []
    deltas: list[float] = []
    growth: dict[str, float] = {}
    for model, (sizes, pairs) in _sweep("size", full, seed, "model", "n_peers")[1].items():
        series = _series(pairs, _HOPS)
        sections.append(f"model={model}\n" + render_series("nodes", sizes, series))
        deltas += [100 * (h.mean_hops - c.mean_hops) / c.mean_hops for c, h in pairs]
        hops = series["hieras_hops"]
        growth[model] = 100 * (hops[-1] - hops[0]) / hops[0]
    mean_delta = float(np.mean(deltas))
    lines = sections + [
        "",
        _claim(
            abs(mean_delta) < 10.0,
            f"HIERAS hop count stays within a few percent of Chord "
            f"(mean delta {mean_delta:+.2f}%; paper: +0.78% to +3.40%)",
        ),
        _claim(
            all(0 < g < 70 for g in growth.values()),
            f"hop growth from smallest to largest network is modest "
            f"({ {m: round(g, 1) for m, g in growth.items()} }; paper: ~32% "
            "for 1000→10000 nodes) — both algorithms scale as O(log N)",
        ),
    ]
    return "\n".join(lines), {"mean_delta_percent": mean_delta, "growth_percent": growth}


def _run_fig3(full: bool, seed: int) -> _Output:
    """Figure 3: average routing latency vs size, per topology model."""
    sections = []
    ratios: dict[str, float] = {}
    for model, (sizes, pairs) in _sweep("size", full, seed, "model", "n_peers")[1].items():
        series = _series(pairs, _latency(1))
        sections.append(f"model={model}\n" + render_series("nodes", sizes, series))
        ratios[model] = float(np.mean(series["hieras/chord_%"]))
    paper = {"ts": 51.8, "inet": 53.41, "brite": 62.47}
    lines = sections + [""]
    for model, mean_ratio in ratios.items():
        lines.append(
            _claim(
                mean_ratio < 80.0,
                f"{model}: HIERAS latency is {mean_ratio:.1f}% of Chord "
                f"(paper: {paper[model]}%) — HIERAS wins decisively",
            )
        )
    return "\n".join(lines), {"mean_ratio_percent": ratios, "paper_ratio_percent": paper}


# ----------------------------------------------------------------------
# Figures 4/5 — distributions on the big TS network
# ----------------------------------------------------------------------

def _run_fig4(full: bool, seed: int) -> _Output:
    """Figure 4: PDF of routing hops (Chord vs HIERAS vs low layer)."""
    config, n_req = _cell("dist", full, seed)
    chord, hieras = sample_pair(config, n_req)
    top = int(max(chord.hops.max(), hieras.hops.max()))
    pdfs = {
        name: hop_pdf(hops, max_hops=top)[1]
        for name, hops in (
            ("chord", chord.hops), ("hieras", hieras.hops), ("hieras_low_layer", hieras.low_layer_hops)
        )
    }
    xs = list(range(top + 1))
    table = render_series(
        "hops", xs, {f"{name}_pdf": [round(v, 4) for v in pdf] for name, pdf in pdfs.items()}
    )
    low_share = 100 * hieras.low_layer_hop_share
    delta = 100 * (hieras.mean_hops - chord.mean_hops) / chord.mean_hops
    chart = bar_chart(
        [f"{h:>2}" for h in xs],
        pdfs["hieras"].tolist(),
        width=42,
        title="HIERAS hop-count PDF:",
    )
    lines = [
        f"network: {config.n_peers} peers, TS model, {n_req} requests",
        table,
        "",
        chart,
        "",
        f"mean hops: chord={chord.mean_hops:.4f} hieras={hieras.mean_hops:.4f} "
        f"(paper: 6.4933 vs 6.5937, +1.55%)",
        f"mean hops taken in the higher layer: {hieras.mean_top_layer_hops:.3f} "
        "(paper: 1.887)",
        _claim(
            abs(delta) < 12.0,
            f"hop distributions nearly coincide (delta {delta:+.2f}%)",
        ),
        _claim(
            low_share > 55.0,
            f"{low_share:.2f}% of HIERAS hops run in lower-layer rings "
            "(paper: 71.38%)",
        ),
    ]
    return "\n".join(lines), {
        "chord_mean_hops": chord.mean_hops,
        "hieras_mean_hops": hieras.mean_hops,
        "low_layer_hop_share": hieras.low_layer_hop_share,
        "top_layer_hops": hieras.mean_top_layer_hops,
    }


def _run_fig5(full: bool, seed: int) -> _Output:
    """Figure 5: CDF of routing latency + the §4.3 link-delay split."""
    config, n_req = _cell("dist", full, seed)
    chord, hieras = sample_pair(config, n_req)
    xs = np.linspace(0, float(max(chord.latency_ms.max(), hieras.latency_ms.max())), 15)
    cdfs = {
        name: np.searchsorted(np.sort(s.latency_ms), xs, side="right") / len(s)
        for name, s in (("chord", chord), ("hieras", hieras))
    }
    table = render_series(
        "latency_ms",
        [round(x, 1) for x in xs],
        {f"{name}_cdf": [round(float(f), 4) for f in cdf] for name, cdf in cdfs.items()},
    )
    ratio = ratio_percent(hieras.mean_latency_ms, chord.mean_latency_ms)
    ratio_ci = bootstrap_ratio_ci(hieras.latency_ms, chord.latency_ms, seed=seed)
    low_delay = hieras.mean_link_delay(layer="low")
    top_delay = hieras.mean_link_delay(layer="top")
    plot = line_plot(
        [round(x, 1) for x in xs],
        {name: [float(f) for f in cdf] for name, cdf in cdfs.items()},
        width=60,
        height=12,
        x_label="latency (ms)",
        title="latency CDFs:",
    )
    lines = [
        f"network: {config.n_peers} peers, TS model, {n_req} requests",
        table,
        "",
        plot,
        "",
        f"latency ratio (paired bootstrap 95% CI): "
        f"{100 * ratio_ci.estimate:.2f}% [{100 * ratio_ci.low:.2f}, {100 * ratio_ci.high:.2f}]",
        f"mean latency: chord={chord.mean_latency_ms:.2f}ms "
        f"hieras={hieras.mean_latency_ms:.2f}ms → {ratio:.2f}% "
        "(paper: 511.47 vs 276.53 → 54.07%)",
        f"mean link delay: higher layer {top_delay:.1f}ms, lower layers "
        f"{low_delay:.3f}ms → {ratio_percent(low_delay, top_delay):.2f}% "
        "(paper: 79 vs 27.758 → 35.23%)",
        f"low-layer hops {100 * hieras.low_layer_hop_share:.2f}% of hops carry "
        f"{100 * hieras.low_layer_latency_share:.2f}% of latency "
        "(paper: 71.38% of hops, 47.24% of latency)",
        _claim(ratio < 80.0, "HIERAS latency CDF dominates Chord's"),
        _claim(
            low_delay < 0.7 * top_delay,
            "lower-layer links are far cheaper than higher-layer links",
        ),
    ]
    return "\n".join(lines), {
        "latency_ratio_percent": ratio,
        "low_link_delay_ms": low_delay,
        "top_link_delay_ms": top_delay,
        "low_latency_share": hieras.low_layer_latency_share,
    }


# ----------------------------------------------------------------------
# Figures 6/7 — landmark count sweep
# ----------------------------------------------------------------------

def _run_fig6(full: bool, seed: int) -> _Output:
    """Figure 6: hops vs number of landmarks."""
    spec, groups = _sweep("landmarks", full, seed, "n_peers", "n_landmarks")
    ((n_peers, (counts, pairs)),) = groups.items()
    series = _series(
        pairs,
        {**_HOPS, "hieras_low_layer_hops": lambda c, h: round(float(h.low_layer_hops.mean()), 3)},
    )
    hieras_hops, low_hops = series["hieras_hops"], series["hieras_low_layer_hops"]
    spread = max(hieras_hops) - min(hieras_hops)
    lines = [
        f"network: {n_peers} peers, TS model, {spec.n_requests} requests",
        render_series("landmarks", counts, series),
        "",
        _claim(
            spread < 0.12 * float(np.mean(hieras_hops)),
            f"hop count changes little across landmark counts "
            f"(spread {spread:.3f} hops; paper: 'changes little')",
        ),
        _claim(
            low_hops[0] >= max(low_hops) - 1e-9 or low_hops[0] > low_hops[-1],
            "lower-layer hops shrink as landmarks increase (more, smaller "
            "rings; paper: 'reduces sharply' from 2 to 8 landmarks)",
        ),
    ]
    return "\n".join(lines), {"counts": counts, "hieras_hops": hieras_hops, "low_hops": low_hops}


def _run_fig7(full: bool, seed: int) -> _Output:
    """Figure 7: latency vs number of landmarks."""
    spec, groups = _sweep("landmarks", full, seed, "n_peers", "n_landmarks")
    ((n_peers, (counts, pairs)),) = groups.items()
    series = _series(pairs, _latency(2))
    ratios = series["hieras/chord_%"]
    best = min(ratios)
    lines = [
        f"network: {n_peers} peers, TS model, {spec.n_requests} requests",
        render_series("landmarks", counts, series),
        "",
        _claim(
            ratios[0] > best + 1.0,
            f"too few landmarks hurt: {counts[0]} landmarks give {ratios[0]}% "
            f"vs best {best}% (paper: 2 landmarks only 7.12% below Chord, "
            "best 43.31% at 8)",
        ),
        _claim(
            abs(ratios[-1] - best) < 15.0,
            "beyond the sweet spot, more landmarks give little extra gain",
        ),
    ]
    return "\n".join(lines), {"counts": counts, "ratios_percent": ratios}


# ----------------------------------------------------------------------
# Figures 8/9 — hierarchy depth sweep
# ----------------------------------------------------------------------

def _run_fig8(full: bool, seed: int) -> _Output:
    """Figure 8: hops vs hierarchy depth (2–4), 6 landmarks."""
    spec, groups = _sweep("depth", full, seed, "depth", "n_peers")
    (sizes, _), *_ = groups.values()
    hops = [[h.mean_hops for _, h in pairs] for _, pairs in groups.values()]
    series = {f"depth{d}_hops": [round(v, 3) for v in vs] for d, vs in zip(groups, hops)}
    increments = [100 * (deep - shallow) / shallow for shallow, deep in zip(hops[0], hops[-1])]
    max_inc = max(abs(v) for v in increments)
    lines = [
        f"TS model, 6 landmarks, {spec.n_requests} requests",
        render_series("nodes", sizes, series),
        "",
        _claim(
            max_inc < 8.0,
            f"depth barely changes hop count (4-layer vs 2-layer within "
            f"{max_inc:.2f}%; paper: +0.29% to +1.65%)",
        ),
    ]
    return "\n".join(lines), {"sizes": sizes, "series": series, "increments_percent": increments}


def _run_fig9(full: bool, seed: int) -> _Output:
    """Figure 9: latency vs hierarchy depth (2–4), 6 landmarks."""
    spec, groups = _sweep("depth", full, seed, "depth", "n_peers")
    (sizes, _), *_ = groups.values()
    ms = [[h.mean_latency_ms for _, h in pairs] for _, pairs in groups.values()]
    series = {f"depth{d}_ms": [round(v, 1) for v in vs] for d, vs in zip(groups, ms)}
    gain_23 = [100 * (d2 - d3) / d2 for d2, d3 in zip(ms[0], ms[1])]
    gain_34 = [100 * (d3 - d4) / d3 for d3, d4 in zip(ms[1], ms[2])]
    lines = [
        f"TS model, 6 landmarks, {spec.n_requests} requests",
        render_series("nodes", sizes, series),
        "",
        f"latency reduction 2→3 layers: {[round(g, 2) for g in gain_23]}% "
        "(paper: 9.64%–16.15%)",
        f"latency reduction 3→4 layers: {[round(g, 2) for g in gain_34]}% "
        "(paper: 2.12%–5.42%, occasionally negative)",
        _claim(
            float(np.mean(gain_23)) > float(np.mean(gain_34)) - 0.5,
            "going deeper helps with diminishing returns — 2 or 3 layers "
            "is the practical optimum (paper §4.5's conclusion)",
        ),
    ]
    return "\n".join(lines), {
        "sizes": sizes, "series": series, "gain_23": gain_23, "gain_34": gain_34,
    }


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §4)
# ----------------------------------------------------------------------

def _run_ablation_binning(full: bool, seed: int) -> _Output:
    """Random ring assignment vs distributed binning.

    Keeps ring count and sizes identical and only destroys the
    *topological* grouping — isolating the binning scheme's entire
    contribution (paper §2.2 argues it is essential).
    """

    def random_rings(bundle: SimulationBundle):
        shuffled = bundle.orders.codes_per_layer[0].copy()
        RngFactory(seed).get("ablation-binning").shuffle(shuffled)
        orders = replace(
            bundle.orders, codes_per_layer=[shuffled], name_pools=bundle.orders.name_pools[:1]
        )
        yield "hieras_random_rings", _rebinned(bundle, orders)

    _, chord, hieras, [(_, _, random_sample)] = _variants("ablation", full, seed, random_rings)
    rows = _vs_rows(
        {"chord": chord, "hieras_binned": hieras, "hieras_random_rings": random_sample}, "chord"
    )
    ok = hieras.mean_latency_ms < 0.8 * random_sample.mean_latency_ms
    lines = [
        format_table(rows),
        "",
        _claim(
            ok,
            "with random (topology-blind) rings the latency win vanishes — "
            "the gain comes from the binning scheme, not from hierarchy alone",
        ),
    ]
    return "\n".join(lines), {"rows": rows}


def _run_ablation_succlist(full: bool, seed: int) -> _Output:
    """Successor-list acceleration policies (§3.2/§3.3).

    The paper reports HIERAS taking slightly *more* hops than Chord yet
    only 1.887 hops in the top ring; the acceleration policy controls
    exactly that trade-off (DESIGN.md §5).
    """
    _, chord, _, variants = _variants(
        "ablation", full, seed,
        lambda bundle: (
            (policy, _rebinned(bundle, bundle.orders, successor_list_policy=policy))
            for policy in ("off", "transitions", "always")
        ),
    )
    rows = [
        {
            "policy": policy,
            "hops": round(sample.mean_hops, 3),
            "hops_vs_chord_%": round(
                100 * (sample.mean_hops - chord.mean_hops) / chord.mean_hops, 2
            ),
            "top_layer_hops": round(sample.mean_top_layer_hops, 3),
            "latency_vs_chord_%": round(
                ratio_percent(sample.mean_latency_ms, chord.mean_latency_ms), 1
            ),
        }
        for policy, _, sample in variants
    ]
    off, transitions, always = (sample.mean_hops for _, _, sample in variants)
    lines = [
        f"chord: hops={chord.mean_hops:.3f} latency={chord.mean_latency_ms:.1f}ms",
        format_table(rows),
        "",
        _claim(
            off > transitions > always,
            "each widening of successor-list use trims hops; 'off' brackets "
            "the paper's +hops regime, 'transitions' its 1.9 top-layer hops",
        ),
    ]
    return "\n".join(lines), {"rows": rows}


def _run_ablation_can(full: bool, seed: int) -> _Output:
    """HIERAS over CAN vs flat CAN vs multiple realities (§3.2).

    Multiple realities are CAN's own route-shortening mechanism
    (redundant coordinate spaces); contrasting them with the HIERAS
    layering separates what redundancy buys (fewer hops, same links)
    from what topology-awareness buys (cheaper links).
    """
    from repro.dht.can_realities import MultiRealityCan

    def can_networks(bundle: SimulationBundle):
        peers, params = np.arange(bundle.config.n_peers), CanParams(dimensions=2)
        yield "can_flat", CanNetwork(peers, params=params, latency=bundle.peer_latency, seed=seed)
        yield "can_3_realities", MultiRealityCan(
            peers, realities=3, params=params, latency=bundle.peer_latency, seed=seed,
        )
        yield "hieras_over_can", HierasCanNetwork(
            len(peers), landmark_orders=bundle.orders, params=params,
            latency=bundle.peer_latency, depth=2, seed=seed,
        )

    config, n_req = _cell("can", full, seed)
    _, _, _, variants = _variants("can", full, seed, can_networks)
    samples = {name: sample for name, _, sample in variants}
    rows = _vs_rows(samples, "flat")
    ratio = ratio_percent(
        samples["hieras_over_can"].mean_latency_ms, samples["can_flat"].mean_latency_ms
    )
    lines = [
        f"{config.n_peers} peers, 2-d CAN, {n_req} requests",
        format_table(rows),
        "",
        _claim(
            ratio < 90.0,
            f"the hierarchy transplants to CAN: layered latency is "
            f"{ratio:.1f}% of flat CAN (paper §3.2: 'easy to extend ... to "
            "other DHT algorithms such as CAN')",
        ),
        _claim(
            samples["hieras_over_can"].mean_latency_ms
            < samples["can_3_realities"].mean_latency_ms,
            "topology-aware layering beats redundancy: realities cut hops "
            "but pay full-cost links; HIERAS's hops run over cheap ones",
        ),
    ]
    return "\n".join(lines), {"rows": rows, "ratio_percent": ratio}


def _run_ablation_pastry(full: bool, seed: int) -> _Output:
    """The locality-technique panel: Chord, Chord+PFS, HIERAS, Pastry,
    Tapestry — the comparison the paper's §6 plans ("compare HIERAS
    performance with other low latency DHT algorithms such as Pastry
    and Tapestry")."""
    from repro.dht.chord_pfs import PfsChordNetwork
    from repro.dht.tapestry import TapestryNetwork, TapestryParams

    def locality_networks(bundle: SimulationBundle):
        ids, latency = bundle.node_ids, bundle.peer_latency
        yield "chord_pfs", PfsChordNetwork(bundle.space, ids, latency=latency, seed=seed)
        yield "pastry_pns", PastryNetwork(
            bundle.space, ids, params=PastryParams(), latency=latency, seed=seed
        )
        yield "tapestry_pns", TapestryNetwork(
            bundle.space, ids, params=TapestryParams(), latency=latency, seed=seed
        )

    config, n_req = _cell("pastry", full, seed)
    _, chord, hieras, variants = _variants("pastry", full, seed, locality_networks)
    pfs, pastry, tapestry = (sample for _, _, sample in variants)
    samples = {
        "chord": chord, "chord_pfs": pfs, "hieras": hieras,
        "pastry_pns": pastry, "tapestry_pns": tapestry,
    }
    rows = _vs_rows(samples, "chord")
    ok = all(s.mean_latency_ms < chord.mean_latency_ms for s in (pfs, hieras, pastry, tapestry))
    lines = [
        f"{config.n_peers} peers, TS model, {n_req} requests",
        format_table(rows),
        "",
        _claim(
            ok,
            "every locality-aware design beats flat Chord on latency; "
            "HIERAS achieves it with Chord-simple per-ring state (the "
            "paper's core argument vs Pastry/Tapestry complexity)",
        ),
    ]
    return "\n".join(lines), {"rows": rows}


def _run_ablation_noise(full: bool, seed: int) -> _Output:
    """Binning under noisy ping measurements (paper §2.2's robustness)."""

    def noisy_rings(bundle: SimulationBundle):
        for sigma in (0.0, 0.1, 0.2, 0.4):
            noisy = NoisyLatencyModel(
                bundle.peer_latency.model, sigma=sigma, seed=seed + int(sigma * 100)
            )
            distances = bundle.attachment.landmark_distances(noisy)
            yield sigma, _rebinned(bundle, BinningScheme.default_for_depth(2).orders(distances))

    _, chord, _, variants = _variants("ablation", full, seed, noisy_rings)
    ratios = [ratio_percent(s.mean_latency_ms, chord.mean_latency_ms) for _, _, s in variants]
    rows = [
        {
            "ping_noise_sigma": sigma,
            "rings": len(net.rings_at_layer(2)),
            "hieras_ms": round(sample.mean_latency_ms, 1),
            "vs_chord_%": round(ratio, 1),
        }
        for (sigma, net, sample), ratio in zip(variants, ratios)
    ]
    lines = [
        format_table(rows),
        "",
        _claim(
            max(ratios) < 90.0,
            "HIERAS keeps a large latency win even with ±40% lognormal ping "
            "noise — binning 'is adequate for HIERAS' (§2.2)",
        ),
    ]
    return "\n".join(lines), {"rows": rows}


def _measure_join_costs(seed: int) -> list[dict[str, object]]:
    """Mean messages per join: flat Chord vs 2-ring HIERAS (§3.3–§3.4).

    Runs the event-driven protocol for a 20-node bootstrap, tracing the
    messages caused by the last five joins of each variant.  HIERAS
    joins additionally fetch ring tables and join a lower ring, so they
    cost more — the overhead §3.4 argues is affordable.
    """
    from repro.core.hieras_protocol import HierasProtocolNode
    from repro.dht.base import ZeroLatency
    from repro.dht.chord_protocol import GLOBAL_RING, ChordProtocolNode
    from repro.sim.engine import Simulator
    from repro.sim.network import SimNetwork
    from repro.metrics.messages import MessageTracer
    from repro.util.ids import IdSpace

    space = IdSpace(16)
    rng = RngFactory(seed).get("join-cost")
    n = 20
    ids = space.sample_unique_ids(n, rng)
    rows = []
    for variant, node_type in (("chord", ChordProtocolNode), ("hieras", HierasProtocolNode)):
        sim = Simulator()
        net = SimNetwork(sim, ZeroLatency())
        nodes = [node_type(p, int(ids[p]), space, sim, net) for p in range(n)]
        if variant == "chord":
            nodes[0].create_ring(GLOBAL_RING)
            start = lambda p: nodes[p].join_ring(GLOBAL_RING, 0)  # noqa: E731
        else:
            nodes[0].found_system(["0"], landmark_table=[1, 2])
            start = lambda p: nodes[p].join_system(0, [str(p % 2)])  # noqa: E731
        for p in range(1, n - 5):
            sim.schedule_at(400.0 * p, start, p)
        sim.run(until=400.0 * (n - 6) + 20_000, max_events=8_000_000)
        window_ms = 4_000.0
        # Baseline: steady-state maintenance traffic over one idle window.
        tracer = MessageTracer(net)
        tracer.start()
        sim.run(until=sim.now + window_ms, max_events=8_000_000)
        baseline = tracer.count()
        tracer.reset()
        # Five probed joins, one window each; the membership grows by
        # one node per window, so baseline drift is ~5%, well below the
        # join cost itself.
        for p in range(n - 5, n):
            sim.schedule_at(sim.now + 50.0, start, p)
            sim.run(until=sim.now + window_ms, max_events=8_000_000)
        tracer.stop()
        join_msgs = max((tracer.count() - 5 * baseline) / 5.0, 0.0)
        rows.append(
            {
                "variant": variant,
                "msgs_per_join": round(join_msgs, 1),
                "steady_state_msgs_per_window": baseline,
                "window_ms": int(window_ms),
            }
        )
    return rows


def _run_cost_analysis(full: bool, seed: int) -> _Output:
    """Quantitative overhead analysis (§3.4 + the paper's future work).

    The paper argues HIERAS's extra state is "hundreds or thousands of
    bytes" and lower-layer upkeep is cheap because ring mates are close;
    its future work promises a quantitative analysis.  This experiment
    measures, per hierarchy depth: routing-state entries and bytes per
    node (closed-form model vs measured), and the mean per-ping delay of
    one maintenance round per layer.  Each depth's HIERAS is the
    runner's own: ``build_bundle`` bins at the config's depth.
    """
    from repro.core.maintenance import (
        maintenance_traffic_cost,
        measured_state_cost,
        state_cost_model,
    )

    spec = _grid("cost", full, seed)
    n_peers = spec.sizes[0]
    rows = []
    ping_rows = []
    for config in spec.cells():
        depth, net = config.depth, build_bundle(config).hieras
        measured = measured_state_cost(net, sample=48, seed=seed)
        ring_counts = [
            float(len(net.rings_at_layer(layer))) for layer in range(2, depth + 1)
        ]
        model = state_cost_model(n_peers, depth, n_rings_per_layer=ring_counts)
        rows.append(
            {
                "depth": depth,
                "measured_entries": round(measured.total_entries, 1),
                "model_entries": round(model.total_entries, 1),
                "measured_bytes": int(measured.total_bytes),
            }
        )
        pings = maintenance_traffic_cost(net, sample=64, seed=seed)
        ping_rows.append({"depth": depth, **{k: round(v, 1) for k, v in pings.items()}})
    ping_headers = ["depth"] + [f"layer{d}_mean_ping_ms" for d in range(1, 5)]
    chord_entries = state_cost_model(n_peers, 1).total_entries
    join_rows = _measure_join_costs(seed)
    lines = [
        f"{n_peers} peers, TS model, {spec.landmarks[0]} landmarks "
        f"(flat Chord: {chord_entries:.1f} entries/node)",
        format_table(rows),
        "",
        "maintenance ping cost per layer (mean ms per successor ping):",
        format_table(ping_rows, headers=ping_headers),
        "",
        "protocol join cost (mean messages per join, event-driven stack):",
        format_table(join_rows),
        "",
        _claim(
            all(r["measured_bytes"] < 10_000 for r in rows),
            "multi-layer state stays in the hundreds-to-few-thousand bytes "
            "range (§3.4: 'only hundred or thousands of bytes')",
        ),
        _claim(
            all(
                row[f"layer{d}_mean_ping_ms"] <= ping_rows[0]["layer1_mean_ping_ms"]
                for row in ping_rows
                for d in range(2, int(row["depth"]) + 1)
            ),
            "lower-layer maintenance pings are no more expensive than "
            "global-ring pings (§3.4: lower-layer upkeep is affordable)",
        ),
    ]
    return "\n".join(lines), {"state_rows": rows, "ping_rows": ping_rows}


def _run_ablation_landmark_failure(full: bool, seed: int) -> _Output:
    """Landmark failure (§2.3): drop landmarks, re-bin, re-measure.

    "In case of a landmark node failure ... previous binned nodes only
    need to drop the failed landmark(s) from their order information.
    In this case, performance degrades."  We quantify the degradation.
    """

    def failed_landmarks(bundle: SimulationBundle):
        orders = bundle.orders
        for failed in range(4):
            if failed:
                orders = orders.drop_landmark(0)
            yield failed, _rebinned(bundle, orders)

    config, n_req = _cell("landmark_failure", full, seed)
    bundle, chord, _, variants = _variants("landmark_failure", full, seed, failed_landmarks)
    ratios = [ratio_percent(s.mean_latency_ms, chord.mean_latency_ms) for _, _, s in variants]
    rows = [
        {
            "landmarks_failed": failed,
            "landmarks_left": net.orders.n_landmarks,
            "rings": len(net.rings_at_layer(2)),
            "vs_chord_%": round(ratio, 1),
        }
        for (failed, net, _), ratio in zip(variants, ratios)
    ]
    # §2.3's mitigation: "use multiple geographically closest nodes as
    # one logical landmark" — losing one group member only perturbs the
    # measured distance instead of deleting an order digit.
    from repro.core.landmarks import LandmarkSet

    model = bundle.peer_latency.model  # the router-level latency model
    stubs = bundle.topology.stub_routers
    logical = LandmarkSet.logical(
        [
            np.asarray([int(lm), int(stubs[int(np.argsort(model.to_targets(int(lm), stubs))[1])])])
            for lm in bundle.attachment.landmark_routers
        ]
    )

    def layer2_names() -> np.ndarray:
        distances = logical.measure(model, bundle.attachment.router_of_peer)
        return BinningScheme.default_for_depth(2).orders(distances).names(0)

    before = layer2_names()
    logical.members[0] = logical.members[0][1:]  # primary of group 0 dies
    unchanged = float(np.mean(before == layer2_names()))

    lines = [
        f"{config.n_peers} peers, TS model, {config.n_landmarks} landmarks initially, "
        f"{n_req} requests",
        format_table(rows),
        "",
        f"logical-landmark mitigation: after one group member dies, "
        f"{100 * unchanged:.1f}% of nodes keep their exact orders "
        "(vs losing a whole order digit when a plain landmark dies)",
        "",
        _claim(
            ratios[-1] >= ratios[0] - 1.0,
            "performance degrades (or at best holds) as landmarks fail, "
            "but the system keeps working on the survivors (§2.3)",
        ),
        _claim(
            ratios[-1] < 95.0,
            "even after half the landmarks fail, HIERAS still beats Chord",
        ),
        _claim(
            unchanged > 0.85,
            "logical landmarks absorb single-member failures (§2.3's "
            "'multiple geographically closest nodes as one logical "
            "landmark')",
        ),
    ]
    return "\n".join(lines), {"rows": rows, "logical_unchanged_fraction": unchanged}


def _run_churn(full: bool, seed: int) -> _Output:
    """Protocol-stack churn: correctness and upkeep under membership flux.

    Two scenarios: a lossless network and one dropping 2% of messages —
    the §3.3 machinery (stabilization, successor lists, ring-table
    republish, join watchdog) must keep lookups correct in both.
    """
    from repro.experiments.churn_exp import run_churn_simulation

    universe = 60 if full else 40
    initial = 36 if full else 24
    rows = []
    ok = True
    for loss in (0.0, 0.02):
        stats = run_churn_simulation(
            universe=universe, initial=initial, seed=seed, loss_rate=loss
        )
        accuracy = stats["correct"] / max(stats["completed"], 1.0)
        # Lookups here are one-shot (no retries): under injected loss a
        # few resolve through views that stabilization has not healed
        # yet, so the floor is lower for the lossy scenario.
        floor = 0.95 if loss == 0.0 else 0.90
        ok = ok and stats["completed"] >= 100 and accuracy >= floor
        rows.append(
            {
                "loss_rate": loss,
                "live_nodes": int(stats["live"]),
                "lookups": int(stats["completed"]),
                "correct_%": round(100 * accuracy, 1),
                "total_msgs": int(stats["messages"]),
                "maintenance_msgs": int(stats["maintenance_msgs"]),
                "lost_msgs": int(stats["messages_lost"]),
            }
        )
    lines = [
        f"universe {universe} peers (churning), 3 lower rings, Poisson sessions",
        format_table(rows),
        "",
        _claim(
            ok,
            "one-shot lookups resolve to the correct live owner through "
            "crashes, leaves and rejoins (>=95% lossless; >=90% under 2% "
            "message loss, where stabilization heals slower) — §3.3's "
            "maintenance machinery works",
        ),
    ]
    return "\n".join(lines), {"rows": rows}


def _run_resilience(full: bool, seed: int) -> _Output:
    """Resilience sweep: lookup survival under crashes and loss (§3.3).

    Static stack: a per-cell FaultPlan crashes a fraction of peers
    mid-trace (plus an optional ambient loss burst) while failure-aware
    ``route_lossy`` lookups pay timeout penalties for dead fingers and
    fall back through successor lists.  Protocol stack: the same kind of
    plan drives the discrete-event simulation (SimNode crashes, loss
    bursts) against retrying lookups.
    """
    from repro.experiments.resilience import (
        run_protocol_resilience,
        run_static_resilience_cell,
    )

    config, n_requests = _cell("resilience", full, seed)
    bundle = build_bundle(config)
    rows = []
    for fail_fraction in (0.0, 0.1, 0.2, 0.3):
        for loss_rate in (0.0, 0.05):
            cell = run_static_resilience_cell(
                bundle,
                fail_fraction=fail_fraction,
                loss_rate=loss_rate,
                n_requests=n_requests,
                seed=seed,
            )
            row = {"fail_fraction": fail_fraction, "loss_rate": loss_rate}
            for net, metrics in cell.items():
                row[f"{net}_success_%"] = round(100 * metrics["success_rate"], 2)
                row[f"{net}_hops"] = round(metrics["mean_hops"], 2)
                row[f"{net}_timeouts"] = round(metrics["timeouts_per_lookup"], 2)
                row[f"{net}_latency_ms"] = round(metrics["mean_total_latency_ms"], 0)
            rows.append(row)

    proto = run_protocol_resilience(seed=seed)
    proto_completion = proto["completed"] / (proto["completed"] + proto["failed"])
    proto_accuracy = proto["correct"] / max(proto["completed"], 1.0)

    clean = rows[0]
    crashed = next(r for r in rows if r["fail_fraction"] == 0.2 and r["loss_rate"] == 0.0)
    checks = [
        _claim(
            clean["chord_success_%"] == 100.0
            and clean["hieras_success_%"] == 100.0
            and clean["chord_timeouts"] == 0.0
            and clean["hieras_timeouts"] == 0.0,
            "fault-free cell: both stacks succeed on every lookup with zero "
            "timeouts (lossy mode is penalty-free without faults)",
        ),
        _claim(
            crashed["chord_success_%"] >= 99.0 and crashed["hieras_success_%"] >= 99.0,
            "20% of peers crashed mid-run: both stacks keep >=99% lookup "
            "success by routing around dead fingers via §3.3 successor lists",
        ),
        _claim(
            crashed["hieras_latency_ms"] < crashed["chord_latency_ms"],
            "HIERAS's latency advantage survives 20% failures even with "
            "timeout penalties included",
        ),
        _claim(
            proto_completion >= 0.90 and proto_accuracy >= 0.95,
            "protocol stack under the same plan shape (20% crash + 5% loss "
            "burst): >=90% of retrying lookups complete, >=95% of completions "
            "name the correct live owner",
        ),
    ]
    lines = [
        f"{config.n_peers} peers, {n_requests} lookups/cell; crash at mid-trace, "
        "ambient loss for the whole run; latency includes timeout penalties",
        format_table(rows),
        "",
        "protocol stack (24 nodes, 20% crash + 5% loss burst, retries=2): "
        f"completed {proto_completion:.0%}, correct {proto_accuracy:.0%}, "
        f"retries used {int(proto['retries_used'])}",
        "",
        *checks,
    ]
    return "\n".join(lines), {
        "rows": rows,
        "protocol": proto,
        "n_peers": config.n_peers,
        "n_requests": n_requests,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

EXPERIMENTS: dict[str, Experiment] = {
    e.id: e
    for e in [
        _entry(
            "table1",
            "Table 1 — distributed binning of sample nodes",
            "orders 1012/1002/2200/2200/1020/0211; C and D share ring 2200",
            _run_table1,
        ),
        _entry(
            "table2",
            "Table 2 — two-layer finger tables",
            "layer-2 successors stay inside the node's own ring",
            _run_table2,
        ),
        _entry(
            "fig2",
            "Figure 2 — hops vs network size",
            "HIERAS within a few % of Chord; ~32% hop growth 1000→10000",
            _run_fig2,
        ),
        _entry(
            "fig3",
            "Figure 3 — latency vs network size",
            "HIERAS ≈ 52%/53%/62% of Chord on TS/Inet/BRITE",
            _run_fig3,
        ),
        _entry(
            "fig4",
            "Figure 4 — hop-count PDF",
            "distributions nearly coincide; ~71% of hops in lower rings",
            _run_fig4,
        ),
        _entry(
            "fig5",
            "Figure 5 — latency CDF",
            "mean 276.53 vs 511.47 ms (54.07%); low-layer links ~35% the delay",
            _run_fig5,
        ),
        _entry(
            "fig6",
            "Figure 6 — hops vs landmark count",
            "hop count varies little; lower-layer hops shrink with landmarks",
            _run_fig6,
        ),
        _entry(
            "fig7",
            "Figure 7 — latency vs landmark count",
            "2 landmarks nearly useless; best ~43% of Chord around 8",
            _run_fig7,
        ),
        _entry(
            "fig8",
            "Figure 8 — hops vs hierarchy depth",
            "depth adds at most ~1.65% hops",
            _run_fig8,
        ),
        _entry(
            "fig9",
            "Figure 9 — latency vs hierarchy depth",
            "2→3 layers gains 9.6–16.2%; 3→4 gains ≤5.4%",
            _run_fig9,
        ),
        _entry(
            "ablation_binning",
            "Ablation — binning vs random rings",
            "topological grouping, not hierarchy alone, delivers the win",
            _run_ablation_binning,
        ),
        _entry(
            "ablation_succlist",
            "Ablation — successor-list policy",
            "acceleration trades hops for simplicity across policies",
            _run_ablation_succlist,
        ),
        _entry(
            "ablation_can",
            "Ablation — HIERAS over CAN",
            "hierarchy transplants to CAN (§3.2)",
            _run_ablation_can,
        ),
        _entry(
            "ablation_pastry",
            "Ablation — Pastry comparison",
            "future-work comparison vs a PNS low-latency DHT (§6)",
            _run_ablation_pastry,
        ),
        _entry(
            "ablation_noise",
            "Ablation — noisy ping binning",
            "binning tolerates measurement noise (§2.2)",
            _run_ablation_noise,
        ),
        _entry(
            "ablation_landmark_failure",
            "Ablation — landmark failures",
            "drop failed landmarks from orders; performance degrades (§2.3)",
            _run_ablation_landmark_failure,
        ),
        _entry(
            "cost_analysis",
            "Cost analysis — state & maintenance overheads",
            "hundreds-to-thousands of bytes per node; cheap low-layer upkeep (§3.4)",
            _run_cost_analysis,
        ),
        _entry(
            "churn",
            "Churn — the §3.3 protocol under membership churn",
            "join/leave/fail with stabilization; lookups stay correct",
            _run_churn,
        ),
        _entry(
            "resilience",
            "Resilience — failure-aware lookups under crashes and loss",
            "successor lists keep lookups succeeding through failures (§3.3)",
            _run_resilience,
        ),
        _bench(
            "perf_baseline",
            "Perf baseline — phase timings and lookup metrics",
            "majority of HIERAS hops in lower rings; latency advantage in "
            "streaming histograms (§4.3)",
            "baseline",
            "BENCH_baseline.json",
        ),
        _bench(
            "cache_effect",
            "Cache effect — Zipf workloads under path caching",
            "path caching cuts mean latency >=20% on skewed workloads and "
            "spreads hot-key owner load (CFS-style, DESIGN.md §9)",
            "cache_exp",
            "BENCH_cache.json",
        ),
        _bench(
            "batch_route",
            "Batch routing engine — vectorized vs scalar equivalence",
            "frontier-stepped numpy routing is bit-identical to the scalar "
            "loop and an order of magnitude faster",
            "batchbench",
            "BENCH_batchroute.json",
        ),
        _bench(
            "scale",
            "Scale — incremental membership and streamed million-peer lookups",
            "membership waves splice only affected rings (bit-identical to a "
            "full rebuild), hot routing state is struct-of-arrays, and "
            "latency blocks stream on demand so lookups run at N=10⁶ in "
            "bounded memory",
            "scale_exp",
            "BENCH_scale.json",
        ),
        _bench(
            "durability",
            "Durability under churn — fault-aware replication",
            "successor-list replication keeps data alive through churn "
            "(§3.2's 'for free' inheritance, made quantitative: loss "
            "probability vs replication factor, chain vs quorum, hinted "
            "handoff, ring-scoped placement)",
            "durability",
            "BENCH_durability.json",
        ),
        _bench(
            "saturation",
            "Saturation — serving-layer capacity under open-loop load",
            "achieved throughput tracks offered load to the cost-model knee; "
            "batch coalescing moves the knee, admission control bounds the "
            "flash-crowd tail, HIERAS serves at lower p99 (DESIGN.md §12)",
            "serve_exp",
            "BENCH_serve.json",
        ),
        _bench(
            "scenarios",
            "Scenarios — adversarial & realistic failure campaigns",
            "named churn campaigns (whole-ring regional failure, graceful vs "
            "abrupt departure, flash joins, Weibull churn, landmark outages) "
            "replay identically on both stacks with availability, stretch, "
            "recovery-time and durability measurements",
            "scenarios_exp",
            "BENCH_scenarios.json",
        ),
    ]
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up a registered experiment (ValueError with the id list)."""
    if experiment_id not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[experiment_id]
