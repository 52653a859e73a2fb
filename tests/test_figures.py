"""The experiments' grids and the figures rendered from them.

``figures._GRIDS`` is the only statement of which deployments each
experiment reads; ``TestGrids`` pins every grid's cells and request
count to literal lists.  The rest renders every grid- and variant-based
experiment on tiny grids and checks the shape of its report and data,
not its claims.
"""

import pytest

from repro.experiments import figures
from repro.experiments.config import SweepSpec

TS_SIZES = tuple(range(1000, 10_001, 1000))

#: ``(model, n_peers, n_landmarks, depth)`` per cell.
CELLS = {
    "size": [("ts", n, 4, 2) for n in TS_SIZES]
    + [("inet", n, 4, 2) for n in (3000, 4000, 5000, 6000, 7000, 8000, 9000, 10_000)]
    + [("brite", n, 4, 2) for n in TS_SIZES],
    "dist": [("ts", 10_000, 4, 2)],
    "landmarks": [("ts", 10_000, lm, 2) for lm in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)],
    "depth": [("ts", n, 6, d) for n in (5000, 6000, 7000, 8000, 9000, 10_000) for d in (2, 3, 4)],
    "ablation": [("ts", 4000, 4, 2)],
    "landmark_failure": [("ts", 4000, 6, 2)],
    "can": [("ts", 2048, 4, 2)],
    "pastry": [("ts", 4000, 4, 2)],
    "cost": [("ts", 4000, 6, d) for d in (2, 3, 4)],
    "resilience": [("ts", 3000, 4, 2)],
}

REQUESTS = {
    "size": 100_000,
    "dist": 100_000,
    "landmarks": 100_000,
    "depth": 100_000,
    "ablation": 50_000,
    "landmark_failure": 50_000,
    "can": 4000,
    "pastry": 8000,
    "resilience": 12_000,
}


class TestGrids:
    def test_every_grid_is_pinned(self):
        assert set(figures._GRIDS) == set(CELLS)

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_cells(self, name):
        spec = figures._grid(name, 7)
        cells = [(c.model, c.n_peers, c.n_landmarks, c.depth) for c in spec.cells()]
        assert cells == CELLS[name]
        assert {c.seed for c in spec.cells()} == {7}
        if name in REQUESTS:
            assert spec.n_requests == REQUESTS[name]


def _tiny(**axes) -> SweepSpec:
    return SweepSpec(**{"n_requests": 150, **axes})


TINY_GRIDS = {
    "size": _tiny(models=("ts", "inet", "brite"), sizes=(120, 160)),
    "dist": _tiny(sizes=(160,), n_requests=300),
    "landmarks": _tiny(sizes=(160,), landmarks=(2, 4)),
    "depth": _tiny(sizes=(120, 160), landmarks=(6,), depths=(2, 3, 4)),
    "ablation": _tiny(sizes=(140,)),
    "landmark_failure": _tiny(sizes=(140,), landmarks=(6,)),
    "can": _tiny(sizes=(64,)),
    "pastry": _tiny(sizes=(100,)),
    "cost": _tiny(sizes=(120,), landmarks=(6,), depths=(2, 3, 4)),
}

#: Per experiment: its data keys and strings its report must contain.
SHAPES = {
    "fig2": ({"mean_delta_percent", "growth_percent"}, ["model=ts", "model=brite", "hieras_hops"]),
    "fig3": ({"mean_ratio_percent", "paper_ratio_percent"}, ["model=brite", "hieras/chord_%"]),
    "fig4": (
        {"chord_mean_hops", "hieras_mean_hops", "low_layer_hop_share", "top_layer_hops"},
        ["network: 160 peers, TS model, 300 requests", "hieras_low_layer_pdf"],
    ),
    "fig5": (
        {"latency_ratio_percent", "low_link_delay_ms", "top_link_delay_ms", "low_latency_share"},
        ["chord_cdf", "hieras_cdf", "latency CDFs:"],
    ),
    "fig6": ({"counts", "hieras_hops", "low_hops"}, ["network: 160 peers", "hieras_low_layer_hops"]),
    "fig7": ({"counts", "ratios_percent"}, ["landmarks", "hieras/chord_%"]),
    "fig8": ({"sizes", "series", "increments_percent"}, ["TS model, 6 landmarks, 150 requests"]),
    "fig9": ({"sizes", "series", "gain_23", "gain_34"}, ["depth4_ms", "latency reduction 2→3"]),
    "ablation_binning": ({"rows"}, ["hieras_random_rings", "vs_chord_%"]),
    "ablation_succlist": ({"rows"}, ["transitions", "top_layer_hops"]),
    "ablation_can": ({"rows", "ratio_percent"}, ["64 peers, 2-d CAN, 150 requests", "vs_flat_%"]),
    "ablation_pastry": ({"rows"}, ["100 peers, TS model, 150 requests", "pastry_pns"]),
    "ablation_noise": ({"rows"}, ["ping_noise_sigma"]),
    "ablation_landmark_failure": (
        {"rows", "logical_unchanged_fraction"},
        ["140 peers, TS model, 6 landmarks initially, 150 requests", "logical-landmark"],
    ),
    "cost_analysis": ({"state_rows", "ping_rows"}, ["120 peers, TS model, 6 landmarks"]),
}


@pytest.fixture(scope="module")
def rendered():
    """Every experiment in ``SHAPES``, run once on ``TINY_GRIDS``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(figures, "_GRIDS", TINY_GRIDS)
        yield {exp_id: figures.EXPERIMENTS[exp_id].run(3) for exp_id in SHAPES}


@pytest.mark.parametrize("exp_id", sorted(SHAPES))
def test_renders_on_a_tiny_grid(exp_id, rendered):
    result, (keys, fragments) = rendered[exp_id], SHAPES[exp_id]
    assert (result.experiment_id, result.title) == (exp_id, figures.EXPERIMENTS[exp_id].title)
    assert set(result.data) == keys
    for fragment in fragments:
        assert fragment in result.text
    assert any(line.startswith(("  [ok] ", "  [DIVERGES] ")) for line in result.text.splitlines())


def test_sweep_figures_follow_their_grid(rendered):
    assert rendered["fig6"].data["counts"] == [2, 4]
    assert rendered["fig8"].data["sizes"] == [120, 160]
    assert list(rendered["fig8"].data["series"]) == ["depth2_hops", "depth3_hops", "depth4_hops"]
    # Inet below its router floor drops out of the size sweep.
    assert set(rendered["fig3"].data["mean_ratio_percent"]) == {"ts", "brite"}


def test_variant_rows(rendered):
    def column(exp_id, key):
        return [row[key] for row in rendered[exp_id].data["rows"]]

    assert column("ablation_binning", "variant") == [
        "chord", "hieras_binned", "hieras_random_rings",
    ]
    assert column("ablation_binning", "vs_chord_%")[0] == 100.0
    assert column("ablation_succlist", "policy") == ["off", "transitions", "always"]
    assert column("ablation_can", "variant") == ["can_flat", "hieras_over_can"]
    assert column("ablation_pastry", "variant") == ["chord", "chord_pfs", "hieras", "pastry_pns"]
    assert column("ablation_noise", "ping_noise_sigma") == [0.0, 0.1, 0.2, 0.4]
    assert column("ablation_landmark_failure", "landmarks_left") == [6, 5, 4, 3]
    assert [row["depth"] for row in rendered["cost_analysis"].data["state_rows"]] == [2, 3, 4]
