"""Tests for the statistics and table-rendering toolkit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    RouteSample,
    collect_routes,
    hop_pdf,
    ratio_percent,
    summarize,
)
from repro.analysis.tables import format_table, render_series
from repro.workloads.requests import generate_requests


class TestCollectRoutes:
    def test_matches_manual_routing(self, small_networks):
        chord, hieras = small_networks
        space = chord.space
        trace = generate_requests(50, chord.n_peers, space, seed=7)
        sample = collect_routes(hieras, trace)
        assert len(sample) == 50
        for i, (s, k) in enumerate(trace):
            r = hieras.route(s, k)
            assert sample.hops[i] == r.hops
            assert sample.latency_ms[i] == pytest.approx(r.latency_ms)
            assert sample.low_layer_hops[i] == r.low_layer_hops

    def test_low_layer_latency_split(self, small_networks):
        _, hieras = small_networks
        space = hieras.space
        trace = generate_requests(100, hieras.n_peers, space, seed=8)
        sample = collect_routes(hieras, trace)
        assert np.all(sample.low_layer_latency_ms <= sample.latency_ms + 1e-9)
        assert sample.low_layer_latency_ms.sum() > 0

    def test_flat_network_has_no_low_layer(self, small_networks):
        chord, _ = small_networks
        trace = generate_requests(50, chord.n_peers, chord.space, seed=9)
        sample = collect_routes(chord, trace)
        assert sample.low_layer_hops.sum() == 0
        assert sample.low_layer_hop_share == 0.0
        np.testing.assert_array_equal(sample.top_layer_hops, sample.hops)


class TestRouteSample:
    def make(self):
        return RouteSample(
            hops=np.asarray([2, 4, 6]),
            latency_ms=np.asarray([10.0, 20.0, 30.0]),
            low_layer_hops=np.asarray([1, 2, 3]),
            top_layer_hops=np.asarray([1, 2, 3]),
            low_layer_latency_ms=np.asarray([5.0, 5.0, 5.0]),
        )

    def test_means(self):
        s = self.make()
        assert s.mean_hops == 4.0
        assert s.mean_latency_ms == 20.0
        assert s.mean_top_layer_hops == 2.0

    def test_shares(self):
        s = self.make()
        assert s.low_layer_hop_share == pytest.approx(0.5)
        assert s.low_layer_latency_share == pytest.approx(15.0 / 60.0)

    def test_link_delays(self):
        s = self.make()
        assert s.mean_link_delay(layer="all") == pytest.approx(60.0 / 12)
        assert s.mean_link_delay(layer="low") == pytest.approx(15.0 / 6)
        assert s.mean_link_delay(layer="top") == pytest.approx(45.0 / 6)
        with pytest.raises(ValueError):
            s.mean_link_delay(layer="middle")

    def test_default_low_latency_zeros(self):
        s = RouteSample(
            hops=np.asarray([1]),
            latency_ms=np.asarray([5.0]),
            low_layer_hops=np.asarray([0]),
            top_layer_hops=np.asarray([1]),
        )
        assert s.low_layer_latency_ms.tolist() == [0.0]


class TestSummaries:
    def test_summarize_keys(self):
        out = summarize(np.asarray([1.0, 2.0, 3.0, 4.0]))
        assert out["mean"] == 2.5
        assert out["median"] == 2.5
        assert out["min"] == 1.0 and out["max"] == 4.0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize(np.asarray([]))

    def test_ratio_percent(self):
        assert ratio_percent(1.0, 2.0) == 50.0
        assert np.isnan(ratio_percent(1.0, 0.0))


class TestDistributions:
    def test_hop_pdf_sums_to_one(self):
        xs, pdf = hop_pdf(np.asarray([0, 1, 1, 2, 5]))
        assert pdf.sum() == pytest.approx(1.0)
        assert xs.tolist() == [0, 1, 2, 3, 4, 5]
        assert pdf[1] == pytest.approx(0.4)

    def test_hop_pdf_max_hops_pads(self):
        xs, pdf = hop_pdf(np.asarray([1, 1]), max_hops=4)
        assert len(xs) == 5
        assert pdf[4] == 0.0

    def test_hop_pdf_max_hops_below_the_longest_lookup_raises(self):
        """A bincount cut at ``max_hops`` would drop the longer lookups'
        mass and leave a PDF summing to 0.5 here."""
        with pytest.raises(ValueError, match="max_hops=2 .* 5 hops"):
            hop_pdf(np.asarray([1, 5]), max_hops=2)
        _, pdf = hop_pdf(np.asarray([1, 5]), max_hops=5)
        assert pdf.sum() == pytest.approx(1.0)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=100))
    @settings(max_examples=40)
    def test_hop_pdf_property(self, hops):
        _, pdf = hop_pdf(np.asarray(hops))
        assert pdf.sum() == pytest.approx(1.0)
        assert (pdf >= 0).all()


class TestTables:
    def test_format_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # aligned

    def test_format_markdown(self):
        text = format_table([{"a": 1}], markdown=True)
        assert text.startswith("| a")
        assert "|---" in text or "|----" in text.splitlines()[1]

    def test_header_order_and_missing_cells(self):
        text = format_table([{"b": 2, "a": 1}, {"a": 3}], headers=["a", "b"])
        first_data_row = text.splitlines()[2]
        assert first_data_row.strip().startswith("1")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_table([])

    def test_render_series(self):
        text = render_series("x", [1, 2], {"y": [10, 20], "z": [1.5, 2.5]})
        assert "x" in text and "y" in text and "z" in text
        assert "10" in text and "2.5" in text

    def test_render_series_length_mismatch(self):
        with pytest.raises(ValueError):
            render_series("x", [1, 2], {"y": [10]})

    def test_float_formatting(self):
        text = format_table([{"v": 3.14159}, {"v": 12345.6}, {"v": float("nan")}])
        assert "3.142" in text
        assert "nan" in text
