"""Comparison reports for plain vs hierarchical spectra."""

import json

import numpy as np
import pytest

import helpers
from hpca.eigen import Spectrum, sym_eig_sorted
from hpca.errors import InputError
from hpca.model import MULTI_SECTOR, LabeledSpectrum, SpectrumLabel, fit_hpca
from hpca.panel import correlation, standardize
from hpca.report import build_comparison, render_text, report_to_dict
from hpca.synth import MarketSpec, SectorSpec, generate


def fitted_pair(spec, seed=None):
    panel, truth = generate(spec, seed=seed)
    std = standardize(panel)
    pca = sym_eig_sorted(correlation(std).values)
    model = fit_hpca(std, truth.partition)
    return std, pca, model


class TestRankOneDelta:
    def test_formula(self):
        n = 434
        assets = tuple(f"A{i}" for i in range(n))

        def spread(top):
            """Leading eigenvalue ``top``; the other n - 1 share the rest of n."""
            return np.r_[top, np.full(n - 1, (n - top) / (n - 1))]

        plain = Spectrum(eigenvalues=spread(138.87), eigenvectors=np.eye(n))
        hier = LabeledSpectrum(
            eigenvalues=spread(137.19),
            eigenvectors=np.eye(n),
            assets=assets,
            labels=(SpectrumLabel(kind=MULTI_SECTOR, rank=1),) * n,
        )
        delta = build_comparison(plain, hier, assets, top_k=0).rank_one_delta
        assert delta == pytest.approx((138.87 - 137.19) / 434, abs=1e-15)
        assert delta == pytest.approx(0.0038709677, abs=1e-9)


class TestBuildComparison:
    def test_single_sector_all_deltas_zero(self):
        rng = np.random.default_rng(0)
        spec = helpers.random_market_spec(rng, max_sectors=1, min_size=5)
        std, pca, model = fitted_pair(spec)
        report = build_comparison(pca, model.spectrum, std.assets, top_k=5)
        assert report.rank_one_delta == 0.0
        for row in report.rows:
            assert row.pca_eigenvalue == row.hpca_eigenvalue
            assert row.rms_distance == 0.0
            assert row.mean_difference == 0.0

    def test_exactly_hierarchical_market_rank_one_rows_match(self):
        # Perfectly correlated blocks make the sampled panel exactly
        # hierarchical, so both spectra coincide at the top rank.
        spec = MarketSpec(
            sectors=(
                SectorSpec(name="one", size=2, equicorrelation=1.0),
                SectorSpec(name="two", size=2, equicorrelation=1.0),
            ),
            factor_correlation=np.array([[1.0, 0.5], [0.5, 1.0]]),
            n_periods=300,
            seed=2,
        )
        std, pca, model = fitted_pair(spec)
        report = build_comparison(pca, model.spectrum, std.assets, top_k=2)
        row = report.rows[0]
        assert row.pca_eigenvalue == pytest.approx(row.hpca_eigenvalue, abs=1e-9)
        assert row.rms_distance <= 1e-7

    def test_eigenvalue_lists_cover_universe(self):
        rng = np.random.default_rng(1)
        spec = helpers.random_market_spec(rng, max_sectors=4, min_size=2)
        std, pca, model = fitted_pair(spec)
        report = build_comparison(pca, model.spectrum, std.assets)
        n = std.n_assets
        assert report.pca_eigenvalues.shape == (n,)
        assert report.hpca_eigenvalues.shape == (n,)
        assert abs(report.pca_eigenvalues.sum() - n) <= 1e-6 * max(1, n)
        assert abs(report.hpca_eigenvalues.sum() - n) <= 1e-6 * max(1, n)
        assert report.pca_cumulative[-1] == pytest.approx(1.0, abs=1e-6)
        assert report.hpca_cumulative[-1] == pytest.approx(1.0, abs=1e-6)

    def test_minima_reported(self):
        rng = np.random.default_rng(3)
        spec = helpers.market_like_spec(rng)
        std, pca, model = fitted_pair(spec)
        report = build_comparison(pca, model.spectrum, std.assets)
        assert report.min_pca_eigenvalue == pytest.approx(
            float(pca.eigenvalues[-1]), abs=1e-15
        )
        sector_min = min(float(m.eigenvalues.min()) for m in model.sector_models)
        assert report.min_hpca_eigenvalue >= sector_min - 1e-8

    def test_asset_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        spec = helpers.random_market_spec(rng, max_sectors=2, min_size=2)
        std, pca, model = fitted_pair(spec)
        other = tuple(f"other{i}" for i in range(std.n_assets))
        with pytest.raises(InputError, match="universe"):
            build_comparison(pca, model.spectrum, other)

    def test_negative_top_k_rejected(self):
        rng = np.random.default_rng(6)
        std, pca, model = fitted_pair(helpers.random_market_spec(rng, min_size=2))
        with pytest.raises(InputError, match="non-negative"):
            build_comparison(pca, model.spectrum, std.assets, top_k=-1)

    def test_text_top_k_rejected(self):
        rng = np.random.default_rng(6)
        std, pca, model = fitted_pair(helpers.random_market_spec(rng, min_size=2))
        with pytest.raises(InputError, match="eigenvector count must be a whole number, got '3'"):
            build_comparison(pca, model.spectrum, std.assets, top_k="3")

    def test_labels_use_sector_names(self):
        rng = np.random.default_rng(5)
        spec = helpers.market_like_spec(rng)
        std, pca, model = fitted_pair(spec)
        report = build_comparison(pca, model.spectrum, std.assets)
        allowed = {"Multi-sector"} | set(model.partition.labels)
        assert set(report.hpca_labels) <= allowed
        assert report.rows[0].label == "Multi-sector"


class TestRendering:
    def test_text_deterministic(self):
        rng = np.random.default_rng(6)
        spec = helpers.random_market_spec(rng, max_sectors=3, min_size=2)
        std, pca, model = fitted_pair(spec)
        report = build_comparison(pca, model.spectrum, std.assets, top_k=10)
        assert render_text(report) == render_text(report)
        first = json.dumps(report_to_dict(report), sort_keys=True)
        second = json.dumps(report_to_dict(report), sort_keys=True)
        assert first == second

    def test_text_layout(self):
        rng = np.random.default_rng(7)
        spec = helpers.random_market_spec(rng, max_sectors=2, min_size=2)
        std, pca, model = fitted_pair(spec)
        report = build_comparison(pca, model.spectrum, std.assets, top_k=3)
        text = render_text(report)
        lines = text.splitlines()
        assert lines[0].startswith("assets:")
        assert any(line.startswith("rank\t") for line in lines)
        assert len(report.rows) == 3

    def test_rows_written_from_their_fields(self):
        # Both writers walk the row's fields: strings as they are, numbers as
        # their repr. The CLI tests pin the key order and the header.
        values = [2.0, 0.5, 0.5]
        report = build_comparison(*helpers.comparison_pair(values, values), top_k=2)
        doc = report_to_dict(report)
        assert doc["rows"][1] == {
            "rank": 2, "pca_eigenvalue": 0.5, "hpca_eigenvalue": 0.5,
            "label": "Multi-sector", "rms_distance": 0.0, "mean_difference": 0.0,
            "mean_abs_entry": 1.0 / 3.0,
        }
        assert doc["hpca_labels"] == ["Multi-sector"] * 3
        assert render_text(report).splitlines() == [
            "assets: 3",
            "rank-1 explanatory delta: 0.0",
            "smallest eigenvalue (pca): 0.5",
            "smallest eigenvalue (hpca): 0.5",
            "",
            "rank\tpca\thpca\tlabel\trms_distance\tmean_difference\tmean_abs_entry",
            f"1\t2.0\t2.0\tMulti-sector\t0.0\t0.0\t{1.0 / 3.0!r}",
            f"2\t0.5\t0.5\tMulti-sector\t0.0\t0.0\t{1.0 / 3.0!r}",
        ]
