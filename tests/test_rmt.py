"""Noise-spectrum reference and residual defactoring."""

import dataclasses

import numpy as np
import pytest

import helpers
from hpca.eigen import sym_eig_sorted
from hpca.errors import InputError, NumericalError
from hpca.model import eigenportfolio_series
from hpca.panel import ReturnsPanel, correlation, standardize
from hpca.rmt import (
    MpReference,
    ResidualPanel,
    defactor,
    mp_density,
    mp_threshold,
    residual_spectrum,
)
from hpca.sectors import SectorPartition, fit_sector
from hpca.synth import default_market_spec, generate


def noise_panel(rng, t, n):
    return standardize(
        ReturnsPanel(
            dates=tuple(f"d{i}" for i in range(t)),
            assets=tuple(f"A{i}" for i in range(n)),
            values=rng.standard_normal((t, n)),
        )
    )


class TestThreshold:
    def test_square_panel_is_four(self):
        assert mp_threshold(250, 250) == 4.0

    def test_quarter_ratio(self):
        assert mp_threshold(100, 400) == pytest.approx(2.25, abs=1e-12)

    def test_wide_daily_panel(self):
        assert abs(mp_threshold(434, 1508) - 2.36) <= 0.01

    def test_rejects_non_positive(self):
        with pytest.raises(InputError):
            mp_threshold(0, 10)


class TestDensity:
    def test_vanishes_at_endpoints(self):
        ref = mp_density(100, 1000)
        assert ref.density[0] == 0.0
        assert ref.density[-1] == 0.0

    def test_support_for_quarter_ratio(self):
        ref = mp_density(25, 100)
        assert ref.lambda_minus == pytest.approx(0.25, abs=1e-15)
        assert ref.lambda_plus == pytest.approx(2.25, abs=1e-15)

    def test_integrates_to_one(self):
        for n, t in ((100, 1000), (50, 200), (30, 60)):
            ref = mp_density(n, t, grid_size=4001)
            # The trapezoid rule, spelled out: np.trapezoid needs numpy 2.
            integral = (np.diff(ref.grid) * (ref.density[1:] + ref.density[:-1]) / 2).sum()
            assert abs(integral - 1.0) <= 1e-3

    def test_rejects_rank_deficient_ratio(self):
        with pytest.raises(InputError):
            mp_density(100, 50)

    def test_rejects_tiny_grid(self):
        with pytest.raises(InputError):
            mp_density(10, 100, grid_size=1)

    def test_density_matches_threshold(self):
        ref = mp_density(434, 1508)
        assert ref.lambda_plus == pytest.approx(mp_threshold(434, 1508), abs=1e-15)


class TestDefactor:
    def test_empty_factor_set_is_identity(self):
        panel = noise_panel(np.random.default_rng(0), 40, 5)
        residuals = defactor(panel, np.empty((40, 0)))
        assert residuals.cutoff == 0
        np.testing.assert_array_equal(residuals.values, panel.values)

    def test_column_against_itself_flagged_degenerate(self):
        panel = noise_panel(np.random.default_rng(1), 30, 2)
        residuals = defactor(panel, panel.values[:, [0]])
        assert residuals.degenerate == ("A0",)
        np.testing.assert_array_equal(residuals.values[:, 0], np.zeros(30))

    def test_sector_defactoring_shrinks_leading_eigenvalue(self):
        # One dominant factor: removing it must deflate the top eigenvalue.
        spec = helpers.MarketSpec(
            sectors=(helpers.SectorSpec(name="s", size=10, equicorrelation=0.4),),
            factor_correlation=np.array([[1.0]]),
            n_periods=600,
            seed=2,
        )
        panel, truth = generate(spec)
        panel = standardize(panel)
        partition = SectorPartition(
            labels=("all",), assignment=np.zeros(panel.n_assets, dtype=int)
        )
        model = fit_sector(panel, partition, 0)
        residuals = defactor(panel, model.factor[:, None])
        corr = residuals.values.T @ residuals.values / (panel.n_periods - 1)
        leading = np.linalg.eigvalsh(corr).max()
        assert leading < model.eigenvalues[0]

    def test_residuals_uncorrelated_with_factors(self):
        rng = np.random.default_rng(3)
        panel = noise_panel(rng, 100, 8)
        factors = rng.standard_normal((100, 3)) + 0.5
        residuals = defactor(panel, factors)
        centered = factors - factors.mean(axis=0)
        for j in range(panel.n_assets):
            r = residuals.values[:, j]
            for k in range(3):
                f = centered[:, k]
                corr = (r @ f) / (np.linalg.norm(r) * np.linalg.norm(f))
                assert abs(corr) <= 1e-10

    def test_residual_columns_standardized(self):
        rng = np.random.default_rng(4)
        panel = noise_panel(rng, 60, 6)
        residuals = defactor(panel, rng.standard_normal((60, 2)))
        assert np.abs(residuals.values.mean(axis=0)).max() <= 1e-12
        assert np.abs(residuals.values.std(axis=0, ddof=1) - 1.0).max() <= 1e-10

    def test_projection_idempotent(self):
        rng = np.random.default_rng(5)
        panel = noise_panel(rng, 80, 5)
        factors = rng.standard_normal((80, 2))
        once = defactor(panel, factors)
        once_panel = standardize(
            ReturnsPanel(dates=panel.dates, assets=panel.assets, values=once.values)
        )
        twice = defactor(once_panel, factors)
        assert np.abs(twice.values - once.values).max() <= 1e-10

    def test_rank_deficient_factors_named(self):
        rng = np.random.default_rng(6)
        panel = noise_panel(rng, 50, 3)
        f = rng.standard_normal((50, 1))
        with pytest.raises(InputError, match="factor column 1"):
            defactor(panel, np.column_stack([f, 2.0 * f]))

    @pytest.mark.parametrize(
        "build, column",
        [
            (lambda f: np.column_stack([np.full(50, 3.0), f[:, 1:]]), 0),
            (lambda f: np.column_stack([f[:, :3], f[:, 0] - 2.0 * f[:, 2]]), 3),
        ],
        ids=["constant-factor", "past-column-1"],
    )
    def test_rank_deficiency_names_first_dependent_column(self, build, column):
        rng = np.random.default_rng(6)
        panel = noise_panel(rng, 50, 3)
        factors = build(rng.standard_normal((50, 4)))
        with pytest.raises(InputError, match=f"factor column {column} is"):
            defactor(panel, factors)

    @pytest.mark.parametrize(
        "m, duplicate, column",
        [(5, None, 4), (6, None, 4), (6, 2, 2)],
        ids=["m5", "m6", "m6-earlier-duplicate"],
    )
    def test_more_design_columns_than_periods(self, m, duplicate, column):
        # With T = 5, the intercept plus m >= 5 factors cannot be independent:
        # factor column T - 1 = 4 is the first whose design column has no
        # pivot, unless an earlier factor already repeats one before it.
        rng = np.random.default_rng(10)
        panel = noise_panel(rng, 5, 3)
        factors = rng.standard_normal((5, m))
        if duplicate is not None:
            factors[:, duplicate] = factors[:, 0]
        with pytest.raises(InputError, match=f"factor column {column} is"):
            defactor(panel, factors)

    def test_square_design_is_accepted(self):
        # T = 5 with m = 4: the full-rank square design explains every column.
        rng = np.random.default_rng(10)
        panel = noise_panel(rng, 5, 3)
        residuals = defactor(panel, rng.standard_normal((5, 4)))
        assert residuals.degenerate == panel.assets

    @pytest.mark.parametrize(
        "t, n, dead",
        [
            (40, 6, ()), (40, 6, (0, 4)), (300, 9, (1, 2, 8)), (5, 3, (0, 1, 2)),
            (200, 150, (0, 63, 64, 149)),
        ],
    )
    def test_bits_match_the_gather_formula(self, t, n, dead):
        # Factors that span some panel columns leave those columns degenerate.
        rng = np.random.default_rng(t + n)
        panel = noise_panel(rng, t, n)
        factors = np.column_stack([panel.values[:, list(dead)], rng.standard_normal((t, 1))])
        q, _ = np.linalg.qr(np.column_stack([np.ones(t), factors]))
        expected = panel.values - q @ (q.T @ panel.values)
        expected -= expected.mean(axis=0)
        stds = expected.std(axis=0, ddof=1)
        degenerate = np.flatnonzero(stds <= 1e-12)
        kept = np.setdiff1d(np.arange(n), degenerate)
        expected[:, kept] /= stds[kept]
        expected[:, degenerate] = 0.0
        residuals = defactor(panel, factors)
        assert residuals.values.tobytes() == expected.tobytes()
        assert residuals.degenerate == tuple(panel.assets[i] for i in degenerate)
        assert degenerate.tolist() == sorted(dead)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_factors_rejected(self, bad):
        panel = noise_panel(np.random.default_rng(13), 40, 3)
        factors = np.random.default_rng(14).standard_normal((40, 3))
        factors[11, 1] = bad
        with pytest.raises(InputError, match="factor matrix contains non-finite values"):
            defactor(panel, factors)

    def test_residual_panel_is_a_returns_panel(self):
        panel = noise_panel(np.random.default_rng(15), 30, 4)
        panel = dataclasses.replace(panel, dropped_rows=3)
        for factors, model_type in ((panel.values[:, :1], "pca"), (np.empty((30, 0)), "hpca")):
            residuals = defactor(panel, factors, model_type=model_type)
            assert isinstance(residuals, ReturnsPanel)
            assert (residuals.n_periods, residuals.n_assets) == (30, 4)
            assert (residuals.model_type, residuals.cutoff) == (model_type, factors.shape[1])
            assert residuals.dates == panel.dates and residuals.assets == panel.assets
            assert residuals.dropped_rows == 3

    def test_length_mismatch(self):
        panel = noise_panel(np.random.default_rng(7), 20, 3)
        with pytest.raises(InputError):
            defactor(panel, np.ones((19, 1)))

    def test_rejects_unstandardized_panel(self):
        raw = ReturnsPanel(dates=("d1", "d2", "d3"), assets=("A",), values=[[1.0], [2.0], [4.0]])
        with pytest.raises(InputError, match="defactor expects a standardized panel"):
            defactor(raw, np.ones((3, 1)))


class TestResidualSpectrum:
    def test_noise_panel_calibration(self):
        rng = np.random.default_rng(8)
        panel = noise_panel(rng, 1000, 100)
        ref = mp_density(100, 1000)
        report = residual_spectrum(defactor(panel, np.empty((1000, 0))), ref)
        above = (report.eigenvalues > ref.lambda_plus).mean()
        assert above <= 0.02
        assert report.count_above_threshold == int(
            (report.eigenvalues > ref.lambda_plus).sum()
        )

    def test_defactored_single_factor_market(self):
        spec = helpers.MarketSpec(
            sectors=(helpers.SectorSpec(name="s", size=15, equicorrelation=0.5),),
            factor_correlation=np.array([[1.0]]),
            n_periods=900,
            seed=9,
        )
        panel, truth = generate(spec)
        panel = standardize(panel)
        partition = SectorPartition(
            labels=("all",), assignment=np.zeros(panel.n_assets, dtype=int)
        )
        model = fit_sector(panel, partition, 0)
        ref = mp_density(panel.n_assets, panel.n_periods)
        report = residual_spectrum(defactor(panel, model.factor[:, None]), ref)
        assert report.leading_eigenvalue < 0.5 * model.eigenvalues[0]

    @pytest.mark.parametrize("n", [1, 5])
    def test_non_finite_residuals_rejected(self, n):
        values = np.random.default_rng(12).standard_normal((50, n))
        values[7, 0] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            ResidualPanel(
                dates=tuple(f"d{i}" for i in range(50)),
                assets=tuple(f"A{i}" for i in range(n)),
                values=values,
                model_type="custom",
                cutoff=0,
            )

    def test_rejects_zero_width_reference_grid(self):
        panel = noise_panel(np.random.default_rng(13), 40, 4)
        flat = MpReference(lambda_minus=1.0, lambda_plus=1.0, grid=np.ones(2), density=np.zeros(2))
        with pytest.raises(NumericalError, match="degenerate reference grid"):
            residual_spectrum(defactor(panel, np.empty((40, 0))), flat)

    @pytest.mark.parametrize("t, n", [(40, 1), (40, 2), (200, 20)])
    def test_mean_offdiag_is_the_masked_mean(self, t, n):
        panel = noise_panel(np.random.default_rng(t + n), t, n)
        report = residual_spectrum(defactor(panel, np.empty((t, 0))), mp_density(n, t))
        corr = correlation(panel).values
        expected = corr[~np.eye(n, dtype=bool)].mean() if n > 1 else 0.0
        assert report.mean_offdiag_correlation == pytest.approx(expected, abs=1e-15)

    def test_histogram_bins_align_with_reference_grid(self):
        rng = np.random.default_rng(10)
        panel = noise_panel(rng, 300, 40)
        ref = mp_density(40, 300)
        report = residual_spectrum(defactor(panel, np.empty((300, 0))), ref)
        assert np.isin(ref.grid, report.hist_edges).all()
        assert report.hist_counts.sum() == panel.n_assets
        widths = np.diff(report.hist_edges)
        assert np.allclose(widths, ref.bin_width, rtol=1e-9)

    def test_leading_share_definition(self):
        rng = np.random.default_rng(11)
        panel = noise_panel(rng, 200, 20)
        ref = mp_density(20, 200)
        report = residual_spectrum(defactor(panel, np.empty((200, 0))), ref)
        assert report.leading_share == pytest.approx(
            report.leading_eigenvalue / 20.0, abs=1e-15
        )

    def test_low_and_high_cutoffs_both_supported(self):
        # Both documented configurations: a handful of factors removed, or a
        # deep cutoff of thirty. Deeper cutoffs leave less structure behind.
        panel, _ = generate(default_market_spec(n_periods=1508), seed=0)
        panel = standardize(panel)
        spectrum = sym_eig_sorted(correlation(panel).values)
        ref = mp_density(panel.n_assets, panel.n_periods)
        leaders = {}
        for m in (3, 30):
            factors = eigenportfolio_series(
                panel.values, spectrum.eigenvalues, spectrum.eigenvectors, m
            )
            residuals = defactor(panel, factors, model_type="pca")
            assert residuals.cutoff == m
            report = residual_spectrum(residuals, ref)
            leaders[m] = report.leading_eigenvalue
        assert leaders[30] < leaders[3] < spectrum.eigenvalues[0]

    def test_noise_mass_within_extended_support(self):
        rng = np.random.default_rng(12)
        panel = noise_panel(rng, 480, 120)
        ref = mp_density(120, 480)
        report = residual_spectrum(defactor(panel, np.empty((480, 0))), ref)
        ev = report.eigenvalues
        inside = (ev >= ref.lambda_minus - 0.1) & (ev <= ref.lambda_plus + 0.1)
        assert inside.mean() >= 0.95
