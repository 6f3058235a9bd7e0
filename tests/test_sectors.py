"""Sector partitions and per-sector one-factor PCA models."""

import io
import math
import re

import numpy as np
import pytest

from hpca.errors import InputError
from hpca.model import fit_hpca
from hpca.panel import ReturnsPanel, StandardizedPanel, standardize
from hpca.sectors import SectorPartition, fit_all_sectors, fit_sector, load_sector_map
from hpca.synth import default_market_spec, generate


def standardize_helper(rng, t: int, n: int) -> StandardizedPanel:
    """Random standardized panel of shape (t, n)."""
    return standardize(
        ReturnsPanel(
            dates=tuple(f"d{i}" for i in range(t)),
            assets=tuple(f"A{i}" for i in range(n)),
            values=rng.standard_normal((t, n)),
        )
    )


def standardized(values) -> StandardizedPanel:
    values = np.asarray(values, dtype=float)
    t, n = values.shape
    return StandardizedPanel(
        dates=tuple(f"d{i}" for i in range(t)),
        assets=tuple(f"A{i}" for i in range(n)),
        values=values,
    )


def two_column_panel(rho: float) -> StandardizedPanel:
    # Exact sample moments: u, v are orthonormal mean-zero vectors, so the
    # columns have sample variance 1 and sample correlation rho.
    u = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
    v = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
    scale = math.sqrt(3.0)
    x1 = u * scale
    x2 = (rho * u + math.sqrt(1.0 - rho * rho) * v) * scale
    return standardized(np.column_stack([x1, x2]))


def partition_of(sizes) -> SectorPartition:
    assignment = np.concatenate(
        [np.full(size, k, dtype=int) for k, size in enumerate(sizes)]
    )
    return SectorPartition(
        labels=tuple(f"sector{k}" for k in range(len(sizes))), assignment=assignment
    )


class TestFitSector:
    def test_singleton_sector(self):
        rng = np.random.default_rng(0)
        panel = standardize_helper(rng, 20, 3)
        part = partition_of([1, 2])
        model = fit_sector(panel, part, 0)
        assert model.size == 1
        assert model.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert model.eigenvectors[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert model.betas[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(model.factor, panel.values[:, 0], atol=1e-12)

    def test_perfectly_correlated_pair(self):
        x = standardize_helper(np.random.default_rng(1), 12, 1).values[:, 0]
        panel = standardized(np.column_stack([x, x]))
        model = fit_sector(panel, partition_of([2]), 0)
        np.testing.assert_allclose(model.eigenvalues, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(model.betas, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(model.factor, x, atol=1e-12)

    def test_two_asset_closed_form(self):
        model = fit_sector(two_column_panel(0.6), partition_of([2]), 0)
        assert model.eigenvalues[0] == pytest.approx(1.6, abs=1e-12)
        expected_beta = math.sqrt(1.6) / math.sqrt(2.0)
        np.testing.assert_allclose(model.betas, [expected_beta] * 2, atol=1e-12)

    def test_factor_is_unit_variance_zero_mean(self):
        rng = np.random.default_rng(2)
        panel = standardize_helper(rng, 60, 7)
        model = fit_sector(panel, partition_of([4, 3]), 0)
        assert abs(model.factor.mean()) <= 1e-10
        assert abs(model.factor.var(ddof=1) - 1.0) <= 1e-8

    def test_betas_bounded_by_one(self):
        rng = np.random.default_rng(3)
        panel = standardize_helper(rng, 25, 6)
        for k, model in enumerate(fit_all_sectors(panel, partition_of([2, 4]))):
            assert np.abs(model.betas).max() <= 1.0 + 1e-10


class TestFitSectorInputErrors:
    def test_rejects_unstandardized_panel(self):
        raw = ReturnsPanel(
            dates=("d0", "d1", "d2"),
            assets=("A", "B"),
            values=[[1.0, 2.0], [3.0, 5.0], [4.0, 4.0]],
        )
        with pytest.raises(InputError, match="fit_sector expects a standardized panel"):
            fit_sector(raw, partition_of([2]), 0)

    @pytest.mark.parametrize(
        "fit",
        [lambda panel, part: fit_sector(panel, part, 0), fit_hpca],
        ids=["fit_sector", "fit_hpca"],
    )
    def test_rejects_partition_of_another_size(self, fit):
        panel = standardize_helper(np.random.default_rng(11), 20, 5)
        with pytest.raises(InputError, match="partition covers 4 assets, panel has 5"):
            fit(panel, partition_of([2, 2]))

    @pytest.mark.parametrize("k", [True, "0", 1.5, None])
    def test_rejects_sector_index_that_is_not_whole(self, k):
        panel = standardize_helper(np.random.default_rng(12), 20, 4)
        with pytest.raises(InputError, match=re.escape(f"sector index must be a whole number, got {k!r}")):
            fit_sector(panel, partition_of([2, 2]), k)

    @pytest.mark.parametrize("k", [-1, 2])
    def test_rejects_sector_index_out_of_range(self, k):
        panel = standardize_helper(np.random.default_rng(12), 20, 4)
        with pytest.raises(InputError, match=f"sector index {k} out of range"):
            fit_sector(panel, partition_of([2, 2]), k)


class TestSectorInvariants:
    def test_residual_uncorrelated_with_factor(self):
        rng = np.random.default_rng(4)
        panel = standardize_helper(rng, 80, 5)
        model = fit_sector(panel, partition_of([5]), 0)
        for j in range(5):
            resid = panel.values[:, model.members[j]] - model.betas[j] * model.factor
            corr = np.corrcoef(resid, model.factor)[0, 1]
            assert abs(corr) <= 1e-10

    def test_eigenvalues_sum_to_sector_size(self):
        rng = np.random.default_rng(5)
        panel = standardize_helper(rng, 50, 9)
        for model in fit_all_sectors(panel, partition_of([3, 5, 1])):
            assert abs(model.eigenvalues.sum() - model.size) <= 1e-8

    def test_beta_equals_correlation_with_factor(self):
        rng = np.random.default_rng(6)
        panel = standardize_helper(rng, 70, 6)
        model = fit_sector(panel, partition_of([6]), 0)
        for j in range(6):
            corr = np.corrcoef(panel.values[:, j], model.factor)[0, 1]
            assert abs(corr - model.betas[j]) <= 1e-10


class TestFactorPanel:
    """The T x b panel of sector factors that ``fit_hpca`` stacks."""

    def test_single_sector(self):
        rng = np.random.default_rng(8)
        panel = standardize_helper(rng, 30, 3)
        models = fit_all_sectors(panel, partition_of([3]))
        factors = np.column_stack([m.factor for m in models])
        assert factors.shape == (30, 1)
        assert abs(factors[:, 0].var(ddof=1) - 1.0) <= 1e-8

    def test_two_singleton_sectors_return_columns(self):
        rng = np.random.default_rng(9)
        panel = standardize_helper(rng, 40, 2)
        models = fit_all_sectors(panel, partition_of([1, 1]))
        factors = np.column_stack([m.factor for m in models])
        np.testing.assert_allclose(factors, panel.values, atol=1e-12)

    def test_default_market_shape(self):
        spec = default_market_spec(n_periods=1508)
        panel, truth = generate(spec, seed=0)
        models = fit_all_sectors(standardize(panel), truth.partition)
        factors = np.column_stack([m.factor for m in models])
        assert factors.shape == (1508, 11)


class TestPartition:
    def test_from_mapping_orders_by_first_appearance(self):
        assets = ("X", "Y", "Z")
        part = SectorPartition.from_mapping(assets, {"X": "b", "Y": "a", "Z": "b"})
        assert part.labels == ("b", "a")
        np.testing.assert_array_equal(part.assignment, [0, 1, 0])
        np.testing.assert_array_equal(part.sizes, [2, 1])

    def test_missing_assets_fatal(self):
        with pytest.raises(InputError, match="missing from sector map"):
            SectorPartition.from_mapping(("X", "Y"), {"X": "a"})

    def test_unknown_assets_warn(self, caplog):
        with caplog.at_level("WARNING"):
            SectorPartition.from_mapping(("X",), {"X": "a", "GHOST": "b"})
        assert any("GHOST" in message for message in caplog.messages)

    def test_empty_sector_rejected(self):
        with pytest.raises(InputError):
            SectorPartition(labels=("a", "b"), assignment=np.zeros(3, dtype=int))

    @pytest.mark.parametrize(
        "labels, assignment, message",
        [
            (("a",), np.zeros((2, 2)), "sector assignment must be 1-d"),
            (("a", "a"), [0, 1], "sector labels must be unique and non-empty"),
            ((), [], "sector labels must be unique and non-empty"),
            (("a", "b"), [0, 2], "sector assignment index out of range"),
            (("a", "b"), [-1, 1], "sector assignment index out of range"),
        ],
        ids=["two-dimensional", "repeated-label", "no-labels", "index-above", "index-below"],
    )
    def test_rejects_malformed_partition(self, labels, assignment, message):
        with pytest.raises(InputError, match=re.escape(message)):
            SectorPartition(labels=labels, assignment=assignment)


class TestSectorMap:
    def test_load(self):
        text = "asset,sector\nX,tech\nY,energy\n"
        mapping = load_sector_map(io.StringIO(text))
        assert mapping == {"X": "tech", "Y": "energy"}

    def test_conflicting_rows_rejected(self):
        text = "asset,sector\nX,tech\nX,energy\n"
        with pytest.raises(InputError, match="conflicting"):
            load_sector_map(io.StringIO(text))

    def test_header_required(self):
        with pytest.raises(InputError):
            load_sector_map(io.StringIO(""))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("asset\nX\n", "sector map needs a header row with asset,sector columns"),
            ("asset,sector\nX,tech\nY\n", "sector map row 3 has no sector column"),
            ("asset,sector\nX, \n", "sector map row 2 has a blank field"),
            ("asset,sector\n ,tech\n", "sector map row 2 has a blank field"),
            ("asset,sector\n\n", "sector map contains no entries"),
        ],
        ids=["one-column-header", "no-sector-column", "blank-sector", "blank-asset", "no-entries"],
    )
    def test_rejects_malformed_map(self, text, message):
        with pytest.raises(InputError, match=re.escape(message)):
            load_sector_map(io.StringIO(text))
