"""Hierarchical matrix assembly and its closed-form labeled spectrum."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from hpca.eigen import ZERO_SUM_TOL, Spectrum, sym_eig_sorted
from hpca.errors import InputError, NumericalError
from hpca.model import (
    MULTI_SECTOR,
    SECTOR,
    _assemble_hpca_matrix,
    _assemble_spectrum,
    _build_factor_cov,
    _inter_sector_corr,
    eigenportfolio_series,
    fit_hpca,
    load_model_dict,
    save_model,
)
from hpca.panel import ReturnsPanel, correlation, standardize
from hpca.report import build_comparison
from hpca.sectors import SectorPartition
from hpca.synth import MarketSpec, SectorSpec, default_market_spec, generate


def raw_panel(values) -> ReturnsPanel:
    values = np.asarray(values, dtype=float)
    t, n = values.shape
    return ReturnsPanel(
        dates=tuple(f"d{i}" for i in range(t)),
        assets=tuple(f"A{i}" for i in range(n)),
        values=values,
    )


def four_asset_parts():
    """Two sectors of two perfectly correlated assets, factor corr 0.5."""
    partition = SectorPartition(
        labels=("one", "two"), assignment=np.array([0, 0, 1, 1])
    )
    block = np.array([[1.0, 1.0], [1.0, 1.0]])
    rho = np.array([[1.0, 0.5], [0.5, 1.0]])
    betas = [np.array([1.0, 1.0]), np.array([1.0, 1.0])]
    return partition, [block, block.copy()], betas, rho


def tied_parts():
    """Identity blocks and uncorrelated factors: every eigenvalue is 1."""
    partition = SectorPartition(labels=("p", "q"), assignment=np.array([0, 1, 1]))
    spectra = [sym_eig_sorted(np.eye(1)), sym_eig_sorted(np.eye(2))]
    return partition, spectra, _build_factor_cov([1.0, 1.0], np.eye(2))


def tied_spectrum():
    return _assemble_spectrum(*tied_parts(), ("a", "b", "c"))[0]


def _market(sectors, factor_corr, n_periods):
    return MarketSpec(tuple(sectors), np.array(factor_corr, dtype=float), n_periods, seed=5)


# Markets at the edges that ``fit_hpca`` and ``MarketSpec.population_matrix``
# pass to the closed form with no check of their own: singleton, perfectly
# and least correlated sectors, sectors wider than T, exactly tied sector
# spectra and perfectly (anti-)correlated factors.
EDGE_MARKETS = {
    "one-sector": _market([SectorSpec("s", 6, equicorrelation=0.4)], [[1.0]], 20),
    "all-singletons": _market(
        [SectorSpec(f"s{k}", 1) for k in range(5)],
        helpers.random_correlation(np.random.default_rng(0), 5),
        12,
    ),
    "perfect-sector": _market(
        [SectorSpec("p", 4, equicorrelation=1.0), SectorSpec("q", 3, equicorrelation=0.2)],
        [[1.0, 0.5], [0.5, 1.0]],
        15,
    ),
    "least-correlated-sector": _market(
        [SectorSpec("n", 4, equicorrelation=-1.0 / 3.0), SectorSpec("m", 2, equicorrelation=0.3)],
        np.eye(2),
        25,
    ),
    "wider-than-T": _market(
        [SectorSpec("w", 30, equicorrelation=0.3), SectorSpec("v", 2, equicorrelation=0.6)],
        [[1.0, 0.4], [0.4, 1.0]],
        3,
    ),
    "two-periods": _market(
        [
            SectorSpec("a", 3, equicorrelation=0.5),
            SectorSpec("b", 1),
            SectorSpec("c", 2, equicorrelation=0.1),
        ],
        np.eye(3),
        2,
    ),
    "identical-factors": _market(
        [SectorSpec("a", 1), SectorSpec("b", 1), SectorSpec("c", 3, equicorrelation=0.4)],
        np.ones((3, 3)),
        10,
    ),
    "opposite-factors": _market(
        [SectorSpec("a", 2, equicorrelation=0.5), SectorSpec("b", 2, equicorrelation=0.5)],
        [[1.0, -1.0], [-1.0, 1.0]],
        10,
    ),
    "tied-sectors": _market(
        [SectorSpec(f"t{k}", 3, equicorrelation=0.3) for k in range(3)], np.eye(3), 8
    ),
}


def population_spectrum(spec):
    """The closed-form spectrum of ``spec.population_matrix``."""
    spectra = spec.sector_spectra
    cov = _build_factor_cov([sp.eigenvalues[0] for sp in spectra], spec.factor_correlation)
    return _assemble_spectrum(
        spec.partition, spectra, cov, tuple(f"A{i}" for i in range(spec.n_assets))
    )[0]


def assert_matches_dense(matrix, spectrum):
    value_err, vector_err, projector_err = helpers.max_spectrum_errors(
        matrix, spectrum.eigenvalues, spectrum.eigenvectors
    )
    scale = max(1.0, float(spectrum.eigenvalues[0]))
    assert value_err <= 1e-8 * scale
    assert vector_err <= 1e-6
    assert projector_err <= 1e-6


class TestInterSectorCorr:
    def test_single_factor(self):
        f = np.random.default_rng(0).standard_normal((50, 1))
        np.testing.assert_array_equal(_inter_sector_corr(f), [[1.0]])

    def test_identical_factors(self):
        f = np.random.default_rng(1).standard_normal(50)
        rho = _inter_sector_corr(np.column_stack([f, f]))
        np.testing.assert_allclose(rho, [[1.0, 1.0], [1.0, 1.0]], atol=1e-12)

    def test_monte_carlo_recovery(self):
        # Two singleton sectors: the fitted factor correlation is the plain
        # sample correlation of the two assets, which must approach the
        # generator's population value 0.4.
        spec = MarketSpec(
            sectors=(
                SectorSpec(name="a", size=1),
                SectorSpec(name="b", size=1),
            ),
            factor_correlation=np.array([[1.0, 0.4], [0.4, 1.0]]),
            n_periods=100_000,
            seed=42,
        )
        panel, truth = generate(spec)
        model = fit_hpca(standardize(panel), truth.partition)
        assert abs(model.factor_corr[0, 1] - 0.4) <= 0.02

    def test_unit_diagonal_exact(self):
        f = np.random.default_rng(2).standard_normal((30, 4))
        rho = _inter_sector_corr(f)
        assert np.all(np.diag(rho) == 1.0)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10


class TestBuildMatrix:
    def test_single_sector_equals_empirical(self):
        rng = np.random.default_rng(3)
        spec = helpers.random_market_spec(rng, max_sectors=1, min_size=4)
        panel, model = helpers.fit_from_spec(spec)
        sector = model.sector_models[0]
        assert model.matrix.tobytes() == sector.correlation.tobytes()

    def test_all_singletons_reduce_to_factor_corr(self):
        rng = np.random.default_rng(4)
        spec = MarketSpec(
            sectors=tuple(SectorSpec(name=f"s{k}", size=1) for k in range(4)),
            factor_correlation=helpers.random_correlation(rng, 4),
            n_periods=200,
            seed=7,
        )
        panel, model = helpers.fit_from_spec(spec)
        np.testing.assert_allclose(model.matrix, model.factor_corr, atol=1e-12)

    def test_four_asset_block_example(self):
        partition, blocks, betas, rho = four_asset_parts()
        matrix = _assemble_hpca_matrix(partition, blocks, betas, rho)
        expected = np.array(
            [
                [1.0, 1.0, 0.5, 0.5],
                [1.0, 1.0, 0.5, 0.5],
                [0.5, 0.5, 1.0, 1.0],
                [0.5, 0.5, 1.0, 1.0],
            ]
        )
        np.testing.assert_allclose(matrix, expected, atol=1e-15)
        dense = np.linalg.eigvalsh(matrix)[::-1]
        np.testing.assert_allclose(dense, [3.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_within_block_entries_bitwise(self):
        rng = np.random.default_rng(5)
        spec = helpers.random_market_spec(rng, max_sectors=4, min_size=2)
        panel, model = helpers.fit_from_spec(spec)
        for k, sector in enumerate(model.sector_models):
            members = model.partition.members(k)
            block = model.matrix[np.ix_(members, members)]
            assert block.tobytes() == sector.correlation.tobytes()

    def test_unit_diagonal(self):
        rng = np.random.default_rng(6)
        panel, model = helpers.fit_from_spec(helpers.random_market_spec(rng))
        assert np.all(np.diag(model.matrix) == 1.0)


class TestFactorCov:
    def test_single_sector(self):
        cov = _build_factor_cov([1.7], np.array([[1.0]]))
        np.testing.assert_array_equal(cov.values, [[1.7]])
        np.testing.assert_array_equal(cov.eigenvalues, [1.7])

    def test_uncorrelated_sectors_diagonal(self):
        lam = [3.0, 2.0, 1.5]
        cov = _build_factor_cov(lam, np.eye(3))
        np.testing.assert_allclose(cov.values, np.diag(lam), atol=1e-15)
        np.testing.assert_allclose(cov.eigenvalues, sorted(lam, reverse=True))

    def test_two_by_two_closed_form(self):
        cov = _build_factor_cov([2.0, 2.0], np.array([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_allclose(cov.values, [[2.0, 1.0], [1.0, 2.0]], atol=1e-12)
        np.testing.assert_allclose(cov.eigenvalues, [3.0, 1.0], atol=1e-12)
        root_half = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(
            cov.eigenvectors[:, 0], [root_half, root_half], atol=1e-12
        )

    def test_diagonal_holds_leading_eigenvalues_exactly(self):
        rng = np.random.default_rng(7)
        lam = rng.uniform(1.0, 9.0, 5)
        cov = _build_factor_cov(lam, helpers.random_correlation(rng, 5))
        assert np.array_equal(np.diag(cov.values), lam)
        assert np.linalg.eigvalsh(cov.values).min() >= -1e-10


class TestSpectrumAssembly:
    def test_single_sector_spectrum_passthrough(self):
        rng = np.random.default_rng(8)
        spec = helpers.random_market_spec(rng, max_sectors=1, min_size=3)
        panel, model = helpers.fit_from_spec(spec)
        sector = model.sector_models[0]
        np.testing.assert_allclose(
            model.spectrum.eigenvalues, sector.eigenvalues, atol=1e-12
        )
        assert model.spectrum.labels[0].kind == MULTI_SECTOR
        assert all(lab.kind == SECTOR for lab in model.spectrum.labels[1:])

    def test_four_asset_labels_and_values(self):
        partition, blocks, betas, rho = four_asset_parts()
        spectra = [sym_eig_sorted(block) for block in blocks]
        cov = _build_factor_cov([sp.eigenvalues[0] for sp in spectra], rho)
        labeled, _ = _assemble_spectrum(partition, spectra, cov, ("a", "b", "c", "d"))
        np.testing.assert_allclose(labeled.eigenvalues, [3.0, 1.0, 0.0, 0.0], atol=1e-12)
        kinds = [lab.kind for lab in labeled.labels]
        assert kinds == [MULTI_SECTOR, MULTI_SECTOR, SECTOR, SECTOR]
        assert labeled.labels[0].rank == 1
        assert {lab.sector for lab in labeled.labels[2:]} == {"one", "two"}
        assert all(lab.order == 2 for lab in labeled.labels[2:])

    def test_multi_sector_sorts_first_on_ties(self):
        labeled = tied_spectrum()
        np.testing.assert_array_equal(labeled.eigenvalues, [1.0, 1.0, 1.0])
        assert [lab.kind for lab in labeled.labels] == [MULTI_SECTOR, MULTI_SECTOR, SECTOR]

    @pytest.mark.parametrize("case", ["tied", "equicorrelated"])
    def test_merge_order_matches_lexsort_reference(self, case):
        if case == "tied":
            parts, assets = tied_parts(), ("a", "b", "c")
        else:
            # Same-size equicorrelated sectors repeat each other's spectra bit
            # for bit, and identity blocks tie their eigenvalues of 1 with the
            # multi-sector ones over uncorrelated factors.
            spec = MarketSpec(
                sectors=tuple(
                    SectorSpec(name=f"s{k}", size=size, equicorrelation=rho)
                    for k, (size, rho) in enumerate(
                        [(4, 0.3), (3, 0.0), (4, 0.3), (1, None), (3, 0.0), (4, 0.3)]
                    )
                ),
                factor_correlation=np.eye(6),
                n_periods=10,
            )
            spectra = spec.sector_spectra
            assert spectra[0].eigenvalues.tobytes() == spectra[2].eigenvalues.tobytes()
            mixing = _build_factor_cov([sp.eigenvalues[0] for sp in spectra], np.eye(6))
            parts = (spec.partition, spectra, mixing)
            assets = tuple(f"A{i}" for i in range(spec.n_assets))
        labeled, _ = _assemble_spectrum(*parts, assets)
        partition, spectra, mixing = parts
        # The reference: by value, then multi-sector first, then by sector and
        # order, as a lexsort over explicit keys.
        entries = [(0, k, 0, v) for k, v in enumerate(mixing.eigenvalues.tolist())] + [
            (1, k, j, v)
            for k, sp in enumerate(spectra)
            for j, v in enumerate(sp.eigenvalues[1:].tolist(), start=1)
        ]
        kind, sector, order, values = (np.array(col) for col in zip(*entries))
        assert set(kind[values == 1.0].tolist()) == {0, 1}
        rank = np.lexsort((order, sector, kind, -values))
        expected = [
            (MULTI_SECTOR, sector[i] + 1, None, None) if kind[i] == 0
            else (SECTOR, None, partition.labels[sector[i]], order[i] + 1)
            for i in rank
        ]
        got = [(lab.kind, lab.rank, lab.sector, lab.order) for lab in labeled.labels]
        assert got == expected
        assert labeled.eigenvalues.tobytes() == values[rank].tobytes()

    def test_label_census(self):
        rng = np.random.default_rng(9)
        spec = helpers.random_market_spec(rng, max_sectors=5, min_size=1)
        panel, model = helpers.fit_from_spec(spec)
        b = model.partition.n_sectors
        multi = [lab for lab in model.spectrum.labels if lab.kind == MULTI_SECTOR]
        assert len(multi) == b
        assert sorted(lab.rank for lab in multi) == list(range(1, b + 1))
        for k, label in enumerate(model.partition.labels):
            orders = [
                lab.order
                for lab in model.spectrum.labels
                if lab.kind == SECTOR and lab.sector == label
            ]
            assert sorted(orders) == list(range(2, int(model.partition.sizes[k]) + 1))

    def test_top_vectors_equal_leading_eigenvector_columns(self):
        rng = np.random.default_rng(23)
        specs = [helpers.random_market_spec(rng) for _ in range(12)]
        sectors = [s for spec in specs for s in spec.sectors]
        # The draws cover singleton and perfectly correlated sectors.
        assert any(s.size == 1 for s in sectors)
        assert any(s.equicorrelation == 1.0 for s in sectors)
        models = [helpers.fit_from_spec(spec)[1] for spec in specs]
        # Every eigensystem is a Spectrum: the fitted spectrum, each sector
        # model and the factor covariance answer vectors(k) alike.
        cases = [(tied_spectrum(), 2)]
        for m in models:
            b = m.partition.n_sectors
            cases += [(m.spectrum, b), (m.factor_cov, b)]
            cases += [(sector, 1) for sector in m.sector_models]
        for spectrum, b in cases:
            full = spectrum.eigenvectors
            n = spectrum.size
            for k in sorted({0, 1, b, min(b + 1, n), n}):
                top = spectrum.vectors(k)
                assert top.shape == (n, k)
                assert np.array_equal(top, full[:, :k])
            with pytest.raises(InputError, match="non-negative"):
                spectrum.vectors(-1)

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(10)
        panel, model = helpers.fit_from_spec(helpers.random_market_spec(rng))
        v = model.spectrum.eigenvectors
        gram = v.T @ v
        assert np.abs(gram - np.eye(v.shape[1])).max() <= 1e-8

    def test_default_market_label_structure(self):
        # Top-25-style table: the market factor leads, the 11 multi-sector
        # entries are all present, and named sector entries appear among the
        # remaining ranks.
        panel, model = helpers.fit_from_spec(default_market_spec(n_periods=1508))
        labels = model.spectrum.labels
        assert labels[0].kind == MULTI_SECTOR
        assert labels[0].rank == 1
        assert sum(1 for lab in labels if lab.kind == MULTI_SECTOR) == 11
        top25 = {lab.describe() for lab in labels[:25]}
        assert "Multi-sector" in top25
        assert top25 & set(model.partition.labels)

    def test_betas_bitwise_consistent_with_sector_spectra(self):
        rng = np.random.default_rng(21)
        panel, model = helpers.fit_from_spec(helpers.random_market_spec(rng))
        for sector in model.sector_models:
            rebuilt = np.sqrt(sector.eigenvalues[0]) * sector.eigenvectors[:, 0]
            assert np.array_equal(sector.betas, rebuilt)


class TestClosedFormInvariants:
    """What ``fit_hpca`` relies on, with no check of its own, for the parts it builds."""

    @settings(database=None, deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        max_size=st.integers(1, 24),
        n_periods=st.integers(3, 40),
    )
    def test_short_panels(self, seed, max_size, n_periods):
        # Sectors may be singletons, perfectly correlated or wider than T.
        spec = helpers.random_market_spec(np.random.default_rng(seed), max_size=max_size)
        panel, model = helpers.fit_from_spec(dataclasses.replace(spec, n_periods=n_periods))
        self.assert_invariants(model)

    @pytest.mark.parametrize("name", EDGE_MARKETS)
    def test_edge_market(self, name):
        panel, model = helpers.fit_from_spec(EDGE_MARKETS[name])
        self.assert_invariants(model)

    @staticmethod
    def assert_invariants(model):
        lam1 = np.array([m.eigenvalues[0] for m in model.sector_models])
        # A unit-diagonal block of size s has trace s, so its largest eigenvalue is >= 1.
        assert lam1.min() >= 1.0 - 1e-12
        # Each factor is X v1 / sqrt(lam1), of sample variance v1' C v1 / lam1 = 1.
        for m in model.sector_models:
            assert abs(m.factor.var(ddof=1) - 1.0) <= 1e-12
        assert np.all(np.diag(model.factor_corr) == 1.0)
        assert np.diag(model.factor_cov.values).tobytes() == lam1.tobytes()


class TestShiftedReturns:
    """Correlations, and so the fit, do not change when a constant is added to each return."""

    @pytest.mark.parametrize("shift", [1e4, 1e6])
    def test_fit_of_a_shifted_panel_matches_the_unshifted_fit(self, shift):
        panel, truth = generate(default_market_spec(), seed=1)
        base = fit_hpca(standardize(panel), truth.partition).spectrum.eigenvalues
        shifted = ReturnsPanel(panel.dates, panel.assets, panel.values + shift)
        got = fit_hpca(standardize(shifted), truth.partition).spectrum.eigenvalues
        assert np.abs(got - base).max() <= 1e-12 * base[0]


class TestAnalyticOracle:
    def test_matches_dense_eigensolve_on_fitted_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(40):
            spec = helpers.random_market_spec(rng)
            panel, model = helpers.fit_from_spec(spec)
            assert_matches_dense(model.matrix, model.spectrum)

    def test_matches_dense_on_population_matrices_with_degeneracies(self):
        # Equicorrelated blocks give exactly repeated eigenvalues, exercising
        # the degenerate-subspace comparison.
        rng = np.random.default_rng(12)
        for trial in range(15):
            spec = helpers.random_market_spec(rng, max_sectors=4, min_size=3)
            assert_matches_dense(spec.population_matrix, population_spectrum(spec))

    @pytest.mark.parametrize("name", EDGE_MARKETS)
    def test_edge_market_fit_matches_dense(self, name):
        panel, model = helpers.fit_from_spec(EDGE_MARKETS[name])
        matrix = model.matrix
        assert np.array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 1.0)
        assert_matches_dense(matrix, model.spectrum)

    @pytest.mark.parametrize("name", EDGE_MARKETS)
    def test_edge_market_population_matches_dense(self, name):
        spec = EDGE_MARKETS[name]
        matrix = spec.population_matrix
        for k, sector in enumerate(spec.sectors):
            members = spec.partition.members(k)
            assert np.array_equal(matrix[np.ix_(members, members)], sector.block_correlation())
        assert_matches_dense(matrix, population_spectrum(spec))

    def test_invariant_subspace_of_leading_embeddings(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            spec = helpers.random_market_spec(rng, max_sectors=5)
            panel, model = helpers.fit_from_spec(spec)
            n, b = model.n_assets, model.partition.n_sectors
            leading = np.zeros((n, b))
            for k, sector in enumerate(model.sector_models):
                leading[model.partition.members(k), k] = sector.eigenvectors[:, 0]
            image = model.matrix @ leading
            residual = image - leading @ (leading.T @ image)
            assert np.linalg.norm(residual, axis=0).max() <= 1e-10

    def test_higher_order_sector_vectors_are_eigenvectors(self):
        rng = np.random.default_rng(14)
        spec = helpers.random_market_spec(rng, max_sectors=4, min_size=2)
        panel, model = helpers.fit_from_spec(spec)
        for k, sector in enumerate(model.sector_models):
            for j in range(1, sector.size):
                w = np.zeros(model.n_assets)
                w[model.partition.members(k)] = sector.eigenvectors[:, j]
                residual = model.matrix @ w - sector.eigenvalues[j] * w
                assert np.linalg.norm(residual) <= 1e-10

    def test_psd_over_random_panels_and_partitions(self):
        rng = np.random.default_rng(15)
        for trial in range(60):
            n = int(rng.integers(2, 25))
            t = int(rng.integers(max(3, n // 2), 6 * n + 3))
            x = rng.standard_normal((t, n))
            if trial % 3 == 0:
                x = x @ rng.standard_normal((n, n))
            if trial % 5 == 0:
                x = x**3
            panel = standardize(raw_panel(x))
            b = int(rng.integers(1, min(6, n) + 1))
            partition = helpers.random_partition(rng, n, b)
            model = fit_hpca(panel, partition)
            assert np.linalg.eigvalsh(model.matrix).min() >= -1e-8

    def test_eigenvalue_accounting(self):
        rng = np.random.default_rng(16)
        panel, model = helpers.fit_from_spec(helpers.random_market_spec(rng))
        b = model.partition.n_sectors
        mu_sum = model.factor_cov.eigenvalues.sum()
        assert abs(mu_sum - np.trace(model.factor_cov.values)) <= 1e-8 * b
        n = model.n_assets
        assert abs(model.spectrum.eigenvalues.sum() - n) <= 1e-6


def first_rank(a, b):
    """The rank-1 row comparing leading eigenvectors ``a`` and ``b`` on a flat spectrum."""
    n = a.size
    rest = np.eye(n)[:, 1:]
    plain, hier, assets = helpers.comparison_pair(
        np.ones(n), np.ones(n), np.column_stack([a, rest]), np.column_stack([b, rest])
    )
    return build_comparison(plain, hier, assets, top_k=1).rows[0]


def sign_rule_markets():
    """The seed-7 default market, the edge markets and 30 random ones, each with a seed."""
    rng = np.random.default_rng(30)
    return [(default_market_spec(), 7), *((spec, None) for spec in EDGE_MARKETS.values())] + [
        (helpers.random_market_spec(rng), None) for _ in range(30)
    ]


def assert_sign_rule(vectors):
    """Each column's entry sum is positive; or, zero to ``ZERO_SUM_TOL``, its first large entry."""
    sums = vectors.sum(axis=0)
    zero = np.abs(sums) <= ZERO_SUM_TOL
    assert (sums[~zero] > 0.0).all(), np.flatnonzero(sums < -ZERO_SUM_TOL)
    for column in vectors[:, zero].T:
        assert column[np.flatnonzero(np.abs(column) > ZERO_SUM_TOL)[0]] > 0.0


class TestSignRule:
    """The closed form's eigenvectors take ``sym_eig_sorted``'s sign rule."""

    def test_fitted_and_population_columns_follow_the_rule(self):
        for spec, seed in sign_rule_markets():
            panel, model = helpers.fit_from_spec(spec, seed)
            assert_sign_rule(model.spectrum.eigenvectors)
            assert_sign_rule(population_spectrum(spec).eigenvectors)

    def test_separated_columns_agree_with_the_dense_solve(self):
        for spec, seed in sign_rule_markets():
            panel, model = helpers.fit_from_spec(spec, seed)
            values, vectors = model.spectrum.eigenvalues, model.spectrum.eigenvectors
            dense = sym_eig_sorted(model.matrix).eigenvectors
            scale = max(1.0, float(values[0]))
            for cluster in helpers.eigen_clusters(values, 1e-7 * scale):
                if len(cluster) == 1:
                    assert vectors[:, cluster[0]] @ dense[:, cluster[0]] > 0.0

    @pytest.mark.parametrize("name", ["default", "all-singletons", "opposite-factors"])
    def test_model_json_rebuilds_every_eigenvector(self, tmp_path, name):
        spec, seed = (default_market_spec(), 7) if name == "default" else (EDGE_MARKETS[name], None)
        panel, model = helpers.fit_from_spec(spec, seed)
        save_model(model, tmp_path, vectors=model.n_assets)
        doc = load_model_dict(tmp_path)
        row = {asset: i for i, asset in enumerate(doc["assets"])}
        blocks = [
            ([row[a] for a in m["assets"]], np.array(m["eigenvectors"]))
            for m in doc["sector_models"]
        ]
        leading = np.zeros((len(row), len(blocks)))
        for k, (rows, vectors) in enumerate(blocks):
            leading[rows, k] = vectors[:, 0]
        mixing = np.array(doc["factor_cov_eigenvectors"])
        rebuilt = np.zeros((len(row), len(doc["spectrum"])))
        for j, entry in enumerate(doc["spectrum"]):
            if entry["kind"] == MULTI_SECTOR:
                rebuilt[:, j] = leading @ mixing[:, entry["rank"] - 1]
            else:
                rows, vectors = blocks[doc["sectors"].index(entry["sector"])]
                rebuilt[rows, j] = vectors[:, entry["order"] - 1]
        with open(tmp_path / "eigenvectors.csv", newline="", encoding="utf-8") as fh:
            table = np.array([line[1:] for line in list(csv.reader(fh))[1:]], dtype=float)
        np.testing.assert_allclose(table, rebuilt, rtol=0.0, atol=1e-14)


class TestCompareEigenvectors:
    """The per-rank eigenvector statistics of ``build_comparison``."""

    def test_identical(self):
        v = np.ones(10) / math.sqrt(10.0)
        row = first_rank(v, v)
        assert row.rms_distance == 0.0
        assert row.mean_difference == 0.0

    def test_sign_flip_aligned(self):
        v = np.ones(10) / math.sqrt(10.0)
        row = first_rank(v, -v)
        assert row.rms_distance == 0.0

    def test_noise_of_known_size_measured(self):
        n, sigma = 434, 5e-3
        rng = np.random.default_rng(18)
        a = np.ones(n) / math.sqrt(n)
        noisy = a + rng.normal(0.0, sigma, n)
        noisy /= np.linalg.norm(noisy)
        row = first_rank(a, noisy)
        assert abs(row.rms_distance - sigma) <= 0.2 * sigma
        assert row.mean_abs_entry == pytest.approx(1.0 / math.sqrt(n), rel=0.05)

    def test_dimension_mismatch(self):
        plain, hier, assets = helpers.comparison_pair(np.ones(4), np.ones(4))
        short = Spectrum(eigenvalues=np.ones(4), eigenvectors=np.eye(3, 4))
        with pytest.raises(InputError, match="plain eigenvectors have 3 entries for 4 assets"):
            build_comparison(short, hier, assets, top_k=1)
        short_hier = dataclasses.replace(hier, eigenvectors=np.eye(3, 4))
        with pytest.raises(InputError, match="hierarchical eigenvectors have 3 entries"):
            build_comparison(plain, short_hier, assets, top_k=1)

    def test_eigenvalue_count_mismatch(self):
        plain, _, _ = helpers.comparison_pair(np.ones(3), np.ones(3))
        _, hier, assets = helpers.comparison_pair(np.ones(4), np.ones(4))
        with pytest.raises(InputError, match="3 eigenvalues for 4 assets"):
            build_comparison(plain, hier, assets, top_k=1)

    def test_requires_unit_norm(self):
        with pytest.raises(InputError, match="plain eigenvector 1 is not unit norm"):
            first_rank(np.ones(4), np.ones(4) / 2.0)
        with pytest.raises(InputError, match="hierarchical eigenvector 1 is not unit norm"):
            first_rank(np.ones(4) / 2.0, np.ones(4))

    def test_only_compared_ranks_need_unit_norm(self):
        vectors = np.eye(3)
        vectors[:, 2] *= 2.0
        plain, hier, assets = helpers.comparison_pair(np.ones(3), np.ones(3), vectors, vectors)
        assert len(build_comparison(plain, hier, assets, top_k=2).rows) == 2
        with pytest.raises(InputError, match="eigenvector 3 is not unit norm"):
            build_comparison(plain, hier, assets, top_k=3)


class TestCumulativeVariance:
    """The cumulative-variance curves of ``build_comparison``."""

    def test_flat_spectrum_is_linear(self):
        report = build_comparison(*helpers.comparison_pair(np.ones(4), np.ones(4)), top_k=0)
        np.testing.assert_allclose(report.pca_cumulative, [0.25, 0.5, 0.75, 1.0])
        np.testing.assert_allclose(report.hpca_cumulative, [0.25, 0.5, 0.75, 1.0])

    def test_four_asset_curve(self):
        values = [3.0, 1.0, 0.0, 0.0]
        report = build_comparison(*helpers.comparison_pair(values, values), top_k=0)
        np.testing.assert_allclose(report.hpca_cumulative, [0.75, 1.0, 1.0, 1.0])

    def test_full_model_curve_ends_at_one(self):
        rng = np.random.default_rng(17)
        panel, model = helpers.fit_from_spec(helpers.random_market_spec(rng))
        pca = sym_eig_sorted(correlation(panel).values)
        report = build_comparison(pca, model.spectrum, panel.assets)
        for curve in (report.pca_cumulative, report.hpca_cumulative):
            assert curve[-1] == pytest.approx(1.0, abs=1e-6)
            assert np.all(np.diff(curve) >= -1e-15)

    def test_rejects_unsorted(self):
        low, high = np.array([0.5, 1.5]), np.array([1.5, 0.5])
        with pytest.raises(InputError, match="plain eigenvalues must be sorted"):
            build_comparison(*helpers.comparison_pair(low, high), top_k=0)
        with pytest.raises(InputError, match="hierarchical eigenvalues must be sorted"):
            build_comparison(*helpers.comparison_pair(high, low), top_k=0)

    @pytest.mark.parametrize(
        "plain, hier, message",
        [
            ([1.5, 0.5, 0.5], [1.5, 1.0, 0.5], "plain eigenvalues sum to 2.5, expected 3"),
            ([1.5, 1.0, 0.5], [2.0, 1.0, 1.0], "hierarchical eigenvalues sum to 4.0, expected 3"),
        ],
        ids=["plain", "hierarchical"],
    )
    def test_eigenvalues_must_sum_to_n(self, plain, hier, message):
        with pytest.raises(NumericalError, match=re.escape(message)):
            build_comparison(*helpers.comparison_pair(plain, hier), top_k=0)


class TestEigenportfolioSeries:
    def test_own_factors_have_unit_variance(self):
        rng = np.random.default_rng(19)
        panel, model = helpers.fit_from_spec(
            helpers.random_market_spec(rng, max_sectors=3, min_size=2)
        )
        spectrum = sym_eig_sorted(correlation(panel).values)
        count = min(3, model.n_assets)
        factors = eigenportfolio_series(
            panel.values, spectrum.eigenvalues, spectrum.eigenvectors, count
        )
        assert factors.shape == (panel.n_periods, count)
        np.testing.assert_allclose(factors.var(axis=0, ddof=1), 1.0, atol=1e-8)


class TestInputErrors:
    """Every input check in the model layer raises with its message."""

    @pytest.mark.parametrize(
        "eigenvalues, count, error, message",
        [
            ([2.0, 1.0, 0.5], 4, InputError, "factor count 4 out of range [0, 3]"),
            ([2.0, 1.0, 0.5], -1, InputError, "factor count -1 out of range [0, 3]"),
            (
                [2.0, 1.0, 0.0], 3, NumericalError,
                "cannot realize eigenportfolios for non-positive eigenvalues",
            ),
        ],
        ids=["above-n", "negative", "zero-eigenvalue"],
    )
    def test_eigenportfolio_series(self, eigenvalues, count, error, message):
        values = np.random.default_rng(22).standard_normal((10, 3))
        with pytest.raises(error, match=re.escape(message)):
            eigenportfolio_series(values, np.array(eigenvalues), np.eye(3), count)

    @pytest.mark.parametrize(
        "values, eigenvalues, eigenvectors, message",
        [
            (
                [[1.0, 0.0], [-1.0, 1.0]], [1.0], np.eye(2),
                "eigenvalues must be 1-d with at least 2 values, got shape (1,)",
            ),
            ([1.0, -1.0], [1.0, 1.0], np.eye(2), "panel values must be 2-d, got shape (2,)"),
            (
                [[1.0, 0.0], [-1.0, 1.0]], [1.0, 1.0], [1.0, 0.0],
                "eigenvectors must be 2 x at least 2, got shape (2,)",
            ),
            (
                [[1.0, 0.0], [-1.0, 1.0]], [1.0, 1.0], np.eye(3),
                "eigenvectors must be 2 x at least 2, got shape (3, 3)",
            ),
        ],
        ids=["too-few-eigenvalues", "one-dimensional-values", "one-dimensional-vectors", "row-count"],
    )
    def test_eigenportfolio_series_shapes(self, values, eigenvalues, eigenvectors, message):
        with pytest.raises(InputError, match=re.escape(message)):
            eigenportfolio_series(values, eigenvalues, eigenvectors, 2)


class TestExport:
    def test_model_roundtrip(self, tmp_path):
        rng = np.random.default_rng(20)
        spec = helpers.random_market_spec(rng, max_sectors=3, min_size=2)
        panel, model = helpers.fit_from_spec(spec)
        save_model(model, tmp_path, include_matrix=True, vectors=2)
        doc = load_model_dict(tmp_path)
        assert doc["assets"] == list(model.spectrum.assets)
        assert doc["sectors"] == list(model.partition.labels)
        np.testing.assert_array_equal(np.array(doc["matrix"]), model.matrix)
        np.testing.assert_array_equal(
            np.array(doc["multi_sector_eigenvalues"]), model.factor_cov.eigenvalues
        )
        entries = doc["spectrum"]
        assert len(entries) == model.n_assets
        assert entries[0]["label"] in {"Multi-sector"} | set(model.partition.labels)
        table = (tmp_path / "eigenvectors.csv").read_text().splitlines()
        assert table[0] == "asset,EV1,EV2"
        assert len(table) == model.n_assets + 1

    @pytest.mark.parametrize(
        "vectors, message",
        [
            (1.5, "eigenvector count must be a whole number, got 1.5"),
            ("1", "eigenvector count must be a whole number, got '1'"),
            (None, "eigenvector count must be a whole number, got None"),
            (-1, "eigenvector count must be non-negative, got -1"),
            (False, "eigenvector count must be a whole number, got False"),
        ],
        ids=["fractional", "text", "none", "negative", "boolean"],
    )
    def test_fractional_vector_count_rejected(self, tmp_path, vectors, message):
        panel, model = helpers.fit_from_spec(helpers.market_like_spec(np.random.default_rng(24)))
        out = tmp_path / "model"
        with pytest.raises(InputError, match=re.escape(message)):
            save_model(model, out, vectors=vectors)
        # The count is checked before anything is written.
        assert not out.exists()

    @pytest.mark.parametrize("include_matrix", [False, True], ids=["default", "with-matrix"])
    def test_model_json_layout(self, tmp_path, include_matrix):
        panel, model = helpers.fit_from_spec(helpers.market_like_spec(np.random.default_rng(24)))
        save_model(model, tmp_path, include_matrix=include_matrix)
        doc = load_model_dict(tmp_path)
        assert list(doc) == [
            "assets", "sectors", "assignment", "factor_correlation", "factor_covariance",
            "multi_sector_eigenvalues", "factor_cov_eigenvectors", "spectrum", "sector_models",
        ] + ["matrix"] * include_matrix
        assert {(entry["kind"], *entry) for entry in doc["spectrum"]} == {
            (MULTI_SECTOR, "eigenvalue", "label", "kind", "rank"),
            (SECTOR, "eigenvalue", "label", "kind", "sector", "order"),
        }
        assert {tuple(m) for m in doc["sector_models"]} == {
            ("label", "assets", "eigenvalues", "eigenvectors", "betas")
        }
        # The default count of 0 writes no eigenvector table.
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_eigenvector_table_quotes_asset_names(self, tmp_path):
        raw = raw_panel(np.random.default_rng(21).standard_normal((40, 3)))
        panel = standardize(
            ReturnsPanel(
                dates=raw.dates, assets=("ACME, Inc.", "B", 'C "x"'), values=raw.values
            )
        )
        model = fit_hpca(panel, SectorPartition(("s",), np.zeros(3, dtype=int)))
        save_model(model, tmp_path, vectors=2)
        with open(tmp_path / "eigenvectors.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["asset", "EV1", "EV2"]
        assert [row[0] for row in rows[1:]] == list(panel.assets)
        assert all(len(row) == 3 for row in rows)
        np.testing.assert_array_equal(
            np.array([row[1:] for row in rows[1:]], dtype=float),
            model.spectrum.eigenvectors[:, :2],
        )
