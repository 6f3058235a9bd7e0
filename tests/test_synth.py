"""Synthetic market generator and its ground-truth guarantees."""

import json
import re
from fractions import Fraction

import numpy as np
import pytest

import helpers
from hpca.eigen import sym_eig_sorted
from hpca.errors import InputError
from hpca.model import fit_hpca
from hpca.panel import load_panel, standardize, write_panel
from hpca.sectors import SectorPartition
from hpca.synth import (
    MarketSpec,
    SectorSpec,
    _check_correlation,
    _correlate,
    default_market_spec,
    generate,
    load_market_spec,
    market_spec_from_dict,
    market_spec_to_dict,
    save_market_spec,
    sector_map_for,
)

NOT_REAL = "sector 'a' equicorrelation must be a finite real number, got "


def singleton_pair_spec(rho, t, seed=0):
    return MarketSpec(
        sectors=(SectorSpec(name="a", size=1), SectorSpec(name="b", size=1)),
        factor_correlation=np.array([[1.0, rho], [rho, 1.0]]),
        n_periods=t,
        seed=seed,
    )


class TestGenerate:
    def test_independent_panel(self):
        spec = MarketSpec(
            sectors=(SectorSpec(name="only", size=8, equicorrelation=0.0),),
            factor_correlation=np.array([[1.0]]),
            n_periods=4000,
            seed=1,
        )
        panel, truth = generate(spec)
        np.testing.assert_array_equal(truth.population_matrix, np.eye(8))
        corr = np.corrcoef(panel.values, rowvar=False)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.abs(off).max() <= 5.0 / np.sqrt(4000)

    def test_singleton_pair_monte_carlo(self):
        panel, truth = generate(singleton_pair_spec(0.4, 100_000, seed=5))
        sample = np.corrcoef(panel.values, rowvar=False)[0, 1]
        assert abs(sample - 0.4) <= 0.02

    def test_population_matrix_psd(self):
        rng = np.random.default_rng(2)
        for trial in range(25):
            spec = helpers.random_market_spec(rng)
            assert np.linalg.eigvalsh(spec.population_matrix).min() >= -1e-10

    def test_population_matrix_matches_block_structure(self):
        rng = np.random.default_rng(3)
        spec = helpers.random_market_spec(rng, max_sectors=3, min_size=2)
        start = 0
        for s, spectrum in zip(spec.sectors, spec.sector_spectra):
            stop = start + s.size
            np.testing.assert_array_equal(
                spec.population_matrix[start:stop, start:stop],
                s.block_correlation(),
            )
            start = stop

    def test_sampler_is_an_exact_root(self):
        # Identity shocks (T = n) make the panel's Gram matrix the sampler's
        # own covariance, which must be the population matrix itself.
        rng = np.random.default_rng(4)
        kinds = set()
        for trial in range(60):
            spec = helpers.random_market_spec(rng)
            draws = _correlate(spec, np.eye(spec.n_assets))
            np.testing.assert_allclose(
                draws.T @ draws, spec.population_matrix, rtol=0.0, atol=1e-12
            )
            kinds.update(
                "singleton" if s.size == 1
                else "perfect" if s.equicorrelation == 1.0
                else "other"
                for s in spec.sectors
            )
        assert kinds == {"singleton", "perfect", "other"}

    def test_deterministic_per_seed(self):
        spec = singleton_pair_spec(0.3, 500, seed=9)
        first, _ = generate(spec)
        second, _ = generate(spec)
        assert first.values.tobytes() == second.values.tobytes()
        third, _ = generate(spec, seed=10)
        assert third.values.tobytes() != first.values.tobytes()

    def test_panel_round_trip(self, tmp_path):
        panel, _ = generate(singleton_pair_spec(0.2, 50, seed=3))
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        back = load_panel(path)
        assert back.values.tobytes() == panel.values.tobytes()
        assert back.assets == panel.assets
        assert back.dates == panel.dates

    def test_dates_are_iso(self):
        panel, _ = generate(singleton_pair_spec(0.2, 5, seed=3))
        assert panel.dates[0] == "2000-01-03"
        assert all(len(d) == 10 and d[4] == "-" for d in panel.dates)


class TestSpecValidation:
    def test_rejects_non_psd_factor_correlation(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        with pytest.raises(InputError):
            MarketSpec(
                sectors=tuple(SectorSpec(name=f"s{k}", size=1) for k in range(3)),
                factor_correlation=bad,
                n_periods=100,
            )

    def test_rejects_bad_equicorrelation(self):
        with pytest.raises(InputError):
            MarketSpec(
                sectors=(SectorSpec(name="a", size=3, equicorrelation=-0.9),),
                factor_correlation=np.array([[1.0]]),
                n_periods=100,
            )

    def test_default_market_shape(self):
        spec = default_market_spec()
        assert spec.n_sectors == 11
        assert spec.n_assets == 462
        assert spec.n_periods == 1508
        sizes = tuple(s.size for s in spec.sectors)
        assert sizes == (73, 56, 27, 59, 51, 57, 58, 23, 27, 3, 28)
        assert np.linalg.eigvalsh(spec.population_matrix).min() >= -1e-10

    def test_spec_file_round_trip(self, tmp_path):
        spec = default_market_spec(n_periods=64, seed=4)
        path = tmp_path / "market.json"
        save_market_spec(spec, path)
        back = load_market_spec(path)
        assert back.n_periods == spec.n_periods
        assert back.seed == spec.seed
        np.testing.assert_array_equal(back.factor_correlation, spec.factor_correlation)
        assert tuple(s.name for s in back.sectors) == tuple(s.name for s in spec.sectors)

    def test_dict_round_trip_with_full_block(self):
        rng = np.random.default_rng(5)
        spec = MarketSpec(
            sectors=(
                SectorSpec(name="full", size=3, correlation=helpers.random_correlation(rng, 3)),
                SectorSpec(name="equi", size=2, equicorrelation=0.4),
            ),
            factor_correlation=helpers.random_correlation(rng, 2),
            n_periods=128,
            seed=6,
        )
        back = market_spec_from_dict(market_spec_to_dict(spec))
        np.testing.assert_array_equal(
            back.sectors[0].correlation, spec.sectors[0].correlation
        )
        assert back.sectors[1].equicorrelation == 0.4

    def test_rejects_nan_factor_correlation(self):
        with pytest.raises(InputError, match="factor correlation contains non-finite"):
            MarketSpec(
                sectors=(SectorSpec(name="a", size=1), SectorSpec(name="b", size=1)),
                factor_correlation=np.array([[1.0, np.nan], [np.nan, 1.0]]),
                n_periods=100,
            )

    def test_rejects_nan_sector_correlation(self):
        block = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InputError, match="sector 'a' correlation contains non-finite"):
            MarketSpec(
                sectors=(SectorSpec(name="a", size=2, correlation=block),),
                factor_correlation=np.array([[1.0]]),
                n_periods=100,
            )

    @pytest.mark.parametrize(
        "where, value",
        [("size", 2.9), ("size", True), ("n_periods", 10.7), ("seed", 1.5), ("seed", True)],
    )
    def test_rejects_fractional_or_boolean_numbers(self, where, value):
        doc = {
            "n_periods": 10,
            "factor_correlation": [[1.0]],
            "sectors": [{"name": "a", "size": 2, "equicorrelation": 0.3}],
        }
        if where == "size":
            doc["sectors"][0]["size"] = value
        else:
            doc[where] = value
        with pytest.raises(InputError, match=f"{where} must be a whole number"):
            market_spec_from_dict(doc)

    def test_integral_floats_accepted(self):
        spec = market_spec_from_dict({
            "n_periods": 10.0,
            "seed": 3.0,
            "factor_correlation": [[1.0]],
            "sectors": [{"name": "a", "size": 2.0, "equicorrelation": 0.3}],
        })
        assert (spec.sectors[0].size, spec.n_periods, spec.seed) == (2, 10, 3)
        assert all(type(v) is int for v in (spec.sectors[0].size, spec.n_periods, spec.seed))

    @pytest.mark.parametrize(
        "build, where",
        [
            (lambda: SectorSpec(name="a", size=2.5), "sector 'a' size"),
            (lambda: SectorSpec(name="a", size=True), "sector 'a' size"),
            (lambda: SectorSpec(name="a", size="2"), "sector 'a' size"),
            (lambda: MarketSpec((SectorSpec("a", 2, 0.3),), np.eye(1), n_periods=10.5), "n_periods"),
            (lambda: MarketSpec((SectorSpec("a", 2, 0.3),), np.eye(1), n_periods=True), "n_periods"),
            (lambda: MarketSpec((SectorSpec("a", 2, 0.3),), np.eye(1), n_periods=10, seed=0.5), "seed"),
        ],
        ids=["size-fraction", "size-bool", "size-str", "periods-fraction", "periods-bool", "seed-fraction"],
    )
    def test_library_specs_reject_non_whole_numbers(self, build, where):
        with pytest.raises(InputError, match=f"{where} must be a whole number"):
            build()

    def test_library_specs_accept_integral_floats(self):
        spec = MarketSpec(
            (SectorSpec("a", 2.0, 0.3), SectorSpec("b", np.int64(1))),
            np.eye(2), n_periods=np.float64(10.0), seed=3.0,
        )
        assert (spec.sectors[0].size, spec.sectors[1].size, spec.n_periods, spec.seed) == (2, 1, 10, 3)
        assert all(type(v) is int for v in (spec.sectors[0].size, spec.sectors[1].size, spec.n_periods, spec.seed))
        panel, _ = generate(spec)
        assert panel.values.shape == (10, 3)

    def test_malformed_spec_rejected(self):
        with pytest.raises(InputError):
            market_spec_from_dict({"sectors": [{"name": "x"}]})

    def test_null_sector_name_rejected(self):
        doc = {"n_periods": 10, "factor_correlation": [[1.0]], "sectors": [{"name": None, "size": 2}]}
        with pytest.raises(InputError, match="sector name must be a string, got None"):
            market_spec_from_dict(doc)

    def test_null_sector_correlation_rejected(self):
        # A JSON null is not an omitted block: it is read as a 0-d NaN array.
        doc = {
            "n_periods": 10,
            "factor_correlation": [[1.0]],
            "sectors": [{"name": "a", "size": 2, "correlation": None}],
        }
        with pytest.raises(InputError, match=re.escape("'a' correlation must be square and non-empty, got shape ()")):
            market_spec_from_dict(doc)

    @pytest.mark.parametrize(
        "text",
        [
            "[[1.0], [1.0, 0.5]]", '[["1", "x"], ["x", "1"]]', f"[[{10**400}]]", '{"a": 1.0}',
            '[[true, "0.3"], ["0.3", 1]]', "[[true, 0.3], [0.3, 1]]",
        ],
        ids=["ragged", "non-numeric", "overflow", "dict", "boolean-and-text", "boolean-and-numbers"],
    )
    def test_unreadable_sector_correlation_rejected_by_name(self, text):
        doc = json.loads(
            f'{{"n_periods": 10, "factor_correlation": [[1.0]], '
            f'"sectors": [{{"name": "a", "size": 2, "correlation": {text}}}]}}'
        )
        with pytest.raises(InputError, match="sector 'a' correlation must be an array of numbers"):
            market_spec_from_dict(doc)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((2, 3)), "m must be square and non-empty, got shape (2, 3)"),
            ([[1.0, 0.3], [0.2, 1.0]], "m is not symmetric"),
            ([[1.0, 0.3], [0.3, 0.5]], "m diagonal is not 1"),
        ],
        ids=["not-square", "asymmetric", "diagonal"],
    )
    def test_check_correlation(self, matrix, message):
        with pytest.raises(InputError, match=re.escape(message)):
            _check_correlation(matrix, "m")

    @pytest.mark.parametrize(
        "size, fields, message",
        [
            (0, {}, "sector 'a' has size 0"),
            (-2, {}, "sector 'a' has size -2"),
            (3, {"correlation": np.eye(2)}, "'a' correlation shape (2, 2) does not match size 3"),
            (3, {"equicorrelation": True}, NOT_REAL + "True"),
            (3, {"equicorrelation": "0.3"}, NOT_REAL + "'0.3'"),
            (3, {"equicorrelation": np.nan}, NOT_REAL + "nan"),
            (1, {"equicorrelation": np.nan}, NOT_REAL + "nan"),
            (1, {"equicorrelation": -np.inf}, NOT_REAL + "-inf"),
            (2, {"equicorrelation": "x", "correlation": np.eye(2)}, NOT_REAL + "'x'"),
            (2, {"equicorrelation": 5}, "sector 'a' equicorrelation 5 invalid for size 2"),
            (2, {"name": 3}, "sector name must be a string, got 3"),
        ],
        ids=[
            "size-zero", "size-negative", "correlation-shape", "equi-bool", "equi-str",
            "equi-nan", "singleton-nan", "singleton-inf", "equi-beside-correlation",
            "equi-out-of-range", "name-not-text",
        ],
    )
    def test_sector_spec_checked_when_built(self, size, fields, message):
        with pytest.raises(InputError, match=re.escape(message)):
            SectorSpec(**{"name": "a", "size": size, **fields})

    def test_sector_spec_refuses_both_block_descriptions(self):
        with pytest.raises(InputError, match="sector 'a' gives both equicorrelation and correlation"):
            SectorSpec(name="a", size=2, equicorrelation=5.0, correlation=np.eye(2))
        doc = {
            "n_periods": 10,
            "factor_correlation": [[1.0]],
            "sectors": [{"name": "a", "size": 2, "equicorrelation": 0.5, "correlation": [[1, 0], [0, 1]]}],
        }
        with pytest.raises(InputError, match="sector 'a' gives both equicorrelation and correlation"):
            market_spec_from_dict(doc)

    @pytest.mark.parametrize("rho", [0, np.int64(0), np.float32(0.25), Fraction(1, 4)])
    def test_sector_spec_accepts_any_real_equicorrelation(self, rho):
        block = SectorSpec(name="a", size=3, equicorrelation=rho).block_correlation()
        expected = np.full((3, 3), float(rho))
        np.fill_diagonal(expected, 1.0)
        assert block.dtype == float
        np.testing.assert_array_equal(block, expected)

    def test_sector_spec_keeps_the_checked_block(self):
        spec = SectorSpec(name="a", size=2, correlation=[[1, 0.5], [0.5, 1]])
        assert isinstance(spec.correlation, np.ndarray) and spec.correlation.dtype == float
        assert spec.block_correlation() is spec.correlation

    @pytest.mark.parametrize(
        "sectors, factor_correlation, n_periods, message",
        [
            ((), np.eye(1), 10, "market spec needs at least one sector"),
            ((SectorSpec("a", 1), SectorSpec("a", 2)), np.eye(2), 10, "names must be unique"),
            (
                (SectorSpec("a", 1), SectorSpec("b", 2)), np.eye(1), 10,
                "factor correlation shape (1, 1) does not match 2 sectors",
            ),
            ((SectorSpec("a", 1),), np.eye(1), 1, "n_periods must be at least 2"),
            ((1, 2), np.eye(2), 10, "sectors must be a sequence of SectorSpec, got (1, 2)"),
            (
                SectorSpec("a", 2), np.eye(1), 10,
                "sectors must be a sequence of SectorSpec, got SectorSpec(name='a'",
            ),
        ],
        ids=["no-sectors", "duplicate-names", "factor-shape", "one-period", "not-specs", "one-spec"],
    )
    def test_market_spec_rejects(self, sectors, factor_correlation, n_periods, message):
        with pytest.raises(InputError, match=re.escape(message)):
            MarketSpec(sectors, factor_correlation, n_periods)

    def test_market_spec_accepts_a_list_of_sectors(self):
        assert MarketSpec([SectorSpec("a", 2, 0.3)], np.eye(1), n_periods=5).n_assets == 2

    def test_sector_map_matches_assets(self):
        spec = default_market_spec(n_periods=16)
        panel, truth = generate(spec, seed=0)
        mapping = sector_map_for(spec)
        assert set(mapping) == set(panel.assets)
        assert mapping[panel.assets[0]] == "Consumer Discretionary"
        # The CLI's partition, read back from the map, is the spec's own.
        read_back = SectorPartition.from_mapping(panel.assets, mapping)
        assert read_back.labels == truth.partition.labels
        assert np.array_equal(read_back.assignment, truth.partition.assignment)


def two_block_market(block, factor_correlation):
    return MarketSpec(
        sectors=(SectorSpec("a", 4, correlation=block), SectorSpec("b", 3, equicorrelation=0.3)),
        factor_correlation=factor_correlation,
        n_periods=40,
        seed=3,
    )


def spectra_bits(spec):
    return [(s.eigenvalues.tobytes(), s.eigenvectors.tobytes()) for s in spec.sector_spectra]


class TestSpecOwnsItsMatrices:
    def test_caller_edits_after_building_change_nothing(self):
        block = helpers.random_correlation(np.random.default_rng(12), 4)
        fc = np.array([[1.0, 0.6], [0.6, 1.0]])
        spec = two_block_market(block, fc)
        reference = two_block_market(block.copy(), fc.copy())
        # An asymmetric edit, and a symmetric one that breaks positive semi-definiteness.
        fc[0, 1] = 5.0
        block[0, 1] = block[1, 0] = -1.0
        block[0, 2] = block[2, 0] = block[1, 2] = block[2, 1] = 1.0
        assert spec.factor_correlation.tobytes() == reference.factor_correlation.tobytes()
        assert spec.sectors[0].correlation.tobytes() == reference.sectors[0].correlation.tobytes()
        assert spectra_bits(spec) == spectra_bits(reference)
        assert spec.population_matrix.tobytes() == reference.population_matrix.tobytes()
        assert generate(spec)[0].values.tobytes() == generate(reference)[0].values.tobytes()

    def test_caller_edits_to_a_sector_list_after_a_draw_change_nothing(self):
        def sectors():
            return [SectorSpec("a", 3, 0.4), SectorSpec("b", 2, 0.2)]

        def build(secs):
            return MarketSpec(sectors=secs, factor_correlation=[[1, 0.3], [0.3, 1]], n_periods=50, seed=1)

        secs = sectors()
        spec, reference = build(secs), build(sectors())
        first = generate(spec)[0].values.tobytes()
        kept = spec.sectors
        for edit in (SectorSpec("b", 2, 0.9), SectorSpec("b", 4, 0.2)):
            secs[1] = edit
            assert isinstance(spec.sectors, tuple) and spec.sectors == kept
            assert generate(spec)[0].values.tobytes() == first == generate(reference)[0].values.tobytes()
            assert spec.population_matrix.tobytes() == reference.population_matrix.tobytes()

    def test_kept_matrices_are_read_only(self):
        spec = two_block_market(helpers.random_correlation(np.random.default_rng(12), 4), np.eye(2))
        for kept in (spec.factor_correlation, spec.sectors[0].correlation):
            assert not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 2.0


class TestIdentity:
    """A spec equals only itself and hashes by identity, though it may hold numpy arrays."""

    @pytest.mark.parametrize(
        "build",
        [
            default_market_spec,
            lambda: SectorSpec("a", 3, 0.4),
            lambda: SectorSpec("a", 2, correlation=np.eye(2)),
        ],
        ids=["market", "equicorrelation-sector", "matrix-sector"],
    )
    def test_a_spec_equals_only_itself(self, build):
        spec, twin = build(), build()
        assert spec == spec and spec != twin
        assert {spec: 1, twin: 2}[spec] == 1


# The default market and two custom-correlation markets, each built afresh on every call.
DRAWN_MARKETS = {
    "default": lambda: default_market_spec(n_periods=60, seed=4),
    # Two full correlation blocks around a perfectly correlated one.
    "random": lambda: helpers.random_market_spec(np.random.default_rng(9)),
    "market-like": lambda: helpers.market_like_spec(np.random.default_rng(5)),
}


@pytest.mark.parametrize("build", DRAWN_MARKETS.values(), ids=DRAWN_MARKETS)
class TestDecomposedOnce:
    def test_only_the_first_draw_decomposes_the_sectors(self, build, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "hpca.synth.sym_eig_sorted", lambda m: calls.append(m.shape) or sym_eig_sorted(m)
        )
        spec = build()
        first, _ = generate(spec)
        assert len(calls) == spec.n_sectors + 1
        second, _ = generate(spec)
        # The one later solve is the b x b factor root.
        assert calls[spec.n_sectors + 1 :] == [(spec.n_sectors, spec.n_sectors)]
        assert second.dates is first.dates and second.assets is first.assets
        fresh, _ = generate(build())
        for panel in (second, fresh):
            assert np.array_equal(panel.values.view(np.int64), first.values.view(np.int64))

    def test_population_matrix_after_a_draw_matches_a_fresh_spec(self, build):
        spec = build()
        generate(spec)
        drawn = spec.population_matrix
        assert np.array_equal(drawn.view(np.int64), build().population_matrix.view(np.int64))
        assert spectra_bits(spec) == spectra_bits(build())


class TestEstimatorConsistency:
    def test_fitted_matrix_converges_to_population(self):
        # Mean max-norm error against the population matrix must fall as the
        # sample grows; 10 seeds at each horizon average out sampling noise.
        population = default_market_spec().population_matrix
        mean_errors = []
        for t in (500, 5000, 50000):
            spec = default_market_spec(n_periods=t)
            errors = []
            for seed in range(10):
                panel, _ = generate(spec, seed=seed)
                model = fit_hpca(standardize(panel), spec.partition)
                errors.append(np.abs(model.matrix - population).max())
            mean_errors.append(float(np.mean(errors)))
        assert mean_errors[0] > mean_errors[1] > mean_errors[2]

    def test_cross_sector_residuals_statistically_zero(self):
        rng = np.random.default_rng(7)
        spec = MarketSpec(
            sectors=tuple(
                SectorSpec(name=f"s{k}", size=10, equicorrelation=0.4)
                for k in range(4)
            ),
            factor_correlation=helpers.random_correlation(rng, 4),
            n_periods=2000,
            seed=8,
        )
        panel, truth = generate(spec)
        std = standardize(panel)
        model = fit_hpca(std, truth.partition)
        eps = np.empty_like(std.values)
        for k, sector in enumerate(model.sector_models):
            members = model.partition.members(k)
            eps[:, members] = std.values[:, members] - np.outer(
                sector.factor, sector.betas
            )
        eps = (eps - eps.mean(axis=0)) / eps.std(axis=0, ddof=1)
        corr = eps.T @ eps / (std.n_periods - 1)
        cross = truth.partition.assignment[:, None] != truth.partition.assignment[None, :]
        pairs = np.abs(corr[np.triu(cross, 1)])
        bound = 4.0 / np.sqrt(std.n_periods)
        assert (pairs <= bound).mean() >= 0.95
