"""Synthetic market generator with known hierarchical ground truth.

Panels are drawn from a jointly Gaussian distribution whose population
correlation matrix is assembled exactly like the fitted hierarchical
matrix: empirical-style blocks within sectors, scaled-beta products across
sectors. Sampling works from that structure, a root of each sector block
plus a b x b factor root, so no n x n matrix is formed or decomposed; the
population matrix is assembled on access, as the tests' exact oracle.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .eigen import Spectrum, sym_eig_sorted
from .errors import InputError
from .model import assemble_hpca_matrix
from .panel import ReturnsPanel, _text_stream
from .sectors import SectorPartition, _leading_betas

PSD_TOL = -1e-10

# Sector sizes of a GICS-like 11-sector large-cap universe (n = 462).
DEFAULT_SECTORS = (
    ("Consumer Discretionary", 73),
    ("Consumer Staples", 56),
    ("Energy", 27),
    ("Financials", 59),
    ("Health Care", 51),
    ("Industrials", 57),
    ("Information Technology", 58),
    ("Materials", 23),
    ("Real Estate", 27),
    ("Telecommunication Services", 3),
    ("Utilities", 28),
)
DEFAULT_INTRA = (0.35, 0.30, 0.45, 0.40, 0.30, 0.35, 0.35, 0.40, 0.35, 0.50, 0.45)


def _check_correlation(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{what} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InputError(f"{what} contains non-finite entries")
    if np.abs(m - m.T).max() > 1e-10:
        raise InputError(f"{what} is not symmetric")
    if np.abs(np.diag(m) - 1.0).max() > 1e-10:
        raise InputError(f"{what} diagonal is not 1")
    if float(np.linalg.eigvalsh(0.5 * (m + m.T)).min()) < PSD_TOL:
        raise InputError(f"{what} is not positive semi-definite")
    return m


@dataclass(frozen=True)
class SectorSpec:
    """One sector's size and intra-block correlation structure.

    Either ``equicorrelation`` (a single off-diagonal level) or a full
    ``correlation`` matrix must be given; a singleton sector may omit both.
    """

    name: str
    size: int
    equicorrelation: float | None = None
    correlation: np.ndarray | None = None

    def block_correlation(self) -> np.ndarray:
        if self.size < 1:
            raise InputError(f"sector {self.name!r} has size {self.size}")
        if self.correlation is not None:
            m = _check_correlation(
                self.correlation, f"sector {self.name!r} correlation"
            )
            if m.shape != (self.size, self.size):
                raise InputError(
                    f"sector {self.name!r} correlation shape {m.shape} "
                    f"does not match size {self.size}"
                )
            return m
        rho = 0.0 if self.equicorrelation is None else float(self.equicorrelation)
        if self.size > 1 and not -1.0 / (self.size - 1) <= rho <= 1.0:
            raise InputError(
                f"equicorrelation {rho} invalid for sector of size {self.size}"
            )
        block = np.full((self.size, self.size), rho)
        np.fill_diagonal(block, 1.0)
        return block


@dataclass(frozen=True)
class MarketSpec:
    """Full description of a synthetic market.

    ``factor_correlation`` is the population correlation matrix of the
    sectors' leading factors; ``n_periods`` the number of sampled dates.
    """

    sectors: tuple[SectorSpec, ...]
    factor_correlation: np.ndarray
    n_periods: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.sectors:
            raise InputError("market spec needs at least one sector")
        names = [s.name for s in self.sectors]
        if len(set(names)) != len(names):
            raise InputError("sector names must be unique")
        fc = _check_correlation(self.factor_correlation, "factor correlation")
        if fc.shape != (len(self.sectors), len(self.sectors)):
            raise InputError(
                f"factor correlation shape {fc.shape} does not match "
                f"{len(self.sectors)} sectors"
            )
        object.__setattr__(self, "factor_correlation", fc)
        if self.n_periods < 2:
            raise InputError("n_periods must be at least 2")
        for s in self.sectors:
            s.block_correlation()

    @property
    def n_assets(self) -> int:
        return sum(s.size for s in self.sectors)

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)


@dataclass
class GroundTruth:
    """Population quantities behind a generated panel."""

    partition: SectorPartition
    factor_correlation: np.ndarray
    sector_correlations: tuple[np.ndarray, ...]
    sector_spectra: tuple[Spectrum, ...]

    @property
    def population_matrix(self) -> np.ndarray:
        """The dense n x n hierarchical matrix, assembled anew on each access."""
        return assemble_hpca_matrix(
            self.partition,
            self.sector_correlations,
            [_leading_betas(sp) for sp in self.sector_spectra],
            self.factor_correlation,
        )


def _asset_names(spec: MarketSpec) -> tuple[str, ...]:
    return tuple(
        f"S{k + 1:02d}A{j + 1:03d}"
        for k, s in enumerate(spec.sectors)
        for j in range(s.size)
    )


def _date_labels(count: int) -> tuple[str, ...]:
    start = datetime.date(2000, 1, 3)
    return tuple((start + datetime.timedelta(days=i)).isoformat() for i in range(count))


def ground_truth(spec: MarketSpec) -> GroundTruth:
    """Population partition, blocks and their spectra for a spec."""
    blocks = tuple(s.block_correlation() for s in spec.sectors)
    return GroundTruth(
        partition=SectorPartition.from_mapping(_asset_names(spec), sector_map_for(spec)),
        factor_correlation=spec.factor_correlation,
        sector_correlations=blocks,
        sector_spectra=tuple(sym_eig_sorted(block) for block in blocks),
    )


def _root(spectrum: Spectrum) -> np.ndarray:
    """``V sqrt(clip(L, 0))``: a square root ``R`` with ``R R^T`` the matrix."""
    return spectrum.eigenvectors * np.sqrt(np.clip(spectrum.eigenvalues, 0.0, None))


def _correlate(truth: GroundTruth, shocks: np.ndarray) -> np.ndarray:
    """Map T x n standard normal shocks to draws with the population correlation.

    Each sector's first column of ``shocks`` is overwritten with its factor
    (mixed by the factor root); each contiguous sector block is then
    multiplied by its sector root, whose first column is the beta vector.
    """
    starts = np.cumsum(truth.partition.sizes) - truth.partition.sizes
    factor_root = _root(sym_eig_sorted(truth.factor_correlation))
    shocks[:, starts] = shocks[:, starts] @ factor_root.T
    out = np.empty(shocks.shape)
    for start, spectrum in zip(starts.tolist(), truth.sector_spectra):
        block = slice(start, start + spectrum.size)
        np.matmul(shocks[:, block], _root(spectrum).T, out=out[:, block])
    return out


def generate(spec: MarketSpec, seed: int | None = None) -> tuple[ReturnsPanel, GroundTruth]:
    """Draw a Gaussian panel whose population correlation is the spec's matrix.

    Deterministic for a given (spec, seed); ``seed`` defaults to the spec's
    own seed field and must be non-negative.
    """
    seed = spec.seed if seed is None else seed
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    truth = ground_truth(spec)
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal((spec.n_periods, spec.n_assets))
    panel = ReturnsPanel(
        dates=_date_labels(spec.n_periods),
        assets=_asset_names(spec),
        values=_correlate(truth, shocks),
    )
    return panel, truth


def sector_map_for(spec: MarketSpec) -> dict[str, str]:
    """Asset -> sector mapping matching the generated panel's asset names."""
    sectors = (s.name for s in spec.sectors for _ in range(s.size))
    return dict(zip(_asset_names(spec), sectors))


def default_market_spec(n_periods: int = 1508, seed: int = 0) -> MarketSpec:
    """An 11-sector, 462-asset market with positively correlated sectors.

    Sector factor correlations follow a one-factor pattern ``c_k * c_l``
    with loadings rising from 0.55 to 0.85, so every pair is distinct and
    the matrix is positive definite by construction.
    """
    b = len(DEFAULT_SECTORS)
    loadings = 0.55 + 0.3 * np.arange(b) / (b - 1)
    factor_corr = np.outer(loadings, loadings)
    np.fill_diagonal(factor_corr, 1.0)
    sectors = tuple(
        SectorSpec(name=name, size=size, equicorrelation=rho)
        for (name, size), rho in zip(DEFAULT_SECTORS, DEFAULT_INTRA)
    )
    return MarketSpec(
        sectors=sectors,
        factor_correlation=factor_corr,
        n_periods=n_periods,
        seed=seed,
    )


def market_spec_to_dict(spec: MarketSpec) -> dict:
    doc: dict = {
        "n_periods": spec.n_periods,
        "seed": spec.seed,
        "factor_correlation": spec.factor_correlation.tolist(),
        "sectors": [],
    }
    for s in spec.sectors:
        entry: dict = {"name": s.name, "size": s.size}
        if s.correlation is not None:
            entry["correlation"] = np.asarray(s.correlation).tolist()
        elif s.equicorrelation is not None:
            entry["equicorrelation"] = s.equicorrelation
        doc["sectors"].append(entry)
    return doc


def _whole(value, what: str) -> int:
    """``int(value)``, refusing booleans and numbers with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InputError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def market_spec_from_dict(doc: dict) -> MarketSpec:
    try:
        sectors = tuple(
            SectorSpec(
                name=entry["name"],
                size=_whole(entry["size"], f"sector {entry['name']!r} size"),
                equicorrelation=entry.get("equicorrelation"),
                correlation=(
                    np.asarray(entry["correlation"], dtype=float)
                    if "correlation" in entry
                    else None
                ),
            )
            for entry in doc["sectors"]
        )
        return MarketSpec(
            sectors=sectors,
            factor_correlation=np.asarray(doc["factor_correlation"], dtype=float),
            n_periods=_whole(doc["n_periods"], "n_periods"),
            seed=_whole(doc.get("seed", 0), "seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed market spec: {exc}") from exc


def load_market_spec(path: str | Path) -> MarketSpec:
    """Read a market spec from a JSON document."""
    with _text_stream(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"market spec is not valid JSON: {exc}") from exc
    return market_spec_from_dict(doc)


def save_market_spec(spec: MarketSpec, path: str | Path) -> None:
    """Write a market spec as JSON (inverse of :func:`load_market_spec`)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(market_spec_to_dict(spec), fh, indent=1)
        fh.write("\n")
