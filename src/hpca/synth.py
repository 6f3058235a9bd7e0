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
import functools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .eigen import SYMMETRY_TOL, Spectrum, _as_numbers, _checked_correlation, _whole, sym_eig_sorted
from .errors import InputError
from .model import _assemble_hpca_matrix
from .panel import ReturnsPanel
from .sectors import SectorPartition, _leading_betas
from .textio import _dump_json, _load_json

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
    """A read-only copy of a checked correlation matrix, so what was checked cannot change."""
    m = np.array(_checked_correlation(matrix, what, SYMMETRY_TOL))
    m.setflags(write=False)
    if float(np.linalg.eigvalsh(m).min()) < PSD_TOL:
        raise InputError(f"{what} is not positive semi-definite")
    return m


@dataclass(frozen=True)
class SectorSpec:
    """One sector's size and intra-block correlation structure, checked when built.

    A sector gives a full ``correlation`` matrix or ``equicorrelation``, the
    one off-diagonal level, not both; with neither it is an identity block.
    A given ``correlation`` is kept as a read-only copy of the checked matrix.
    """

    name: str
    size: int
    equicorrelation: float | None = None
    correlation: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise InputError(f"sector name must be a string, got {self.name!r}")
        object.__setattr__(self, "size", _whole(self.size, f"sector {self.name!r} size"))
        if self.size < 1:
            raise InputError(f"sector {self.name!r} has size {self.size}")
        rho = self.equicorrelation
        if rho is not None and (
            isinstance(rho, bool) or not isinstance(rho, numbers.Real) or not math.isfinite(rho)
        ):
            raise InputError(
                f"sector {self.name!r} equicorrelation must be a finite real number, got {rho!r}"
            )
        if self.correlation is not None and rho is not None:
            raise InputError(f"sector {self.name!r} gives both equicorrelation and correlation")
        if self.correlation is not None:
            m = _check_correlation(self.correlation, f"sector {self.name!r} correlation")
            if m.shape != (self.size, self.size):
                raise InputError(
                    f"sector {self.name!r} correlation shape {m.shape} "
                    f"does not match size {self.size}"
                )
            object.__setattr__(self, "correlation", m)
        elif rho is not None and self.size > 1 and not -1.0 / (self.size - 1) <= rho <= 1.0:
            raise InputError(
                f"sector {self.name!r} equicorrelation {rho} invalid for size {self.size}"
            )

    def block_correlation(self) -> np.ndarray:
        if self.correlation is not None:
            return self.correlation
        block = np.full((self.size, self.size), self.equicorrelation or 0.0, dtype=float)
        np.fill_diagonal(block, 1.0)
        return block


@dataclass(frozen=True)
class MarketSpec:
    """Full description of a synthetic market.

    ``factor_correlation`` is the population correlation matrix of the
    sectors' leading factors, kept as a read-only copy of the checked matrix;
    ``n_periods`` the number of sampled dates.
    """

    sectors: tuple[SectorSpec, ...]
    factor_correlation: np.ndarray
    n_periods: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_periods", _whole(self.n_periods, "n_periods"))
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        if not isinstance(self.sectors, (list, tuple)) or not all(
            isinstance(s, SectorSpec) for s in self.sectors
        ):
            raise InputError(f"sectors must be a sequence of SectorSpec, got {self.sectors!r}")
        if not self.sectors:
            raise InputError("market spec needs at least one sector")
        names = [s.name for s in self.sectors]
        if len(set(names)) != len(names):
            raise InputError("sector names must be unique")
        fc = _check_correlation(self.factor_correlation, "factor correlation")
        if fc.shape != (self.n_sectors, self.n_sectors):
            raise InputError(
                f"factor correlation shape {fc.shape} does not match {self.n_sectors} sectors"
            )
        object.__setattr__(self, "factor_correlation", fc)
        if self.n_periods < 2:
            raise InputError("n_periods must be at least 2")

    @property
    def n_assets(self) -> int:
        return sum(s.size for s in self.sectors)

    @property
    def n_sectors(self) -> int:
        return len(self.sectors)

    @property
    def partition(self) -> SectorPartition:
        """Contiguous sectors in spec order, labelled by sector name."""
        return SectorPartition(
            labels=tuple(s.name for s in self.sectors),
            assignment=np.repeat(np.arange(self.n_sectors), [s.size for s in self.sectors]),
        )

    @functools.cached_property
    def sector_spectra(self) -> tuple[Spectrum, ...]:
        """Population spectrum of each sector block, decomposed once per spec.

        The spec keeps read-only copies of the matrices it checked, so the
        decomposition its first access made holds for every later draw.
        """
        return tuple(sym_eig_sorted(s.block_correlation()) for s in self.sectors)

    @functools.cached_property
    def _axes(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The dates and asset names of every panel drawn from the spec, built once."""
        start = datetime.date(2000, 1, 3)
        days = (start + datetime.timedelta(days=i) for i in range(self.n_periods))
        names = (
            f"S{k + 1:02d}A{j + 1:03d}" for k, s in enumerate(self.sectors) for j in range(s.size)
        )
        return tuple(day.isoformat() for day in days), tuple(names)

    @property
    def population_matrix(self) -> np.ndarray:
        """The dense n x n hierarchical matrix, assembled anew on each access."""
        return _assemble_hpca_matrix(
            self.partition,
            [s.block_correlation() for s in self.sectors],
            [_leading_betas(sp) for sp in self.sector_spectra],
            self.factor_correlation,
        )


def _root(spectrum: Spectrum) -> np.ndarray:
    """``V sqrt(clip(L, 0))``: a square root ``R`` with ``R R^T`` the matrix."""
    return spectrum.eigenvectors * np.sqrt(np.clip(spectrum.eigenvalues, 0.0, None))


def _correlate(spec: MarketSpec, shocks: np.ndarray) -> np.ndarray:
    """Map T x n standard normal shocks, in place, to draws with the population correlation.

    Each sector's first column of ``shocks`` is overwritten with its factor
    (mixed by the factor root); each contiguous sector block is then
    multiplied by its sector root, whose first column is the beta vector.
    """
    starts = np.cumsum([0] + [s.size for s in spec.sectors[:-1]])
    factor_root = _root(sym_eig_sorted(spec.factor_correlation))
    shocks[:, starts] = shocks[:, starts] @ factor_root.T
    for start, spectrum in zip(starts.tolist(), spec.sector_spectra):
        block = shocks[:, start : start + spectrum.size]
        # Same bits as ``np.matmul(..., out=block)``, without numpy's copy for the overlap.
        block[...] = block @ _root(spectrum).T
    return shocks


def generate(spec: MarketSpec, seed: int | None = None) -> tuple[ReturnsPanel, MarketSpec]:
    """Draw a Gaussian panel whose population correlation is the spec's matrix.

    Deterministic for a given (spec, seed); ``seed`` defaults to the spec's
    own seed field and must be non-negative. The spec comes back beside the
    panel as its ground truth: ``partition``, ``sector_spectra`` and
    ``population_matrix``.
    """
    seed = spec.seed if seed is None else _whole(seed, "seed")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    shocks = np.random.default_rng(seed).standard_normal((spec.n_periods, spec.n_assets))
    dates, assets = spec._axes
    panel = ReturnsPanel(dates=dates, assets=assets, values=_correlate(spec, shocks))
    return panel, spec


def sector_map_for(spec: MarketSpec) -> dict[str, str]:
    """Asset -> sector mapping matching the generated panel's asset names."""
    sectors = (s.name for s in spec.sectors for _ in range(s.size))
    return dict(zip(spec._axes[1], sectors))


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
            entry["correlation"] = s.correlation.tolist()
        elif s.equicorrelation is not None:
            entry["equicorrelation"] = s.equicorrelation
        doc["sectors"].append(entry)
    return doc


def market_spec_from_dict(doc: dict) -> MarketSpec:
    try:
        sectors = tuple(
            SectorSpec(
                name=entry["name"],
                size=entry["size"],
                equicorrelation=entry.get("equicorrelation"),
                correlation=(
                    _as_numbers(entry["correlation"], f"sector {entry['name']!r} correlation")
                    if "correlation" in entry  # a JSON null is a 0-d NaN array, not an omission
                    else None
                ),
            )
            for entry in doc["sectors"]
        )
        return MarketSpec(
            sectors=sectors,
            factor_correlation=doc["factor_correlation"],
            n_periods=doc["n_periods"],
            seed=doc.get("seed", 0),
        )
    except InputError:
        raise  # a well-formed document with a refused value: the check's own message
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed market spec: {exc}") from exc


def load_market_spec(path: str | Path) -> MarketSpec:
    """Read a market spec from a JSON document."""
    return market_spec_from_dict(_load_json(path, "market spec"))


def save_market_spec(spec: MarketSpec, path: str | Path) -> None:
    """Write a market spec as JSON (inverse of :func:`load_market_spec`)."""
    _dump_json(market_spec_to_dict(spec), path)
