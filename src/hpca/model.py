"""Hierarchical correlation model: block assembly and its closed-form spectrum.

The hierarchical matrix keeps each sector's empirical correlations intact
and replaces every cross-sector entry ``(i, j)`` with
``beta_i * beta_j * rho_kl``, where ``rho_kl`` is the correlation between
the two sectors' leading eigenportfolio factors. Its full eigensystem never
requires a dense n x n solve: b "multi-sector" eigenpairs come from a small
b x b matrix, and every remaining eigenpair is a zero-padded higher-order
sector eigenvector carried over unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .eigen import Spectrum, _as_numbers, _whole, sym_eig_sorted
from .errors import InputError, NumericalError
from .panel import StandardizedPanel, _gram_correlation
from .sectors import SectorModel, SectorPartition, fit_all_sectors
# ``load_model_dict`` lives with the numpy-free helpers, for ``hpca spectrum``.
from .textio import MODEL_FILENAME, _dump_json, _write_rows, load_model_dict

MULTI_SECTOR = "multi-sector"
SECTOR = "sector"

VECTORS_FILENAME = "eigenvectors.csv"


def inter_sector_corr(factors: np.ndarray) -> np.ndarray:
    """Empirical correlation matrix of the sector factor series.

    Args:
        factors: T x b matrix, one unit-variance factor series per column.

    Returns:
        b x b symmetric correlation matrix with an exact unit diagonal.
    """
    f = _as_numbers(factors, "factor matrix")
    if f.ndim != 2 or f.shape[0] < 2:
        raise InputError(f"factor matrix must be T x b with T >= 2, got {f.shape}")
    centered = f - f.mean(axis=0)
    norms = np.sqrt((centered * centered).sum(axis=0))
    if (norms <= 0.0).any():
        raise NumericalError("zero-variance factor series")
    return _gram_correlation(centered / norms, 1.0)


def assemble_hpca_matrix(
    partition: SectorPartition,
    block_correlations: Sequence[np.ndarray],
    block_betas: Sequence[np.ndarray],
    factor_corr: np.ndarray,
) -> np.ndarray:
    """Assemble the hierarchical matrix from per-sector blocks.

    Within-sector entries are copied from ``block_correlations`` unchanged;
    cross-sector entries are ``beta_i * beta_j * factor_corr[k, l]``.
    """
    b = partition.n_sectors
    if len(block_correlations) != b or len(block_betas) != b:
        raise InputError("need one correlation block and one beta vector per sector")
    factor_corr = _as_numbers(factor_corr, "factor correlation")
    if factor_corr.shape != (b, b):
        raise InputError(
            f"factor correlation must be {b} x {b}, got {factor_corr.shape}"
        )
    n = partition.n_assets
    beta = np.empty(n)
    for k in range(b):
        members = partition.members(k)
        sector_beta = _as_numbers(block_betas[k], f"beta vector for sector {k}")
        if sector_beta.shape != (members.size,):
            raise InputError(f"beta vector for sector {k} has the wrong length")
        beta[members] = sector_beta
    sec = partition.assignment
    matrix = np.outer(beta, beta) * factor_corr[np.ix_(sec, sec)]
    for k in range(b):
        members = partition.members(k)
        block = _as_numbers(block_correlations[k], f"correlation block for sector {k}")
        if block.shape != (members.size, members.size):
            raise InputError(f"correlation block for sector {k} has the wrong shape")
        matrix[np.ix_(members, members)] = block
    return matrix


@dataclass(frozen=True)
class FactorCovariance(Spectrum):
    """Covariance of the scaled sector factors: its spectrum plus the matrix.

    Entry ``(k, l)`` is ``sqrt(lambda_1_k) * sqrt(lambda_1_l) * rho_kl``;
    the diagonal holds each sector's leading eigenvalue exactly. The
    eigenvalues of this b x b matrix are the multi-sector eigenvalues of the
    hierarchical matrix, and its eigenvectors give the mixing weights that
    turn embedded leading sector eigenvectors into multi-sector eigenvectors.
    """

    values: np.ndarray


def build_factor_cov(
    leading_eigenvalues: Sequence[float] | np.ndarray, factor_corr: np.ndarray
) -> FactorCovariance:
    """Build the scaled-factor covariance matrix and decompose it."""
    lam1 = _as_numbers(leading_eigenvalues, "leading eigenvalues")
    factor_corr = _as_numbers(factor_corr, "factor correlation")
    if lam1.ndim != 1 or factor_corr.shape != (lam1.size, lam1.size):
        raise InputError("need one leading eigenvalue per sector")
    if (lam1 <= 0.0).any():
        raise NumericalError("non-positive leading sector eigenvalue")
    scale = np.sqrt(lam1)
    values = np.outer(scale, scale) * factor_corr
    np.fill_diagonal(values, lam1)
    spectrum = sym_eig_sorted(values)
    return FactorCovariance(
        values=values,
        eigenvalues=spectrum.eigenvalues,
        eigenvectors=spectrum.eigenvectors,
    )


@dataclass(frozen=True)
class SpectrumLabel:
    """Provenance of one eigenpair of the hierarchical matrix.

    Multi-sector entries carry their 1-based ``rank`` among the b
    multi-sector eigenvalues; sector entries carry the sector label and the
    eigenvalue's ``order`` (2-based) inside that sector's own spectrum.
    """

    kind: str
    rank: int | None = None
    sector: str | None = None
    order: int | None = None

    def describe(self) -> str:
        if self.kind == MULTI_SECTOR:
            return "Multi-sector"
        return str(self.sector)

    def to_dict(self) -> dict:
        if self.kind == MULTI_SECTOR:
            return {"kind": self.kind, "rank": self.rank}
        return {"kind": self.kind, "sector": self.sector, "order": self.order}


@dataclass(frozen=True)
class LabeledSpectrum(Spectrum):
    """Spectrum of the hierarchical matrix with asset names and one label per entry."""

    assets: tuple[str, ...]
    labels: tuple[SpectrumLabel, ...]


def assemble_spectrum(
    partition: SectorPartition,
    sector_spectra: Sequence[Spectrum],
    mixing: Spectrum,
    assets: Sequence[str],
) -> LabeledSpectrum:
    """Assemble the full labeled spectrum analytically.

    ``mixing`` is the spectrum of the b x b scaled-factor covariance. The b
    multi-sector eigenvectors are mixtures of the embedded leading sector
    eigenvectors with its eigenvector weights; all higher-order sector
    eigenpairs embed unchanged. Entries are merged in decreasing eigenvalue
    order, multi-sector first on exact ties, then by sector and order within
    the sector.
    """
    b = partition.n_sectors
    n = partition.n_assets
    if len(sector_spectra) != b:
        raise InputError("need one spectrum per sector")
    if mixing.size != b:
        raise InputError("factor covariance size does not match sector count")

    # Entries 0..b-1 are multi-sector; then each sector's orders 2..s_k. That
    # layout is already the tie order, so a stable sort keeps it on ties.
    sizes = partition.sizes
    sector = np.repeat(np.arange(b), sizes - 1)
    order = np.concatenate([np.arange(1, s) for s in sizes])
    values = np.concatenate(
        [mixing.eigenvalues] + [spec.eigenvalues[1:] for spec in sector_spectra]
    )
    rank = np.argsort(-values, kind="stable")
    column = np.empty(n, dtype=int)
    column[rank] = np.arange(n)

    leading = np.zeros((n, b))
    vectors = np.zeros((n, n))
    for k, spec in enumerate(sector_spectra):
        members = partition.members(k)
        leading[members, k] = spec.eigenvectors[:, 0]
        vectors[np.ix_(members, column[b:][sector == k])] = spec.eigenvectors[:, 1:]
    vectors[:, column[:b]] = leading @ mixing.eigenvectors

    labels = [SpectrumLabel(kind=MULTI_SECTOR, rank=r + 1) for r in range(b)] + [
        SpectrumLabel(kind=SECTOR, sector=partition.labels[k], order=j + 1)
        for k, j in zip(sector.tolist(), order.tolist())
    ]
    return LabeledSpectrum(
        assets=tuple(assets),
        eigenvalues=values[rank],
        eigenvectors=vectors,
        labels=tuple(labels[i] for i in rank),
    )


@dataclass
class HpcaModel:
    """Fitted hierarchical model over one panel."""

    partition: SectorPartition
    sector_models: tuple[SectorModel, ...]
    factor_corr: np.ndarray
    factor_cov: FactorCovariance
    spectrum: LabeledSpectrum

    @property
    def n_assets(self) -> int:
        return self.partition.n_assets

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n hierarchical matrix, assembled anew on each access."""
        return assemble_hpca_matrix(
            self.partition,
            [m.correlation for m in self.sector_models],
            [m.betas for m in self.sector_models],
            self.factor_corr,
        )


def fit_hpca(panel: StandardizedPanel, partition: SectorPartition) -> HpcaModel:
    """Fit the full hierarchical model on a standardized panel."""
    models = fit_all_sectors(panel, partition)
    rho = inter_sector_corr(np.column_stack([m.factor for m in models]))
    factor_cov = build_factor_cov([m.eigenvalues[0] for m in models], rho)
    return HpcaModel(
        partition=partition,
        sector_models=models,
        factor_corr=rho,
        factor_cov=factor_cov,
        spectrum=assemble_spectrum(partition, models, factor_cov, panel.assets),
    )


def eigenportfolio_series(
    values: np.ndarray,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    count: int,
) -> np.ndarray:
    """Realize the top ``count`` eigenportfolios as return series.

    Column ``k`` is ``X @ v_k / sqrt(lambda_k)`` over the standardized panel
    values ``X``, which gives unit sample variance when ``v_k`` is an
    eigenvector of the panel's own correlation matrix.
    """
    values = _as_numbers(values, "panel values")
    lam = _as_numbers(eigenvalues, "eigenvalues")
    vectors = _as_numbers(eigenvectors, "eigenvectors")
    if values.ndim != 2:
        raise InputError(f"panel values must be 2-d, got shape {values.shape}")
    n, count = values.shape[1], _whole(count, "count")
    if not 0 <= count <= n:
        raise InputError(f"factor count {count} out of range [0, {n}]")
    if lam.ndim != 1 or lam.size < count:
        raise InputError(
            f"eigenvalues must be 1-d with at least {count} values, got shape {lam.shape}"
        )
    if vectors.ndim != 2 or vectors.shape[0] != n or vectors.shape[1] < count:
        raise InputError(
            f"eigenvectors must be {n} x at least {count}, got shape {vectors.shape}"
        )
    lam = lam[:count]
    if (lam <= 1e-12).any():
        raise NumericalError(
            "cannot realize eigenportfolios for non-positive eigenvalues"
        )
    return values @ vectors[:, :count] / np.sqrt(lam)


def model_to_dict(model: HpcaModel, include_matrix: bool = False) -> dict:
    """Serialize a fitted model to plain JSON-compatible types.

    Per-sector eigensystems, betas, the factor correlation, the scaled
    factor covariance and its eigensystem, and the labeled eigenvalue list
    are always included; the dense hierarchical matrix only on request.
    """
    doc = {
        "assets": list(model.spectrum.assets),
        "sectors": list(model.partition.labels),
        "assignment": model.partition.assignment.tolist(),
        "factor_correlation": model.factor_corr.tolist(),
        "factor_covariance": model.factor_cov.values.tolist(),
        "multi_sector_eigenvalues": model.factor_cov.eigenvalues.tolist(),
        "factor_cov_eigenvectors": model.factor_cov.eigenvectors.tolist(),
        "spectrum": [
            {"eigenvalue": float(v), "label": lab.describe(), **lab.to_dict()}
            for v, lab in zip(model.spectrum.eigenvalues, model.spectrum.labels)
        ],
        "sector_models": [
            {
                "label": label,
                "assets": [model.spectrum.assets[i] for i in m.members],
                "eigenvalues": m.eigenvalues.tolist(),
                "eigenvectors": m.eigenvectors.tolist(),
                "betas": m.betas.tolist(),
            }
            for label, m in zip(model.partition.labels, model.sector_models)
        ],
    }
    if include_matrix:
        doc["matrix"] = model.matrix.tolist()
    return doc


def save_model(
    model: HpcaModel,
    directory: str | Path,
    include_matrix: bool = False,
    vectors: int = 0,
) -> Path:
    """Write ``model.json`` (and optionally an eigenvector table) to a directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MODEL_FILENAME
    _dump_json(model_to_dict(model, include_matrix=include_matrix), path)
    if vectors > 0:
        write_eigenvector_table(model.spectrum, directory / VECTORS_FILENAME, vectors)
    return path


def write_eigenvector_table(spectrum: LabeledSpectrum, dest: str | Path, count: int) -> None:
    """Write the top ``count`` eigenvectors as comma-delimited text.

    One row per asset, one column per eigenvector, full-precision values.
    """
    vectors = spectrum.vectors(count)
    header = ["asset"] + [f"EV{r + 1}" for r in range(vectors.shape[1])]
    rows = ([a, *row] for a, row in zip(spectrum.assets, vectors.tolist()))
    _write_rows(dest, header, rows)
