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

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .eigen import Spectrum, _as_numbers, _signs, _whole, sym_eig_sorted
from .errors import InputError, NumericalError
from .panel import StandardizedPanel, _gram_correlation
from .sectors import SectorModel, SectorPartition, fit_all_sectors
from .textio import MODEL_FILENAME, _dump_json, _write_rows

MULTI_SECTOR = "multi-sector"
SECTOR = "sector"

VECTORS_FILENAME = "eigenvectors.csv"


def _inter_sector_corr(factors: np.ndarray) -> np.ndarray:
    """The b x b correlation of T x b unit-variance sector factors, exactly 1 on the diagonal."""
    centered = factors - factors.mean(axis=0)
    norms = np.sqrt((centered * centered).sum(axis=0))
    return _gram_correlation(centered / norms, 1.0)


def _assemble_hpca_matrix(
    partition: SectorPartition,
    block_correlations: Sequence[np.ndarray],
    block_betas: Sequence[np.ndarray],
    factor_corr: np.ndarray,
) -> np.ndarray:
    """Assemble the hierarchical matrix from per-sector blocks.

    Within-sector entries are copied from ``block_correlations`` unchanged;
    cross-sector entries are ``beta_i * beta_j * factor_corr[k, l]``.
    """
    members = [partition.members(k) for k in range(partition.n_sectors)]
    beta = np.empty(partition.n_assets)
    for m, betas in zip(members, block_betas):
        beta[m] = betas
    sec = partition.assignment
    matrix = np.outer(beta, beta) * factor_corr[np.ix_(sec, sec)]
    for m, block in zip(members, block_correlations):
        matrix[np.ix_(m, m)] = block
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


def _build_factor_cov(lam1: Sequence[float], factor_corr: np.ndarray) -> FactorCovariance:
    """Build the scaled-factor covariance matrix and decompose it."""
    scale = np.sqrt(lam1)
    values = np.outer(scale, scale) * factor_corr
    np.fill_diagonal(values, lam1)
    spectrum = sym_eig_sorted(values)
    return FactorCovariance(
        eigenvalues=spectrum.eigenvalues, eigenvectors=spectrum.eigenvectors, values=values
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


@dataclass(frozen=True)
class LabeledSpectrum(Spectrum):
    """Spectrum of the hierarchical matrix with asset names and one label per entry."""

    assets: tuple[str, ...]
    labels: tuple[SpectrumLabel, ...]


def _assemble_spectrum(
    partition: SectorPartition,
    sector_spectra: Sequence[Spectrum],
    mixing: FactorCovariance,
    assets: Sequence[str],
) -> tuple[LabeledSpectrum, FactorCovariance]:
    """Assemble the full labeled spectrum analytically.

    ``mixing`` is the spectrum of the b x b scaled-factor covariance. The b
    multi-sector eigenvectors are mixtures of the embedded leading sector
    eigenvectors with its eigenvector weights; all higher-order sector
    eigenpairs embed unchanged. Entries are merged in decreasing eigenvalue
    order, multi-sector first on exact ties, then by sector and order within
    the sector.

    Each multi-sector vector takes ``sym_eig_sorted``'s sign rule, read from
    its entry sum ``sum_k m_k sum(v_1k)`` in b-space. The mixing comes back
    beside the spectrum with the same columns negated, so that each
    multi-sector vector is still the embedded leading vectors times its column.
    """
    b = partition.n_sectors
    n = partition.n_assets
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
    multi = leading @ mixing.eigenvectors
    leading_sums = np.array([spec.eigenvectors[:, 0].sum() for spec in sector_spectra])
    signs = _signs(leading_sums @ mixing.eigenvectors, multi)
    vectors[:, column[:b]] = multi * signs
    mixing = replace(mixing, eigenvectors=mixing.eigenvectors * signs)
    mixing.eigenvectors.setflags(write=False)

    labels = [SpectrumLabel(kind=MULTI_SECTOR, rank=r + 1) for r in range(b)] + [
        SpectrumLabel(kind=SECTOR, sector=partition.labels[k], order=j + 1)
        for k, j in zip(sector.tolist(), order.tolist())
    ]
    spectrum = LabeledSpectrum(
        assets=tuple(assets),
        eigenvalues=values[rank],
        eigenvectors=vectors,
        labels=tuple(labels[i] for i in rank),
    )
    return spectrum, mixing


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
        return _assemble_hpca_matrix(
            self.partition,
            [m.correlation for m in self.sector_models],
            [m.betas for m in self.sector_models],
            self.factor_corr,
        )


def fit_hpca(panel: StandardizedPanel, partition: SectorPartition) -> HpcaModel:
    """Fit the full hierarchical model on a standardized panel.

    This is the one way in: the private steps it calls take only parts built
    from the checked panel and partition, so they check nothing again.
    """
    models = fit_all_sectors(panel, partition)
    rho = _inter_sector_corr(np.column_stack([m.factor for m in models]))
    factor_cov = _build_factor_cov([m.eigenvalues[0] for m in models], rho)
    spectrum, factor_cov = _assemble_spectrum(partition, models, factor_cov, panel.assets)
    return HpcaModel(
        partition=partition,
        sector_models=models,
        factor_corr=rho,
        factor_cov=factor_cov,
        spectrum=spectrum,
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


def save_model(
    model: HpcaModel,
    directory: str | Path,
    include_matrix: bool = False,
    vectors: int = 0,
) -> Path:
    """Write a fitted model to a directory and return the path of its ``model.json``.

    That file holds the sector eigensystems and betas, the factor correlation,
    the scaled factor covariance and its eigensystem, and the labeled spectrum;
    the dense matrix only on request. ``eigenvectors.csv`` holds the top
    ``vectors`` eigenvectors, one row per asset, for a count above 0. The count
    is checked first, so a refused call writes nothing.
    """
    spectrum = model.spectrum
    table = spectrum.vectors(vectors)
    doc = {
        "assets": list(spectrum.assets),
        "sectors": list(model.partition.labels),
        "assignment": model.partition.assignment.tolist(),
        "factor_correlation": model.factor_corr.tolist(),
        "factor_covariance": model.factor_cov.values.tolist(),
        "multi_sector_eigenvalues": model.factor_cov.eigenvalues.tolist(),
        "factor_cov_eigenvectors": model.factor_cov.eigenvectors.tolist(),
        "spectrum": [
            # Without its None fields a label is ``kind, rank`` or ``kind, sector, order``.
            {"eigenvalue": float(v), "label": lab.describe(),
             **{k: x for k, x in vars(lab).items() if x is not None}}
            for v, lab in zip(spectrum.eigenvalues, spectrum.labels)
        ],
        "sector_models": [
            {
                "label": label,
                "assets": [spectrum.assets[i] for i in model.partition.members(k)],
                "eigenvalues": m.eigenvalues.tolist(),
                "eigenvectors": m.eigenvectors.tolist(),
                "betas": m.betas.tolist(),
            }
            for k, (label, m) in enumerate(zip(model.partition.labels, model.sector_models))
        ],
    }
    if include_matrix:
        doc["matrix"] = model.matrix.tolist()
    path = Path(directory) / MODEL_FILENAME
    path.parent.mkdir(parents=True, exist_ok=True)
    _dump_json(doc, path)
    if table.shape[1]:
        header = ["asset"] + [f"EV{r + 1}" for r in range(table.shape[1])]
        rows = ([a, *row] for a, row in zip(spectrum.assets, table.tolist()))
        _write_rows(path.with_name(VECTORS_FILENAME), header, rows)
    return path
