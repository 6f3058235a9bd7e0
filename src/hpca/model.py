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

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .eigen import Spectrum, sym_eig_sorted
from .errors import InputError, NumericalError
from .panel import StandardizedPanel, _gram_correlation, _text_stream, _write_rows
from .sectors import SectorModel, SectorPartition, factor_panel, fit_all_sectors

MULTI_SECTOR = "multi-sector"
SECTOR = "sector"

MODEL_FILENAME = "model.json"
VECTORS_FILENAME = "eigenvectors.csv"


def inter_sector_corr(factors: np.ndarray) -> np.ndarray:
    """Empirical correlation matrix of the sector factor series.

    Args:
        factors: T x b matrix, one unit-variance factor series per column.

    Returns:
        b x b symmetric correlation matrix with an exact unit diagonal.
    """
    f = np.asarray(factors, dtype=float)
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
    factor_corr = np.asarray(factor_corr, dtype=float)
    if factor_corr.shape != (b, b):
        raise InputError(
            f"factor correlation must be {b} x {b}, got {factor_corr.shape}"
        )
    n = partition.n_assets
    beta = np.empty(n)
    for k in range(b):
        members = partition.members(k)
        if block_betas[k].shape != (members.size,):
            raise InputError(f"beta vector for sector {k} has the wrong length")
        beta[members] = block_betas[k]
    sec = partition.assignment
    matrix = np.outer(beta, beta) * factor_corr[np.ix_(sec, sec)]
    for k in range(b):
        members = partition.members(k)
        if block_correlations[k].shape != (members.size, members.size):
            raise InputError(f"correlation block for sector {k} has the wrong shape")
        matrix[np.ix_(members, members)] = block_correlations[k]
    return matrix


@dataclass(frozen=True)
class FactorCovariance:
    """Covariance of the scaled sector factors, with its spectrum.

    Entry ``(k, l)`` is ``sqrt(lambda_1_k) * sqrt(lambda_1_l) * rho_kl``;
    the diagonal holds each sector's leading eigenvalue exactly. The
    eigenvalues of this b x b matrix are the multi-sector eigenvalues of the
    hierarchical matrix, and its eigenvectors give the mixing weights that
    turn embedded leading sector eigenvectors into multi-sector eigenvectors.
    """

    values: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n_sectors(self) -> int:
        return self.values.shape[0]


def build_factor_cov(
    leading_eigenvalues: Sequence[float] | np.ndarray, factor_corr: np.ndarray
) -> FactorCovariance:
    """Build the scaled-factor covariance matrix and decompose it."""
    lam1 = np.asarray(leading_eigenvalues, dtype=float)
    factor_corr = np.asarray(factor_corr, dtype=float)
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


@dataclass
class LabeledSpectrum:
    """Eigenvalues of the hierarchical matrix, sorted descending, with labels."""

    assets: tuple[str, ...]
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    labels: tuple[SpectrumLabel, ...]

    def __post_init__(self) -> None:
        n = len(self.assets)
        if self.eigenvalues.shape != (n,) or self.eigenvectors.shape != (n, n):
            raise InputError("spectrum arrays do not match the asset count")
        if len(self.labels) != n:
            raise InputError("need one label per eigenvalue")

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


def assemble_spectrum(
    partition: SectorPartition,
    sector_spectra: Sequence[Spectrum | SectorModel],
    factor_cov: FactorCovariance,
    assets: Sequence[str],
) -> LabeledSpectrum:
    """Assemble the full labeled spectrum analytically.

    The b multi-sector eigenvectors are mixtures of the embedded leading
    sector eigenvectors with the factor-covariance eigenvector weights; all
    higher-order sector eigenpairs embed unchanged. Entries are merged in
    decreasing eigenvalue order, multi-sector first on exact ties, then by
    sector and order within the sector.
    """
    b = partition.n_sectors
    n = partition.n_assets
    if len(sector_spectra) != b:
        raise InputError("need one spectrum per sector")
    if factor_cov.n_sectors != b:
        raise InputError("factor covariance size does not match sector count")

    # Entries 0..b-1 are multi-sector; then each sector's orders 2..s_k.
    sizes = partition.sizes
    kind = np.repeat([0, 1], [b, n - b])
    sector = np.concatenate([np.arange(b), np.repeat(np.arange(b), sizes - 1)])
    order = np.concatenate([np.zeros(b, dtype=int)] + [np.arange(1, s) for s in sizes])
    values = np.concatenate(
        [factor_cov.eigenvalues] + [spec.eigenvalues[1:] for spec in sector_spectra]
    )
    rank = np.lexsort((order, sector, kind, -values))
    column = np.empty(n, dtype=int)
    column[rank] = np.arange(n)

    leading = np.zeros((n, b))
    vectors = np.zeros((n, n))
    for k, spec in enumerate(sector_spectra):
        members = partition.members(k)
        leading[members, k] = spec.eigenvectors[:, 0]
        cols = column[(sector == k) & (kind == 1)]
        vectors[np.ix_(members, cols)] = spec.eigenvectors[:, 1:]
    vectors[:, column[:b]] = leading @ factor_cov.eigenvectors

    labels = [SpectrumLabel(kind=MULTI_SECTOR, rank=r + 1) for r in range(b)] + [
        SpectrumLabel(kind=SECTOR, sector=partition.labels[k], order=j + 1)
        for k, j in zip(sector[b:].tolist(), order[b:].tolist())
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

    assets: tuple[str, ...]
    partition: SectorPartition
    sector_models: tuple[SectorModel, ...]
    factor_corr: np.ndarray
    factor_cov: FactorCovariance
    spectrum: LabeledSpectrum

    @property
    def n_assets(self) -> int:
        return len(self.assets)

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
    factors = factor_panel(models)
    rho = inter_sector_corr(factors)
    factor_cov = build_factor_cov([m.leading_eigenvalue for m in models], rho)
    return HpcaModel(
        assets=panel.assets,
        partition=partition,
        sector_models=models,
        factor_corr=rho,
        factor_cov=factor_cov,
        spectrum=assemble_spectrum(partition, models, factor_cov, panel.assets),
    )


def cumulative_variance(eigenvalues: np.ndarray, n: int) -> np.ndarray:
    """Partial sums of a descending eigenvalue list divided by ``n``."""
    values = np.asarray(eigenvalues, dtype=float)
    if values.ndim != 1:
        raise InputError("eigenvalues must be a vector")
    if values.size > 1 and (np.diff(values) > 1e-12).any():
        raise InputError("eigenvalues must be sorted in decreasing order")
    if n < 1:
        raise InputError("n must be positive")
    return np.cumsum(values) / n


@dataclass(frozen=True)
class EigenvectorComparison:
    """Entrywise difference statistics between two unit eigenvectors.

    ``rms_distance`` is the centered RMS (population standard deviation) of
    the entry differences after sign alignment; ``mean_abs_entry`` is the
    average entry magnitude across both vectors, the natural yardstick for
    the other two numbers.
    """

    rms_distance: float
    mean_difference: float
    mean_abs_entry: float


def compare_eigenvectors(a: np.ndarray, b: np.ndarray) -> EigenvectorComparison:
    """Compare two unit vectors after aligning the sign of ``b`` to ``a``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InputError(f"vector shapes differ: {a.shape} vs {b.shape}")
    for name, v in (("first", a), ("second", b)):
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise InputError(f"{name} vector is not unit norm (|v| = {norm:.6g})")
    if float(a @ b) < 0.0:
        b = -b
    diff = a - b
    return EigenvectorComparison(
        rms_distance=float(diff.std()),
        mean_difference=float(diff.mean()),
        mean_abs_entry=float(0.5 * (np.abs(a).mean() + np.abs(b).mean())),
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
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    if not 0 <= count <= n:
        raise InputError(f"factor count {count} out of range [0, {n}]")
    lam = np.asarray(eigenvalues, dtype=float)[:count]
    if (lam <= 1e-12).any():
        raise NumericalError(
            "cannot realize eigenportfolios for non-positive eigenvalues"
        )
    return values @ eigenvectors[:, :count] / np.sqrt(lam)


def model_to_dict(model: HpcaModel, include_matrix: bool = False) -> dict:
    """Serialize a fitted model to plain JSON-compatible types.

    Per-sector eigensystems, betas, the factor correlation, the scaled
    factor covariance and its eigensystem, and the labeled eigenvalue list
    are always included; the dense hierarchical matrix only on request.
    """
    doc = {
        "assets": list(model.assets),
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
                "label": m.label,
                "assets": list(m.assets),
                "eigenvalues": m.eigenvalues.tolist(),
                "eigenvectors": m.eigenvectors.tolist(),
                "betas": m.betas.tolist(),
            }
            for m in model.sector_models
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, include_matrix=include_matrix), fh, indent=1)
        fh.write("\n")
    if vectors > 0:
        write_eigenvector_table(model.spectrum, directory / VECTORS_FILENAME, vectors)
    return path


def load_model_dict(directory: str | Path) -> dict:
    """Read back the JSON document written by :func:`save_model`."""
    path = Path(directory)
    if path.is_dir():
        path = path / MODEL_FILENAME
    if not path.exists():
        raise InputError(f"no model file at {path}")
    with _text_stream(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"model file {path} is not valid JSON: {exc}") from None


def write_eigenvector_table(
    spectrum: LabeledSpectrum, dest: str | Path, count: int, delimiter: str = ","
) -> None:
    """Write the top ``count`` eigenvectors as delimited text.

    One row per asset, one column per eigenvector, full-precision values.
    """
    count = min(count, spectrum.size)
    header = ["asset"] + [f"EV{r + 1}" for r in range(count)]
    vectors = spectrum.eigenvectors[:, :count].tolist()
    rows = ([a] + [repr(v) for v in vec] for a, vec in zip(spectrum.assets, vectors))
    _write_rows(dest, header, rows, delimiter)
