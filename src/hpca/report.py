"""Side-by-side comparison of the plain and hierarchical correlation spectra.

The comparison report is pure data: ranked eigenvalue pairs with labels,
per-rank eigenvector distance statistics, cumulative-variance curves, and
the spectrum minima. Rendering helpers emit deterministic text and
JSON-ready dictionaries; re-running on identical inputs reproduces the
output byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eigen import Spectrum
from .errors import InputError, NumericalError
from .model import (
    LabeledSpectrum,
    compare_eigenvectors,
    cumulative_variance,
)

SUM_TOL = 1e-6


@dataclass(frozen=True)
class ComparisonRow:
    """One rank of the side-by-side eigenvalue table."""

    rank: int
    pca_eigenvalue: float
    hpca_eigenvalue: float
    label: str
    rms_distance: float
    mean_difference: float
    mean_abs_entry: float


@dataclass
class ComparisonReport:
    """Full comparison of a plain spectrum against a hierarchical one.

    ``rank_one_delta`` is the explanatory-power gap of the leading
    eigenvalues, per asset: ``(lambda_1_pca - lambda_1_hpca) / n``.
    """

    assets: tuple[str, ...]
    pca_eigenvalues: np.ndarray
    hpca_eigenvalues: np.ndarray
    hpca_labels: tuple[str, ...]
    rows: tuple[ComparisonRow, ...]
    rank_one_delta: float
    pca_cumulative: np.ndarray
    hpca_cumulative: np.ndarray
    min_pca_eigenvalue: float
    min_hpca_eigenvalue: float

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def build_comparison(
    pca: Spectrum,
    hpca: LabeledSpectrum,
    assets: Sequence[str],
    top_k: int = 25,
) -> ComparisonReport:
    """Compare the two spectra over the same asset universe.

    Eigenvector statistics are computed rank by rank for the top ``top_k``
    pairs; both eigenvalue lists must sum to the asset count, which pins
    them to correlation matrices over the same universe.
    """
    assets = tuple(assets)
    if assets != hpca.assets:
        raise InputError("asset universes differ between the two spectra")
    n = len(assets)
    if pca.size != n:
        raise InputError(
            f"plain spectrum has {pca.size} eigenvalues for {n} assets"
        )
    for name, values in (("plain", pca.eigenvalues), ("hierarchical", hpca.eigenvalues)):
        total = float(values.sum())
        if abs(total - n) > SUM_TOL * max(1.0, n):
            raise NumericalError(
                f"{name} eigenvalues sum to {total!r}, expected {n}"
            )
    rows = []
    pairs = zip(pca.vectors(top_k).T, hpca.vectors(top_k).T)
    for r, (pca_vector, hpca_vector) in enumerate(pairs):
        stats = compare_eigenvectors(pca_vector, hpca_vector)
        rows.append(
            ComparisonRow(
                rank=r + 1,
                pca_eigenvalue=float(pca.eigenvalues[r]),
                hpca_eigenvalue=float(hpca.eigenvalues[r]),
                label=hpca.labels[r].describe(),
                rms_distance=stats.rms_distance,
                mean_difference=stats.mean_difference,
                mean_abs_entry=stats.mean_abs_entry,
            )
        )
    return ComparisonReport(
        assets=assets,
        pca_eigenvalues=pca.eigenvalues,
        hpca_eigenvalues=hpca.eigenvalues,
        hpca_labels=tuple(lab.describe() for lab in hpca.labels),
        rows=tuple(rows),
        rank_one_delta=(float(pca.eigenvalues[0]) - float(hpca.eigenvalues[0])) / n,
        pca_cumulative=cumulative_variance(pca.eigenvalues, n),
        hpca_cumulative=cumulative_variance(hpca.eigenvalues, n),
        min_pca_eigenvalue=float(pca.eigenvalues[-1]),
        min_hpca_eigenvalue=float(hpca.eigenvalues[-1]),
    )


def report_to_dict(report: ComparisonReport) -> dict:
    """Serialize a comparison report to JSON-compatible types."""
    return {
        "n_assets": report.n_assets,
        "rank_one_delta": report.rank_one_delta,
        "min_pca_eigenvalue": report.min_pca_eigenvalue,
        "min_hpca_eigenvalue": report.min_hpca_eigenvalue,
        "rows": [
            {
                "rank": row.rank,
                "pca_eigenvalue": row.pca_eigenvalue,
                "hpca_eigenvalue": row.hpca_eigenvalue,
                "label": row.label,
                "rms_distance": row.rms_distance,
                "mean_difference": row.mean_difference,
                "mean_abs_entry": row.mean_abs_entry,
            }
            for row in report.rows
        ],
        "pca_eigenvalues": report.pca_eigenvalues.tolist(),
        "hpca_eigenvalues": report.hpca_eigenvalues.tolist(),
        "hpca_labels": list(report.hpca_labels),
        "pca_cumulative": report.pca_cumulative.tolist(),
        "hpca_cumulative": report.hpca_cumulative.tolist(),
    }


def render_text(report: ComparisonReport) -> str:
    """Fixed-layout text rendering with full-precision values."""
    lines = [
        f"assets: {report.n_assets}",
        f"rank-1 explanatory delta: {report.rank_one_delta!r}",
        f"smallest eigenvalue (pca): {report.min_pca_eigenvalue!r}",
        f"smallest eigenvalue (hpca): {report.min_hpca_eigenvalue!r}",
        "",
        "rank\tpca\thpca\tlabel\trms_distance\tmean_difference\tmean_abs_entry",
    ]
    for row in report.rows:
        lines.append(
            "\t".join(
                (
                    str(row.rank),
                    repr(row.pca_eigenvalue),
                    repr(row.hpca_eigenvalue),
                    row.label,
                    repr(row.rms_distance),
                    repr(row.mean_difference),
                    repr(row.mean_abs_entry),
                )
            )
        )
    return "\n".join(lines) + "\n"
