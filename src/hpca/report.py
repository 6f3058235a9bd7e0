"""Side-by-side comparison of the plain and hierarchical correlation spectra.

The comparison report is pure data: ranked eigenvalue pairs with labels,
per-rank eigenvector distance statistics, cumulative-variance curves, and
the spectrum minima. Rendering helpers emit deterministic text and
JSON-ready dictionaries, both written from the records' own fields;
re-running on identical inputs reproduces the output byte for byte.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, is_dataclass
from typing import Sequence

import numpy as np

from .eigen import Spectrum
from .errors import InputError, NumericalError
from .model import LabeledSpectrum

SUM_TOL = 1e-6
UNIT_NORM_TOL = 1e-6
SORT_TOL = 1e-12


@dataclass(frozen=True)
class ComparisonRow:
    """One rank of the side-by-side eigenvalue table.

    The eigenvector statistics compare the rank's two unit eigenvectors
    after aligning the sign of the hierarchical one to the plain one:
    ``rms_distance`` is the centered RMS (population standard deviation) of
    the entry differences, and ``mean_abs_entry`` the average entry
    magnitude across both vectors, the yardstick for the other two numbers.
    """

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

    Fields are declared in the order :func:`report_to_dict` writes them.
    ``rank_one_delta`` is the explanatory-power gap of the leading
    eigenvalues, per asset: ``(lambda_1_pca - lambda_1_hpca) / n``.
    """

    n_assets: int
    rank_one_delta: float
    min_pca_eigenvalue: float
    min_hpca_eigenvalue: float
    rows: tuple[ComparisonRow, ...]
    pca_eigenvalues: np.ndarray
    hpca_eigenvalues: np.ndarray
    hpca_labels: tuple[str, ...]
    pca_cumulative: np.ndarray
    hpca_cumulative: np.ndarray


def build_comparison(
    pca: Spectrum,
    hpca: LabeledSpectrum,
    assets: Sequence[str],
    top_k: int = 25,
) -> ComparisonReport:
    """Compare the two spectra over the same asset universe.

    Eigenvector statistics are computed rank by rank for the top ``top_k``
    pairs; both eigenvalue lists must be non-increasing and sum to the
    asset count, which pins them to correlation matrices over the same
    universe, and the compared eigenvectors must have unit norm.
    """
    if tuple(assets) != hpca.assets:
        raise InputError("asset universes differ between the two spectra")
    n = len(hpca.assets)
    if pca.size != n:
        raise InputError(
            f"plain spectrum has {pca.size} eigenvalues for {n} assets"
        )
    pv, hv = pca.vectors(top_k), hpca.vectors(top_k)
    spectra = (("plain", pca, pv), ("hierarchical", hpca, hv))
    for name, spectrum, vectors in spectra:
        length = vectors.shape[0]
        if length != n:
            raise InputError(
                f"{name} eigenvectors have {length} entries for {n} assets"
            )
        values = spectrum.eigenvalues
        if (np.diff(values) > SORT_TOL).any():
            raise InputError(f"{name} eigenvalues must be sorted in decreasing order")
        total = float(values.sum())
        if abs(total - n) > SUM_TOL * max(1.0, n):
            raise NumericalError(
                f"{name} eigenvalues sum to {total!r}, expected {n}"
            )
        norms = np.linalg.norm(vectors, axis=0)
        off = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
        if off.size:
            raise InputError(
                f"{name} eigenvector {off[0] + 1} is not unit norm "
                f"(|v| = {norms[off[0]]:.6g})"
            )
    rows = []
    for r, (a, b) in enumerate(zip(pv.T, hv.T)):
        if a @ b < 0.0:
            b = -b
        diff = a - b
        rows.append(
            ComparisonRow(
                rank=r + 1,
                pca_eigenvalue=float(pca.eigenvalues[r]),
                hpca_eigenvalue=float(hpca.eigenvalues[r]),
                label=hpca.labels[r].describe(),
                rms_distance=float(diff.std()),
                mean_difference=float(diff.mean()),
                mean_abs_entry=float(0.5 * (np.abs(a).mean() + np.abs(b).mean())),
            )
        )
    return ComparisonReport(
        n_assets=n,
        rank_one_delta=(float(pca.eigenvalues[0]) - float(hpca.eigenvalues[0])) / n,
        min_pca_eigenvalue=float(pca.eigenvalues[-1]),
        min_hpca_eigenvalue=float(hpca.eigenvalues[-1]),
        rows=tuple(rows),
        pca_eigenvalues=pca.eigenvalues,
        hpca_eigenvalues=hpca.eigenvalues,
        hpca_labels=tuple(lab.describe() for lab in hpca.labels),
        pca_cumulative=np.cumsum(pca.eigenvalues) / n,
        hpca_cumulative=np.cumsum(hpca.eigenvalues) / n,
    )


def report_to_dict(report: ComparisonReport) -> dict:
    """JSON-ready fields in declaration order; arrays and tuples become lists, rows dicts."""
    out = {}
    for field in fields(report):
        value = getattr(report, field.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = [report_to_dict(v) if is_dataclass(v) else v for v in value]
        out[field.name] = value
    return out


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
    lines.extend(
        "\t".join(v if isinstance(v, str) else repr(v) for v in astuple(row))
        for row in report.rows
    )
    return "\n".join(lines) + "\n"
