"""Residual defactoring and random-matrix diagnostics.

A pure-noise correlation matrix has eigenvalues asymptotically confined to
the interval ``[(1 - sqrt(n/T))^2, (1 + sqrt(n/T))^2]``. Comparing the
spectrum of defactored residuals against that reference interval and
density shows how much structure a factor set left behind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import _as_numbers, _whole
from .errors import InputError, NumericalError
from .panel import ReturnsPanel, StandardizedPanel, _gram_correlation

DEFAULT_GRID_SIZE = 51


def mp_threshold(n: int, t: int) -> float:
    """Upper edge ``(1 + sqrt(n/T))^2`` of the pure-noise spectrum."""
    n, t = _whole(n, "n"), _whole(t, "t")
    if n < 1 or t < 1:
        raise InputError(f"need n >= 1 and T >= 1, got n={n}, T={t}")
    return float((1.0 + np.sqrt(n / t)) ** 2)


@dataclass(frozen=True)
class MpReference:
    """Noise-spectrum reference: support edges plus sampled density.

    The density is sampled on ``grid`` (``grid_size`` evenly spaced points
    spanning the support); histogram bins in residual reports share this
    grid so empirical and reference curves line up exactly.
    """

    lambda_minus: float
    lambda_plus: float
    grid: np.ndarray
    density: np.ndarray

    @property
    def bin_width(self) -> float:
        return float(self.grid[1] - self.grid[0])


def mp_density(n: int, t: int, grid_size: int = DEFAULT_GRID_SIZE) -> MpReference:
    """Sample the pure-noise eigenvalue density on an even grid.

    The density is ``sqrt((l+ - x)(x - l-)) / (2 pi gamma x)`` on the
    support ``[l-, l+]`` and vanishes at both edges. Aspect ratios
    ``gamma = n/T > 1`` (rank-deficient correlation matrices) are rejected.
    """
    hi = mp_threshold(n, t)
    grid_size = _whole(grid_size, "grid_size")
    if grid_size < 2:
        raise InputError(f"grid size must be at least 2, got {grid_size}")
    gamma = n / t
    if gamma > 1.0:
        raise InputError(
            f"aspect ratio n/T = {gamma:g} > 1 is out of scope (rank-deficient)"
        )
    lo = float((1.0 - np.sqrt(gamma)) ** 2)
    grid = np.linspace(lo, hi, grid_size)
    inner = np.clip((hi - grid) * (grid - lo), 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        density = np.sqrt(inner) / (2.0 * np.pi * gamma * grid)
    density[0] = 0.0
    density[-1] = 0.0
    return MpReference(lambda_minus=lo, lambda_plus=hi, grid=grid, density=density)


@dataclass(kw_only=True)
class ResidualPanel(ReturnsPanel):
    """Re-standardized least-squares residuals of a panel against ``cutoff`` factors.

    Columns flagged in ``degenerate`` had (numerically) zero residual
    variance and are left as zeros instead of being rescaled.
    """

    model_type: str
    cutoff: int
    degenerate: tuple[str, ...] = ()


def defactor(
    panel: StandardizedPanel, factors: np.ndarray, model_type: str = "custom"
) -> ResidualPanel:
    """Regress every asset on the factor set and keep standardized residuals.

    The regression includes an intercept, so residuals have exactly zero
    sample mean and zero sample correlation with every supplied factor.
    Residual columns are rescaled back to unit sample variance; columns the
    factors explain completely are flagged degenerate and left as zeros.
    An empty factor set is the identity: the panel is returned unchanged.

    Raises:
        InputError: factor matrix with non-finite entries, with linearly
            dependent columns (the first dependent column is named) or of
            mismatched length.
    """
    if not isinstance(panel, StandardizedPanel):
        raise InputError("defactor expects a standardized panel")
    f = _as_numbers(factors, "factor matrix")
    if f.size == 0:
        f = f.reshape(panel.n_periods, 0)
    if f.ndim != 2 or f.shape[0] != panel.n_periods:
        raise InputError(
            f"factor matrix must be {panel.n_periods} x m, got {f.shape}"
        )
    if not np.isfinite(f).all():
        raise InputError("factor matrix contains non-finite values")
    m = f.shape[1]
    if m == 0:
        return ResidualPanel._derived(panel, panel.values.copy(), model_type=model_type, cutoff=0)

    # |R_jj| of the unpivoted QR is the distance of design column j from the
    # span of the columns before it; column 0 is the intercept. With more
    # than T design columns, those past the T-th have no R_jj and are
    # dependent on the ones before them.
    q, r = np.linalg.qr(np.column_stack([np.ones(panel.n_periods), f]))
    spans = np.abs(np.diag(r))
    tol = spans.max() * max(panel.n_periods, m + 1) * np.finfo(float).eps
    dependent = np.concatenate(
        [np.flatnonzero(spans[1:] <= tol), np.arange(spans.size - 1, m)]
    )
    if dependent.size:
        raise InputError(
            "factor matrix is rank deficient: factor column "
            f"{dependent[0]} is linearly dependent"
        )
    residuals = q @ (q.T @ panel.values)
    np.subtract(panel.values, residuals, out=residuals)

    residuals -= residuals.mean(axis=0)
    # std by 64-column blocks makes a T x 64 centered copy, not T x n; same bits.
    stds = np.concatenate(
        [residuals[:, j : j + 64].std(axis=0, ddof=1) for j in range(0, panel.n_assets, 64)]
    )
    dead = stds <= 1e-12
    residuals /= np.where(dead, 1.0, stds)
    residuals[:, dead] = 0.0
    degenerate = tuple(panel.assets[i] for i in np.flatnonzero(dead))
    return ResidualPanel._derived(
        panel, residuals, model_type=model_type, cutoff=m, degenerate=degenerate
    )


@dataclass
class ResidualReport:
    """Spectrum of the residual correlation matrix against the noise reference."""

    eigenvalues: np.ndarray
    leading_eigenvalue: float
    count_above_threshold: int
    mean_offdiag_correlation: float
    leading_share: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def residual_spectrum(residuals: ResidualPanel, ref: MpReference) -> ResidualReport:
    """Diagnose a residual panel's correlation spectrum.

    Histogram bin edges reuse the reference grid inside the noise support
    and extend it outward with the same spacing until every eigenvalue is
    covered. ``leading_share`` is the top eigenvalue divided by n, a proxy
    for the average residual correlation level.

    Raises:
        NumericalError: every residual column is degenerate, so there is
            no residual correlation to diagnose.
    """
    n = residuals.n_assets
    if len(residuals.degenerate) == n:
        raise NumericalError(
            f"every residual column is degenerate: the {residuals.cutoff} factor(s) "
            "explain the whole panel"
        )
    corr = _gram_correlation(residuals.values, residuals.n_periods - 1)
    ev = np.linalg.eigvalsh(corr)[::-1]

    width = ref.bin_width
    if width <= 0.0:
        raise NumericalError("degenerate reference grid")
    n_left = int(np.ceil(max(0.0, ref.lambda_minus - ev.min()) / width))
    n_right = int(np.ceil(max(0.0, ev.max() - ref.lambda_plus) / width))
    left = ref.lambda_minus - width * np.arange(n_left, 0, -1)
    right = ref.lambda_plus + width * np.arange(1, n_right + 1)
    edges = np.concatenate([left, ref.grid, right])
    counts, _ = np.histogram(ev, bins=edges)

    return ResidualReport(
        eigenvalues=ev,
        leading_eigenvalue=float(ev[0]),
        count_above_threshold=int((ev > ref.lambda_plus).sum()),
        mean_offdiag_correlation=(
            float((corr.sum() - n) / (n * (n - 1))) if n > 1 else 0.0
        ),
        leading_share=float(ev[0] / n),
        hist_edges=edges,
        hist_counts=counts,
    )
