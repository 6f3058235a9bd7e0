"""Reference results computed apart from hpca, with plain numpy.

Nothing here calls into hpca: the correlation matrices come from
``np.corrcoef`` of the raw panel, the hierarchical matrix is assembled from
its definition, and every spectrum is a dense ``eigh``/``eigvalsh``.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with its reference or a property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def expect_close(actual, reference, what: str, rel: float = 1e-8) -> None:
    """Entrywise agreement to ``rel`` times the largest reference magnitude."""
    actual = np.asarray(actual, dtype=float)
    reference = np.asarray(reference, dtype=float)
    expect(actual.shape == reference.shape, f"{what}: shape {actual.shape} != {reference.shape}")
    tol = rel * max(1.0, float(np.abs(reference).max()))
    err = float(np.abs(actual - reference).max())
    expect(err <= tol, f"{what}: max deviation {err:.3g} exceeds {tol:.3g}")


def expect_spectrum_props(eigenvalues, n: int, what: str) -> None:
    """A correlation spectrum sums to n and has no negative eigenvalue."""
    ev = np.asarray(eigenvalues, dtype=float)
    expect(ev.shape == (n,), f"{what}: {ev.shape[0]} eigenvalues for {n} assets")
    expect(abs(float(ev.sum()) - n) <= 1e-8 * n, f"{what}: eigenvalues sum to {ev.sum()!r}, not {n}")
    expect(float(ev.min()) >= -1e-10, f"{what}: eigenvalue {ev.min()!r} below -1e-10")


def noise_edge(n: int, t: int) -> float:
    return (1.0 + math.sqrt(n / t)) ** 2


def _standardize(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def _corr(x: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.corrcoef(x, rowvar=False))


def _eigh_desc(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(matrix)
    return w[::-1], v[:, ::-1]


def hierarchical_matrix(x: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """The hierarchical correlation matrix of panel ``x``, from its definition.

    Sector blocks are the empirical correlations; entry (i, j) across
    sectors k != l is ``beta_i * beta_j * rho_kl`` with
    ``beta = sqrt(lambda_1) * v_1`` of each block and ``rho`` the
    correlation of the sectors' leading eigenportfolio series.
    """
    z = _standardize(x)
    n = x.shape[1]
    sector = np.empty(n, dtype=int)
    beta = np.empty(n)
    blocks, factors = [], []
    for k, idx in enumerate(groups):
        block = _corr(x[:, idx])
        w, v = np.linalg.eigh(block)
        sector[idx] = k
        beta[idx] = math.sqrt(w[-1]) * v[:, -1]
        factors.append(z[:, idx] @ v[:, -1])
        blocks.append(block)
    rho = _corr(np.column_stack(factors))
    h = np.outer(beta, beta) * rho[np.ix_(sector, sector)]
    for idx, block in zip(groups, blocks):
        h[np.ix_(idx, idx)] = block
    return h


def residual_eigenvalues(x: np.ndarray, loadings: np.ndarray) -> np.ndarray:
    """Spectrum of the residual correlation after regressing on ``z @ loadings``.

    The regression has an intercept; only the span of the loadings matters,
    so their signs, scale and order within a tied cluster do not.
    """
    z = _standardize(x)
    design = np.column_stack([np.ones(z.shape[0]), z @ loadings])
    coef = np.linalg.lstsq(design, z, rcond=None)[0]
    return np.linalg.eigvalsh(_corr(z - design @ coef))[::-1]


class Reference:
    """Reference spectra of one panel and sector partition, computed once."""

    def __init__(self, x: np.ndarray, groups: list[np.ndarray]):
        t, n = x.shape
        self.n, self.t, self.b = n, t, len(groups)
        self.edge = noise_edge(n, t)
        self.pca, pca_vectors = _eigh_desc(_corr(x))
        self.hierarchical_matrix = hierarchical_matrix(x, groups)
        self.hpca, hpca_vectors = _eigh_desc(self.hierarchical_matrix)
        self.cutoff = {
            "pca": int((self.pca > self.edge).sum()),
            "hpca": int((self.hpca > self.edge).sum()),
        }
        self.residuals = {
            "pca": residual_eigenvalues(x, pca_vectors[:, : self.cutoff["pca"]]),
            "hpca": residual_eigenvalues(x, hpca_vectors[:, : self.cutoff["hpca"]]),
        }


def hierarchical_eigenvalues(x: np.ndarray, groups: list[np.ndarray]) -> np.ndarray:
    """Descending eigenvalues of the hierarchical matrix of panel ``x``."""
    return np.linalg.eigvalsh(hierarchical_matrix(x, groups))[::-1]


def contiguous_groups(sizes) -> list[np.ndarray]:
    """Column indices of consecutive sectors of the given sizes."""
    bounds = np.cumsum([0, *sizes])
    return [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
