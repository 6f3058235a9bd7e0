"""Shared builders and oracles for the test suite.

Random market instances are drawn with explicit numpy generators so every
test is reproducible; the dense-eigensolve comparison is the independent
oracle for the closed-form spectrum and handles (near-)degenerate
eigenvalue clusters through subspace projectors.
"""

from __future__ import annotations

import numpy as np

from hpca.eigen import Spectrum
from hpca.model import MULTI_SECTOR, HpcaModel, LabeledSpectrum, SpectrumLabel, fit_hpca
from hpca.panel import StandardizedPanel, standardize
from hpca.sectors import SectorPartition
from hpca.synth import MarketSpec, SectorSpec, generate


def random_correlation(rng: np.random.Generator, size: int) -> np.ndarray:
    """Random full-rank correlation matrix from a Gaussian Gram construction."""
    g = rng.standard_normal((size, size + 2))
    c = g @ g.T
    d = np.sqrt(np.diag(c))
    c = c / np.outer(d, d)
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


def random_market_spec(
    rng: np.random.Generator,
    max_sectors: int = 6,
    max_size: int = 10,
    min_size: int = 1,
    intra_high: float = 0.85,
    allow_perfect: bool = True,
) -> MarketSpec:
    """Broad random market: equicorrelated blocks, random factor correlation.

    Occasionally uses a perfectly correlated block (eigenvalue zero in the
    population matrix) and occasionally a full random block correlation.
    """
    b = int(rng.integers(1, max_sectors + 1))
    sectors = []
    for k in range(b):
        size = int(rng.integers(min_size, max_size + 1))
        draw = rng.uniform()
        if allow_perfect and draw < 0.1 and size > 1:
            sector = SectorSpec(name=f"sector{k}", size=size, equicorrelation=1.0)
        elif draw < 0.3 and size > 1:
            sector = SectorSpec(
                name=f"sector{k}", size=size,
                correlation=random_correlation(rng, size),
            )
        else:
            sector = SectorSpec(
                name=f"sector{k}", size=size,
                equicorrelation=float(rng.uniform(0.0, intra_high)),
            )
        sectors.append(sector)
    n = sum(s.size for s in sectors)
    t = 5 * n + int(rng.integers(0, 3 * n + 1))
    return MarketSpec(
        sectors=tuple(sectors),
        factor_correlation=random_correlation(rng, b),
        n_periods=t,
        seed=int(rng.integers(0, 2**31)),
    )


def market_like_spec(rng: np.random.Generator) -> MarketSpec:
    """Positively correlated market family used for the conditioning checks.

    Intra-block correlations of 0.3-0.6 and one-factor sector correlations
    with loadings 0.45-0.8 keep the leading sector eigenvalues well above
    the intra-block floor, the regime the hierarchical model targets.
    """
    b = int(rng.integers(2, 7))
    sectors = tuple(
        SectorSpec(
            name=f"sector{k}",
            size=int(rng.integers(2, 13)),
            equicorrelation=float(rng.uniform(0.3, 0.6)),
        )
        for k in range(b)
    )
    loadings = rng.uniform(0.45, 0.8, b)
    factor_corr = np.outer(loadings, loadings)
    np.fill_diagonal(factor_corr, 1.0)
    n = sum(s.size for s in sectors)
    t = 5 * n + int(rng.integers(0, n + 1))
    return MarketSpec(
        sectors=sectors,
        factor_correlation=factor_corr,
        n_periods=t,
        seed=int(rng.integers(0, 2**31)),
    )


def fit_from_spec(
    spec: MarketSpec, seed: int | None = None
) -> tuple[StandardizedPanel, HpcaModel]:
    """Generate, standardize, and fit a synthetic market in one step."""
    panel, truth = generate(spec, seed=seed)
    std = standardize(panel)
    return std, fit_hpca(std, truth.partition)


def comparison_pair(plain_values, hier_values, plain_vectors=None, hier_vectors=None):
    """A plain and a hierarchical spectrum over the assets A0..A{n-1}.

    Eigenvectors default to the identity; every label is multi-sector.
    """
    n = len(plain_values)
    assets = tuple(f"A{i}" for i in range(n))
    plain = Spectrum(
        eigenvalues=np.asarray(plain_values, dtype=float),
        eigenvectors=np.eye(n) if plain_vectors is None else plain_vectors,
    )
    hier = LabeledSpectrum(
        eigenvalues=np.asarray(hier_values, dtype=float),
        eigenvectors=np.eye(n) if hier_vectors is None else hier_vectors,
        assets=assets,
        labels=(SpectrumLabel(kind=MULTI_SECTOR, rank=1),) * n,
    )
    return plain, hier, assets


def random_partition(rng: np.random.Generator, n: int, b: int) -> SectorPartition:
    """Random assignment of n assets to b non-empty sectors."""
    assignment = np.concatenate(
        [np.arange(b), rng.integers(0, b, n - b)]
    )
    rng.shuffle(assignment)
    return SectorPartition(
        labels=tuple(f"sector{k}" for k in range(b)), assignment=assignment
    )


def dense_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Independent oracle: plain dense symmetric eigensolve, descending."""
    values, vectors = np.linalg.eigh(0.5 * (matrix + matrix.T))
    return values[::-1], vectors[:, ::-1]


def eigen_clusters(values: np.ndarray, tol: float) -> list[range]:
    """Group a descending eigenvalue list into clusters separated by > tol."""
    clusters = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i - 1] - values[i] > tol:
            clusters.append(range(start, i))
            start = i
    return clusters


def max_spectrum_errors(
    matrix: np.ndarray,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    cluster_tol: float = 1e-7,
) -> tuple[float, float, float]:
    """Compare a claimed spectrum against the dense oracle.

    Returns the max eigenvalue error, the max entrywise eigenvector error
    over non-degenerate eigenvalues (after sign alignment), and the max
    entrywise projector error over degenerate clusters.
    """
    ref_values, ref_vectors = dense_spectrum(matrix)
    scale = max(1.0, float(np.abs(ref_values).max()))
    value_err = float(np.abs(eigenvalues - ref_values).max())
    vector_err = 0.0
    projector_err = 0.0
    for cluster in eigen_clusters(ref_values, cluster_tol * scale):
        if len(cluster) == 1:
            i = cluster[0]
            a = eigenvectors[:, i]
            d = ref_vectors[:, i]
            if float(a @ d) < 0.0:
                d = -d
            vector_err = max(vector_err, float(np.abs(a - d).max()))
        else:
            idx = list(cluster)
            pa = eigenvectors[:, idx] @ eigenvectors[:, idx].T
            pd = ref_vectors[:, idx] @ ref_vectors[:, idx].T
            projector_err = max(projector_err, float(np.abs(pa - pd).max()))
    return value_err, vector_err, projector_err
