"""Symmetric eigendecomposition with a fixed ordering and sign convention.

Every eigenvector computation in the package goes through ``sym_eig_sorted``
so that eigenvalue ordering, tie-breaking, and eigenvector signs are
identical no matter which module asked for the decomposition. Callers that
need eigenvalues alone (the residual spectrum) use ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Max allowed |A - A^T| before the input is considered non-symmetric.
SYMMETRY_TOL = 1e-10
# Below this, a column sum is treated as zero when fixing signs.
ZERO_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    ``eigenvalues`` is sorted non-increasing and column ``k`` of
    ``eigenvectors`` is the unit eigenvector paired with ``eigenvalues[k]``.
    Every eigensystem in the package is one: ``SectorModel``,
    ``FactorCovariance`` and ``LabeledSpectrum`` extend it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def vectors(self, count: int) -> np.ndarray:
        """The top ``count`` eigenvectors as the columns of an n x count array."""
        if count < 0:
            raise InputError(f"eigenvector count must be non-negative, got {count}")
        return self.eigenvectors[:, :count]


def sym_eig_sorted(matrix: np.ndarray) -> Spectrum:
    """Decompose a real symmetric matrix deterministically.

    The input is symmetrized as ``(A + A^T) / 2``, eigenvalues are returned
    in non-increasing order, ties are broken by the index of the
    largest-magnitude eigenvector entry, and each eigenvector is sign-fixed
    so its entry sum is non-negative. Two calls on bitwise-identical inputs
    return bitwise-identical results.

    Args:
        matrix: square 2-d array, symmetric to ``SYMMETRY_TOL``.

    Returns:
        The ordered, sign-fixed :class:`Spectrum`.

    Raises:
        InputError: empty or non-square input, non-finite entries, or
            asymmetry beyond tolerance.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InputError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError("matrix contains non-finite entries")
    asym = float(np.abs(a - a.T).max())
    if asym > SYMMETRY_TOL:
        raise InputError(f"matrix is not symmetric: max |A - A^T| = {asym:g}")
    a = 0.5 * (a + a.T)

    values, vectors = np.linalg.eigh(a)
    values, vectors = values[::-1], vectors[:, ::-1]

    # Stable secondary sort so exactly-tied eigenvalues have a fixed order.
    order = np.lexsort((np.abs(vectors).argmax(axis=0), -values))
    values = values[order]
    vectors = vectors[:, order]

    # Sign rule: entry sum >= 0; when the sum is zero (to ``ZERO_SUM_TOL``),
    # the first entry of non-negligible magnitude is made positive instead.
    sums = np.ascontiguousarray(vectors.T).sum(axis=1)
    large = np.abs(vectors) > ZERO_SUM_TOL
    first = np.where(
        large.any(axis=0), large.argmax(axis=0), (vectors != 0.0).argmax(axis=0)
    )
    lead = vectors[first, np.arange(vectors.shape[1])]
    flip = (sums < -ZERO_SUM_TOL) | ((np.abs(sums) <= ZERO_SUM_TOL) & (lead < 0.0))
    vectors[:, flip] *= -1.0

    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)
