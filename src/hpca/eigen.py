"""Symmetric eigendecomposition with a fixed ordering and sign convention.

Every eigenvector computation in the package goes through ``sym_eig_sorted``
so that eigenvalue ordering, tie-breaking, and eigenvector signs are
identical no matter which module asked for the decomposition. Callers that
need eigenvalues alone (the residual spectrum) use ``np.linalg.eigvalsh``.
"""

from __future__ import annotations

import numbers
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
        count = _whole(count, "eigenvector count")
        if count < 0:
            raise InputError(f"eigenvector count must be non-negative, got {count}")
        return self.eigenvectors[:, :count]


def _asymmetry(a: np.ndarray) -> float:
    """``max |A - A^T|``; 0.0, with no n x n float temporary, if ``A`` equals ``A^T`` bitwise."""
    if np.array_equal(a.view(np.uint64), a.T.view(np.uint64)):
        return 0.0
    diff = a - a.T
    return float(np.abs(diff, out=diff).max())


def _as_numbers(value, what: str, dtype=float) -> np.ndarray:
    """``value`` as a ``dtype`` array; ``InputError`` naming ``what`` if it cannot be read as one."""
    try:
        return np.asarray(value, dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be an array of numbers") from exc


def _whole(value, what: str) -> int:
    """``value`` as an int: an integer, or a float with no fractional part.

    Every integer argument a caller passes in goes through here. Booleans
    and everything else are refused, so a size read from JSON as ``2.0``
    works and ``2.5``, ``true`` or ``"2"`` do not.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise InputError(f"{what} must be a whole number, got {value!r}")


def _checked_symmetric(matrix, what: str, tol: float) -> tuple[np.ndarray, float]:
    """``matrix`` as a float array and its ``max |A - A^T|``.

    Raises ``InputError`` naming ``what`` unless the matrix is 2-d, square,
    non-empty, finite and symmetric to ``tol``.
    """
    a = _as_numbers(matrix, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InputError(f"{what} must be square and non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{what} contains non-finite entries")
    asym = _asymmetry(a)
    if asym > tol:
        raise InputError(f"{what} is not symmetric: max |A - A^T| = {asym:g}")
    return a, asym


def _checked_correlation(matrix, what: str, tol: float) -> np.ndarray:
    """``_checked_symmetric``'s array, whose diagonal is also 1 to ``tol``."""
    a, _ = _checked_symmetric(matrix, what, tol)
    if np.abs(np.diag(a) - 1.0).max() > tol:
        raise InputError(f"{what} diagonal is not 1")
    return a


def sym_eig_sorted(matrix: np.ndarray) -> Spectrum:
    """Decompose a real symmetric matrix deterministically.

    The input is symmetrized as ``(A + A^T) / 2``; for an exactly symmetric
    input that is ``A`` bit for bit, so it is skipped and makes no copy.
    Eigenvalues are returned in non-increasing order, ties are broken by the
    index of the largest-magnitude eigenvector entry, and each eigenvector is
    sign-fixed so its entry sum is non-negative. Two calls on
    bitwise-identical inputs return bitwise-identical results.

    Args:
        matrix: square 2-d array, symmetric to ``SYMMETRY_TOL``.

    Returns:
        The ordered, sign-fixed :class:`Spectrum`.

    Raises:
        InputError: empty or non-square input, non-finite entries, or
            asymmetry beyond tolerance.
    """
    a, asym = _checked_symmetric(matrix, "matrix", SYMMETRY_TOL)
    if asym:
        a = 0.5 * (a + a.T)

    values, vectors = np.linalg.eigh(a)
    # Non-increasing order, copied into the layouts the tie-break gather
    # below gives (F order for the vectors): the last bits of later products
    # and sums depend on the layout.
    values = values[::-1].copy()
    vectors = np.asfortranarray(vectors[:, ::-1])

    # Stable secondary sort so exactly-tied eigenvalues have a fixed order;
    # with no tie the order is already final.
    if (values[1:] >= values[:-1]).any():
        order = np.lexsort((np.abs(vectors).argmax(axis=0), -values))
        values = values[order]
        vectors = vectors[:, order]

    # Sign rule: entry sum >= 0; when the sum is zero (to ``ZERO_SUM_TOL``),
    # the first entry of non-negligible magnitude is made positive instead.
    sums = np.ascontiguousarray(vectors.T).sum(axis=1)
    flip = sums < -ZERO_SUM_TOL
    zero = np.flatnonzero(np.abs(sums) <= ZERO_SUM_TOL)
    if zero.size:
        # A unit n-vector has an entry of size >= n^(-1/2) > ZERO_SUM_TOL.
        cols = vectors[:, zero]
        first = (np.abs(cols) > ZERO_SUM_TOL).argmax(axis=0)
        flip[zero] = cols[first, np.arange(zero.size)] < 0.0
    vectors *= np.where(flip, -1.0, 1.0)

    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)
