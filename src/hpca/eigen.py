"""Symmetric eigendecomposition with a fixed ordering and sign convention.

Every dense eigenvector computation in the package goes through
``sym_eig_sorted`` so that eigenvalue ordering, tie-breaking, and
eigenvector signs are identical no matter which module asked for the
decomposition; the closed-form hierarchical spectrum fixes its signs with
the same rule. Callers that need eigenvalues alone (the residual spectrum)
use ``np.linalg.eigvalsh``.
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


def _holds_bool(items) -> bool:
    """Whether a list or tuple holds booleans (or a boolean array) at any depth of nesting."""
    nested = (x for x in items if isinstance(x, (list, tuple)))
    flags = (isinstance(x, bool) or getattr(x, "dtype", None) == bool for x in items)
    return any(flags) or any(map(_holds_bool, nested))


def _as_numbers(value, what: str) -> np.ndarray:
    """``value`` as a float array; ``InputError`` naming ``what`` unless it holds real numbers."""
    try:
        # numpy reads ``[True, 0.3]`` as floats; an array's dtype shows its booleans.
        if isinstance(value, (list, tuple)) and _holds_bool(value):
            raise TypeError("boolean entries")
        a = np.asarray(value)
        if a.dtype.kind in "bcSU":
            raise TypeError(f"{a.dtype} entries")
        return np.asarray(a, float)
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
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


def _labels(value, what: str) -> tuple[str, ...]:
    """``value`` as a tuple of text: any iterable of strings but one string."""
    try:
        labels = tuple(value)
    except TypeError:
        labels = (None,)
    if isinstance(value, str) or not all(isinstance(label, str) for label in labels):
        raise InputError(f"{what} must be text: a sequence of strings, not one string")
    return labels


def _checked_symmetric(matrix, what: str, tol: float) -> np.ndarray:
    """``matrix`` as a float array equal to its transpose: the package's one symmetrization.

    A matrix off-symmetric by at most ``tol`` comes back as ``(A + A^T) / 2``,
    any other as is, with no copy. Raises ``InputError`` naming ``what`` unless
    the matrix is 2-d, square, non-empty, finite and symmetric to ``tol``.
    """
    a = _as_numbers(matrix, what)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InputError(f"{what} must be square and non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{what} contains non-finite entries")
    if np.array_equal(a.view(np.uint64), a.T.view(np.uint64)):
        return a
    diff = a - a.T
    asym = float(np.abs(diff, out=diff).max())
    if asym > tol:
        raise InputError(f"{what} is not symmetric: max |A - A^T| = {asym:g}")
    return 0.5 * (a + a.T) if asym else a


def _checked_correlation(matrix, what: str, tol: float) -> np.ndarray:
    """``_checked_symmetric``'s array, whose diagonal is also 1 to ``tol``."""
    a = _checked_symmetric(matrix, what, tol)
    if np.abs(np.diag(a) - 1.0).max() > tol:
        raise InputError(f"{what} diagonal is not 1")
    return a


def _signs(sums: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """The package's one eigenvector sign rule: a factor of -1 or 1 for each column of ``vectors``.

    ``sums`` holds the columns' entry sums. A column is negated when its sum
    is below ``-ZERO_SUM_TOL``; a column whose sum is zero to that tolerance,
    when its first entry above the tolerance in magnitude is negative.
    """
    flip = sums < -ZERO_SUM_TOL
    zero = np.flatnonzero(np.abs(sums) <= ZERO_SUM_TOL)
    if zero.size:
        # A unit n-vector has an entry of size >= n^(-1/2) > ZERO_SUM_TOL.
        cols = vectors[:, zero]
        first = (np.abs(cols) > ZERO_SUM_TOL).argmax(axis=0)
        flip[zero] = cols[first, np.arange(zero.size)] < 0.0
    return np.where(flip, -1.0, 1.0)


def sym_eig_sorted(matrix: np.ndarray) -> Spectrum:
    """Decompose a real symmetric matrix deterministically.

    An input off-symmetric within tolerance is decomposed as
    ``(A + A^T) / 2``, which the symmetric-matrix check returns.
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
    a = _checked_symmetric(matrix, "matrix", SYMMETRY_TOL)

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

    vectors *= _signs(vectors.sum(axis=0), vectors)

    values.setflags(write=False)
    vectors.setflags(write=False)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)
