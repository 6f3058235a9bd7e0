"""Deterministic symmetric eigendecomposition."""

import numpy as np
import pytest

from hpca.eigen import sym_eig_sorted
from hpca.errors import InputError


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


class TestBasics:
    def test_identity(self):
        spec = sym_eig_sorted(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(3)).max() <= 1e-10
        for k in range(3):
            assert spec.eigenvectors[:, k].sum() >= -1e-12

    def test_two_by_two_exchange_symmetric(self):
        spec = sym_eig_sorted(np.array([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [1.5, 0.5], atol=1e-14)
        root_half = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            spec.eigenvectors[:, 0], [root_half, root_half], atol=1e-14
        )

    def test_reconstruction_random(self):
        rng = np.random.default_rng(10)
        a = random_symmetric(rng, 10)
        spec = sym_eig_sorted(a)
        rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
        tol = 1e-8 * max(1.0, np.abs(a).max())
        assert np.abs(a - rebuilt).max() <= tol

    def test_ordering_non_increasing(self):
        rng = np.random.default_rng(11)
        spec = sym_eig_sorted(random_symmetric(rng, 15))
        assert np.all(np.diff(spec.eigenvalues) <= 1e-14)


class TestErrors:
    def test_non_square(self):
        with pytest.raises(InputError):
            sym_eig_sorted(np.zeros((2, 3)))
        with pytest.raises(InputError):
            sym_eig_sorted(np.zeros((0, 0)))

    def test_negative_vector_count(self):
        spec = sym_eig_sorted(np.eye(3))
        assert spec.vectors(0).shape == (3, 0)
        with pytest.raises(InputError, match="non-negative"):
            spec.vectors(-1)

    def test_non_finite(self):
        a = np.eye(3)
        a[0, 1] = a[1, 0] = np.inf
        with pytest.raises(InputError):
            sym_eig_sorted(a)

    def test_asymmetric_rejected(self):
        a = np.eye(3)
        a[0, 1] = 1e-3
        with pytest.raises(InputError, match="not symmetric"):
            sym_eig_sorted(a)

    def test_tiny_asymmetry_tolerated(self):
        a = np.eye(3)
        a[0, 1] = 1e-11
        spec = sym_eig_sorted(a)
        assert spec.eigenvalues.shape == (3,)


class TestInvariants:
    def test_trace_preserved(self):
        rng = np.random.default_rng(12)
        for n in (2, 5, 20, 40):
            a = random_symmetric(rng, n)
            spec = sym_eig_sorted(a)
            assert abs(spec.eigenvalues.sum() - np.trace(a)) <= 1e-8 * n

    def test_rayleigh_maximality(self):
        rng = np.random.default_rng(13)
        a = random_symmetric(rng, 12)
        spec = sym_eig_sorted(a)
        top = spec.eigenvalues[0]
        u = rng.standard_normal((12, 1000))
        u /= np.linalg.norm(u, axis=0)
        quad = np.einsum("in,ij,jn->n", u, a, u)
        assert quad.max() <= top + 1e-10

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(14)
        spec = sym_eig_sorted(random_symmetric(rng, 30))
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(30)).max() <= 1e-10

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(15)
        a = random_symmetric(rng, 17)
        first = sym_eig_sorted(a)
        second = sym_eig_sorted(a.copy())
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    def test_tie_breaking_is_deterministic(self):
        # Repeated eigenvalue 2 with axis-aligned eigenvectors: the column
        # whose largest-magnitude entry sits at a lower index comes first.
        a = np.diag([2.0, 1.0, 2.0])
        spec = sym_eig_sorted(a)
        np.testing.assert_allclose(spec.eigenvalues, [2.0, 2.0, 1.0])
        assert abs(spec.eigenvectors[0, 0]) == pytest.approx(1.0)
        assert abs(spec.eigenvectors[2, 1]) == pytest.approx(1.0)

    def test_sign_rule_zero_sum_column(self):
        # Eigenvector (1, -1)/sqrt(2) sums to zero; first nonzero entry
        # must come out positive.
        a = np.array([[1.0, -0.3], [-0.3, 1.0]])
        spec = sym_eig_sorted(a)
        for k in range(2):
            col = spec.eigenvectors[:, k]
            if abs(col.sum()) <= 1e-12:
                nz = np.flatnonzero(np.abs(col) > 1e-12)
                assert col[nz[0]] > 0
            else:
                assert col.sum() > 0
