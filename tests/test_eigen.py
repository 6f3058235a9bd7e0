"""Deterministic symmetric eigendecomposition."""

import re
from contextlib import suppress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hpca.eigen import SYMMETRY_TOL, ZERO_SUM_TOL, sym_eig_sorted
from hpca.errors import InputError
from hpca.model import eigenportfolio_series
from hpca.panel import CorrelationMatrix, ReturnsPanel, standardize
from hpca.rmt import defactor, mp_density, mp_threshold
from hpca.sectors import SectorPartition
from hpca.synth import MarketSpec, SectorSpec, generate


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

    @pytest.mark.parametrize("count", ["2", None, 1.5, True])
    def test_vector_count_must_be_whole(self, count):
        message = f"eigenvector count must be a whole number, got {count!r}"
        with pytest.raises(InputError, match=re.escape(message)):
            sym_eig_sorted(np.eye(3)).vectors(count)

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

    def test_asymmetry_just_above_tolerance_rejected(self):
        a = np.eye(3)
        a[2, 0] = 2.0 * SYMMETRY_TOL
        with pytest.raises(InputError, match="not symmetric"):
            sym_eig_sorted(a)

    def test_tiny_asymmetry_tolerated(self):
        a = np.eye(3)
        a[0, 1] = 1e-11
        spec = sym_eig_sorted(a)
        assert spec.eigenvalues.shape == (3,)


def _market(matrix):
    sectors = tuple(SectorSpec(f"s{k}", 1) for k in range(max(len(matrix), 1)))
    return MarketSpec(sectors=sectors, factor_correlation=matrix, n_periods=10)


# Every public way in to the one symmetric-matrix check, and the name that
# its errors give the matrix.
ENTRY_POINTS = {
    "sym_eig_sorted": (sym_eig_sorted, "matrix"),
    "CorrelationMatrix": (CorrelationMatrix, "correlation matrix"),
    "SectorSpec": (
        lambda m: SectorSpec("a", max(len(m), 1), correlation=m),
        "sector 'a' correlation",
    ),
    "MarketSpec": (_market, "factor correlation"),
}


@st.composite
def small_matrices(draw):
    """Up to 4 x 4, of 0, +-0.5, 1, nan and +-inf, often symmetric, some 1e-11 off."""
    shape = (draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    entries = st.sampled_from([0.0, 0.5, -0.5, 1.0, np.nan, np.inf, -np.inf])
    a = draw(arrays(float, shape, elements=entries))
    if shape[0] == shape[1]:
        if draw(st.booleans()):
            a = np.triu(a) + np.triu(a, 1).T
        if draw(st.booleans()):
            np.fill_diagonal(a, 1.0)
    if a.size and draw(st.booleans()):
        a[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] += 1e-11
    return a


# Nested Python lists, some ragged, that can hold strings and an int too large for a float.
nested_lists = st.lists(
    st.lists(st.sampled_from([0.0, 0.5, 1.0, "1", "x", 10**400]), max_size=4), max_size=4
)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestOneCheck:
    def test_empty_matrix_rejected_by_name(self, entry):
        call, what = ENTRY_POINTS[entry]
        message = f"{what} must be square and non-empty, got shape (0, 0)"
        with pytest.raises(InputError, match=re.escape(message)):
            call(np.zeros((0, 0)))

    @settings(database=None, deadline=None)
    @given(matrix=st.one_of(small_matrices(), nested_lists))
    def test_raises_nothing_but_input_error(self, entry, matrix):
        with suppress(InputError):
            ENTRY_POINTS[entry][0](matrix)


_EYE = np.eye(1)
_STANDARDIZED = standardize(ReturnsPanel(("d1", "d2", "d3"), ("a",), [[1.0], [2.0], [4.0]]))

# Every array argument a caller can pass in, with valid values for the other
# arguments, and the name that its errors give it.
ARRAY_ARGUMENTS = {
    **ENTRY_POINTS,
    "ReturnsPanel.values": (lambda v: ReturnsPanel(("d1", "d2"), ("a",), v), "panel values"),
    "SectorPartition.assignment": (lambda a: SectorPartition(("a",), a), "sector assignment"),
    "eigenportfolio_series.values": (
        lambda v: eigenportfolio_series(v, [1.0], _EYE, 1), "panel values"
    ),
    "eigenportfolio_series.eigenvalues": (
        lambda lam: eigenportfolio_series([[1.0], [-1.0]], lam, _EYE, 1), "eigenvalues"
    ),
    "eigenportfolio_series.eigenvectors": (
        lambda v: eigenportfolio_series([[1.0], [-1.0]], [1.0], v, 1), "eigenvectors"
    ),
    "defactor": (lambda f: defactor(_STANDARDIZED, f), "factor matrix"),
}

BAD_ARRAYS = {
    "ragged": [[1.0], [1.0, 0.5]],
    "non-numeric": [["1", "x"], ["x", "1"]],
    "overflow": [[10**400]],
    "dict": {"a": 1.0},
}


class TestOneConversion:
    @pytest.mark.parametrize("bad", BAD_ARRAYS)
    @pytest.mark.parametrize("argument", ARRAY_ARGUMENTS)
    def test_unreadable_array_rejected_by_name(self, argument, bad):
        call, what = ARRAY_ARGUMENTS[argument]
        with pytest.raises(InputError, match=re.escape(f"{what} must be an array of numbers")):
            call(BAD_ARRAYS[bad])


_SPEC = MarketSpec((SectorSpec("a", 2, 0.3),), np.eye(1), n_periods=5)

# Every integer argument a caller can pass in, with valid values for the
# other arguments, and the name that its errors give it.
WHOLE_ARGUMENTS = {
    "mp_threshold.n": (lambda v: mp_threshold(v, 100), "n"),
    "mp_threshold.t": (lambda v: mp_threshold(10, v), "t"),
    "mp_density.n": (lambda v: mp_density(v, 100), "n"),
    "mp_density.t": (lambda v: mp_density(10, v), "t"),
    "mp_density.grid_size": (lambda v: mp_density(10, 100, grid_size=v), "grid_size"),
    "generate.seed": (lambda v: generate(_SPEC, seed=v), "seed"),
    "eigenportfolio_series.count": (
        lambda v: eigenportfolio_series([[1.0], [-1.0]], [1.0], _EYE, v), "count"
    ),
}


class TestWholeNumbers:
    # None is left out where it is the default: generate's seed is then the spec's.
    @pytest.mark.parametrize(
        "argument, bad",
        [
            (argument, bad)
            for argument in WHOLE_ARGUMENTS
            for bad in ("10", 1.5, None)
            if (argument, bad) != ("generate.seed", None)
        ],
    )
    def test_non_integer_rejected_by_name(self, argument, bad):
        call, what = WHOLE_ARGUMENTS[argument]
        with pytest.raises(InputError, match=re.escape(f"{what} must be a whole number, got {bad!r}")):
            call(bad)

    def test_python_and_numpy_integers_pass(self):
        assert mp_threshold(np.int64(10), np.int32(100)) == mp_threshold(10, 100)
        ref, np_ref = mp_density(10, 100, 5), mp_density(np.uint8(10), 100, grid_size=np.int16(5))
        assert ref.grid.tobytes() == np_ref.grid.tobytes()
        panel, _ = generate(_SPEC, seed=np.uint64(3))
        assert panel.values.tobytes() == generate(_SPEC, seed=3)[0].values.tobytes()
        np.testing.assert_array_equal(
            eigenportfolio_series([[1.0], [-1.0]], [1.0], _EYE, np.int64(1)), [[1.0], [-1.0]]
        )


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


def two_pass_eig(matrix):
    """The decomposition as first written: a full tie-break gather, then masked sign flips."""
    a = np.asarray(matrix, dtype=float)
    a = 0.5 * (a + a.T)
    values, vectors = np.linalg.eigh(a)
    values, vectors = values[::-1], vectors[:, ::-1]
    order = np.lexsort((np.abs(vectors).argmax(axis=0), -values))
    values = values[order]
    vectors = vectors[:, order]
    sums = np.ascontiguousarray(vectors.T).sum(axis=1)
    large = np.abs(vectors) > ZERO_SUM_TOL
    first = np.where(
        large.any(axis=0), large.argmax(axis=0), (vectors != 0.0).argmax(axis=0)
    )
    lead = vectors[first, np.arange(vectors.shape[1])]
    flip = (sums < -ZERO_SUM_TOL) | ((np.abs(sums) <= ZERO_SUM_TOL) & (lead < 0.0))
    vectors[:, flip] *= -1.0
    return values, vectors


def _block_ties():
    block = np.array([[1.0, 0.4], [0.4, 1.0]])
    return np.kron(np.eye(3), block)


def _nearly_symmetric():
    a = random_symmetric(np.random.default_rng(23), 40)
    a[3, 17] += 1e-12
    return a


class TestMatchesTwoPassFormula:
    @pytest.mark.parametrize(
        "matrix",
        [
            random_symmetric(np.random.default_rng(20), 1),
            random_symmetric(np.random.default_rng(21), 9),
            random_symmetric(np.random.default_rng(22), 120),
            np.eye(4),
            np.diag([2.0, 1.0, 2.0, -0.0, 0.0]),
            np.ones((5, 5)),
            _block_ties(),
            np.array([[1.0, -0.3], [-0.3, 1.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            _nearly_symmetric(),
        ],
        ids=[
            "random-1", "random-9", "random-120", "identity", "diagonal-ties",
            "all-ones", "repeated-blocks", "zero-sum-pair", "zero-sum-antidiagonal",
            "asymmetric-1e-12",
        ],
    )
    def test_same_bits_and_f_order(self, matrix):
        values, vectors = two_pass_eig(matrix)
        spec = sym_eig_sorted(matrix)
        assert spec.eigenvalues.tobytes() == values.tobytes()
        assert spec.eigenvectors.tobytes() == vectors.tobytes()
        assert spec.eigenvectors.flags.f_contiguous
