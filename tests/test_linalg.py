import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sovxxz import linalg
from sovxxz.errors import ConvergenceError, DimensionError
from sovxxz.linalg import det_lu, eig_dense, roots_monic
from sovxxz.model import vandermonde


def cofactor_det(m: np.ndarray) -> complex:
    """Recursive cofactor expansion along the first row (test oracle)."""
    n = m.shape[0]
    if n == 1:
        return complex(m[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDet:
    def test_identity(self):
        assert det_lu(np.eye(4)) == pytest.approx(1.0)

    def test_row_swap(self):
        assert det_lu(np.array([[0, 1], [1, 0]])) == pytest.approx(-1.0)

    def test_matches_cofactor_expansion(self):
        rng = np.random.default_rng(42)
        m = random_complex(rng, (6, 6))
        expected = cofactor_det(m)
        assert abs(det_lu(m) - expected) <= 1e-12 * abs(expected)

    def test_singular_matrix_gives_zero(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        assert abs(det_lu(m)) < 1e-14

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            det_lu(np.ones((2, 3)))

    def test_non_finite_raises(self):
        for bad in (np.inf, complex(0, np.nan)):
            with pytest.raises(DimensionError):
                det_lu(np.array([[bad, 0], [0, 1]]))

    def test_stack_equals_each_matrix_alone(self):
        # one call over a (..., n, n) stack gives the (...) array of each
        # matrix's own determinant to the bit, from an array or a list of
        # matrices; one matrix gives a complex
        def bits(values):
            return [(complex(v).real.hex(), complex(v).imag.hex()) for v in np.ravel(values)]

        rng = np.random.default_rng(5)
        for lead, n in [((1,), 1), ((3,), 3), ((5,), 4), ((2,), 6), ((2, 3), 3), ((2, 3), 5)]:
            stack = random_complex(rng, lead + (n, n)) \
                * 10.0 ** rng.uniform(-3, 3, lead + (1, 1))
            dets = det_lu(stack)
            assert isinstance(dets, np.ndarray) and dets.shape == lead
            assert bits(dets) == bits([det_lu(m) for m in stack.reshape(-1, n, n)])
            assert all(type(det_lu(m)) is complex for m in stack.reshape(-1, n, n))
            assert bits(det_lu(stack.tolist())) == bits(dets)

    def test_stack_with_a_bad_matrix_raises(self):
        good = np.eye(3, dtype=complex)
        for bad in (np.inf, complex(0, np.nan)):
            m = good.copy()
            m[1, 2] = bad
            with pytest.raises(DimensionError):
                det_lu([good, m, good])
        for shape in ((2, 3, 4), (2, 2, 2, 3), (4,)):
            with pytest.raises(DimensionError):
                det_lu(np.ones(shape))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, (5, 5))
        b = random_complex(rng, (5, 5))
        lhs = det_lu(a @ b)
        rhs = det_lu(a) * det_lu(b)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


class TestVandermonde:
    def test_single_point(self):
        assert vandermonde([0.3 + 0.1j]) == pytest.approx(1.0)

    def test_empty(self):
        assert vandermonde([]) == pytest.approx(1.0)

    def test_two_points(self):
        x1, x2 = 0.2 - 0.1j, -0.4 + 0.3j
        assert vandermonde([x1, x2]) == pytest.approx(np.sinh(x2 - x1))

    def test_matches_exponential_determinant(self):
        rng = np.random.default_rng(11)
        xs = random_complex(rng, 4) * 0.5
        n = 4
        mat = np.array([[np.exp((2 * (j + 1) - n - 1) * xs[i]) / 2**j
                         for j in range(n)] for i in range(n)])
        expected = det_lu(mat)
        assert abs(vandermonde(xs) - expected) <= 1e-11 * abs(expected)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_antisymmetric_under_swap(self, seed, i, j):
        rng = np.random.default_rng(seed)
        xs = list(random_complex(rng, 4) * 0.7)
        base = vandermonde(xs)
        xs[i], xs[j] = xs[j], xs[i]
        swapped = vandermonde(xs)
        expected = -base if i != j else base
        assert abs(swapped - expected) <= 1e-13 * max(abs(base), 1e-30)


def monic_coeffs(roots) -> np.ndarray:
    """(c_0, ..., c_{N-1}) of prod_k (W - roots_k)."""
    return np.poly(np.asarray(roots, dtype=np.complex128))[:0:-1]


def monic_values(coeffs, w) -> np.ndarray:
    """The monic polynomial of ``coeffs`` at each point of ``w``, by Horner."""
    acc = np.ones_like(w)
    for c in reversed(coeffs):
        acc = acc * w + c
    return acc


class TestRootsMonic:
    def test_quadratic_pm_one(self):
        roots = roots_monic([-1.0 + 0j, 0.0 + 0j])  # W^2 - 1
        assert np.allclose(roots, [-1.0, 1.0])

    def test_factored_quadratic(self):
        roots = roots_monic(monic_coeffs([2.0, 3.0]))
        assert np.allclose(roots, [2.0, 3.0])

    def test_degree_zero(self):
        assert roots_monic(np.zeros(0)).size == 0

    def test_seeded_degree8_residuals(self):
        rng = np.random.default_rng(5)
        coeffs = random_complex(rng, 8)
        roots = roots_monic(coeffs)
        scale = 1.0 + np.max(np.abs(coeffs))
        assert np.all(np.abs(monic_values(coeffs, roots)) < 1e-10 * scale)

    def test_stack_equals_each_alone(self, monkeypatch):
        # a (2, 3, 5) stack of coefficient rows: one eigensolve, each row's
        # roots as that polynomial alone gives them; a residual refusal
        # names the first offending polynomial of the stack
        rng = np.random.default_rng(11)
        coeffs = random_complex(rng, (2, 3, 5))
        roots = roots_monic(coeffs)
        assert roots.shape == (2, 3, 5)
        for at in np.ndindex(2, 3):
            assert np.array_equal(roots[at], roots_monic(coeffs[at].copy()))
        monkeypatch.setattr(linalg, "ROOT_RESIDUAL_TOL", 1e-30)
        with pytest.raises(ConvergenceError, match=r"exceeds 1\.0e-30 \* ") as err:
            roots_monic(coeffs)
        assert err.value.at == (0, 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_roundtrip_reproduces_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = monic_coeffs(random_complex(rng, 5))
        rebuilt = monic_coeffs(roots_monic(coeffs))
        scale = max(np.max(np.abs(coeffs)), 1.0)
        assert np.all(np.abs(coeffs - rebuilt) <= 1e-9 * scale)


class TestEigDense:
    def test_diagonal(self):
        vals, vecs = eig_dense(np.diag([1.0, 2.0j, -3.0]))
        assert np.allclose(vals, [-3.0, 2.0j, 1.0])
        for k in range(3):
            col = vecs[:, k]
            assert abs(np.max(np.abs(col)) - 1.0) < 1e-12

    def test_sigma_x(self):
        vals, _ = eig_dense(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(vals, [-1.0, 1.0])

    def test_seeded_16x16_residuals(self):
        rng = np.random.default_rng(99)
        m = random_complex(rng, (16, 16))
        vals, vecs = eig_dense(m)
        for k in range(16):
            resid = np.linalg.norm(m @ vecs[:, k] - vals[k] * vecs[:, k])
            assert resid < 1e-9 * np.linalg.norm(m)

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, (12, 12))
        vals, _ = eig_dense(m)
        assert abs(np.sum(vals) - np.trace(m)) <= 1e-10 * abs(np.trace(m))

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            eig_dense(np.eye(4), max_dim=2)

    def test_phase_convention_reproducible(self):
        rng = np.random.default_rng(17)
        m = random_complex(rng, (8, 8))
        _, v1 = eig_dense(m)
        _, v2 = eig_dense(m.copy())
        assert np.allclose(v1, v2)

    def test_residual_guard_raises(self):
        rng = np.random.default_rng(2)
        m = random_complex(rng, (6, 6))
        with pytest.raises(ConvergenceError):
            eig_dense(m, tol=1e-30)
