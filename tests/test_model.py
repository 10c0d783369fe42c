import cmath
from dataclasses import fields

import numpy as np
import pytest

from conftest import make_params, rel_dev, rng, table
from sovxxz.errors import ParameterError, SingularEvaluationError
from sovxxz.lattice import OracleRecord
from sovxxz.model import (
    IPI,
    HalfPeriodTrigPoly,
    InterpolationBasis,
    ModelParams,
    TrigInterpolation,
    a_frak,
    coth,
    dist_mod_ipi,
    f_tilde,
    q_structure_residuals,
    q_table,
    residual_grid,
    sinh_prod,
    sinh_prod_deriv,
    wrap_to_strip,
)
from sovxxz.spectrum import EigenRecord


class TestHalfPeriodTrigPoly:
    def test_vanishes_at_root(self):
        poly = HalfPeriodTrigPoly.from_roots([0.3 + 0.2j, -0.5 - 0.1j])
        assert abs(poly(0.3 + 0.2j)) < 1e-15

    def test_vanishes_at_root_plus_2pi_i(self):
        poly = HalfPeriodTrigPoly.from_roots([0.3 + 0.2j, -0.5 - 0.1j])
        assert abs(poly(0.3 + 0.2j + 2j * np.pi)) < 1e-12

    def test_double_periodicity(self):
        g = rng(1)
        poly = HalfPeriodTrigPoly.from_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(2)])
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        assert rel_dev(poly(lam + 2j * np.pi), poly(lam)) < 1e-12

    def test_roots_wrapped_and_sorted(self):
        poly = HalfPeriodTrigPoly.from_roots([0.1 + 4.0j, -0.2 - 3.5j])
        assert all(-np.pi < q.imag <= np.pi for q in poly.roots)
        assert list(poly.roots) == sorted(poly.roots, key=lambda z: (z.real, z.imag))

    def test_log_deriv_matches_finite_difference(self):
        poly = HalfPeriodTrigPoly.from_roots([0.3 + 0.2j, -0.5 - 0.1j, 0.9j])
        lam, h = 0.7 - 0.4j, 1e-6
        fd = (poly(lam + h) - poly(lam - h)) / (2 * h * poly(lam))
        assert abs(poly.log_deriv(lam) - fd) < 1e-6


class TestSinhProd:
    def test_matches_numpy_product(self):
        # along the last axis: a stack of argument sets gives a stack of products
        g = rng(11)
        for size in range(5):
            zs = g.uniform(-2, 2, (3, size)) + 1j * g.uniform(-2, 2, (3, size))
            got = sinh_prod(zs)
            assert got.shape == (3,)
            for row, value in zip(zs, got):
                assert rel_dev(value, np.prod(np.sinh(row))) < 1e-14
                assert rel_dev(sinh_prod(list(row)), value) < 1e-14

    def test_deriv_matches_central_difference(self):
        g = rng(12)
        zs = np.array([complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(4)])
        lam = np.array([0.2 - 0.3j, -0.4 + 0.1j])[:, None]
        h = 1e-6
        fd = (sinh_prod(lam + h + zs) - sinh_prod(lam - h + zs)) / (2 * h)
        got = sinh_prod_deriv(lam + zs)
        assert got.shape == (2,)
        assert all(rel_dev(a, b) < 1e-8 for a, b in zip(got, fd))

    def test_deriv_finite_at_a_zero_of_one_factor(self):
        # at z_0 = 0 the log-derivative sum of coth(z_m) divides by sinh(0);
        # the product rule leaves cosh(0) prod_{m > 0} sinh(z_m)
        zs = [0.0j, 0.4 + 0.1j, -0.7 + 0.5j]
        want = np.sinh(zs[1]) * np.sinh(zs[2])
        assert sinh_prod(zs) == 0
        assert rel_dev(sinh_prod_deriv(zs), want) < 1e-15

    def test_coth_refuses_a_pole_in_an_array(self):
        with pytest.raises(SingularEvaluationError, match="coth evaluated at a pole"):
            coth(np.array([0.3 + 0.1j, 0.0j]))
        assert rel_dev(coth(0.3 + 0.1j), np.cosh(0.3 + 0.1j) / np.sinh(0.3 + 0.1j)) < 1e-15


class TestModelParams:
    def test_commensurate_eta_rejected(self):
        with pytest.raises(ParameterError):
            make_params(2, eta=1j * np.pi / 2)

    def test_coincident_xi_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams(n=2, eta=0.6 + 0.35j, xi=(0.1 + 0.0j, 0.1 + 0.0j))

    def test_xi_collision_mod_ipi_rejected(self):
        with pytest.raises(ParameterError):
            ModelParams(n=2, eta=0.6 + 0.35j,
                        xi=(0.1 + 0.2j, 0.1 + 0.2j + 1j * np.pi))

    def test_min_xi_separation_is_the_pairwise_minimum(self):
        # the smallest distance mod i*pi between a point of {xi_i, xi_i - eta}
        # and one of {xi_j, xi_j - eta}, i != j; a single node gives inf
        g = rng(13)
        eta = 0.6 + 0.35j
        assert ModelParams(n=1, eta=eta, xi=(0.2 + 0.1j,)).min_xi_separation() == np.inf
        for n in range(2, 9):
            xi = tuple(complex(g.uniform(-1, 1), g.uniform(-3, 3)) for _ in range(n))
            params = ModelParams(n=n, eta=eta, xi=xi, delta_min=1e-9)
            sets = [(x, x - eta) for x in xi]
            ref = min(dist_mod_ipi(a, b) for i in range(n) for j in range(n) if i != j
                      for a in sets[i] for b in sets[j])
            assert rel_dev(params.min_xi_separation(), ref) < 1e-14

    def test_zero_twist_rejected(self):
        with pytest.raises(ParameterError):
            make_params(2, kappa=0.0)

    def test_model_fn_zeros(self, params3):
        assert abs(params3.d_fn(params3.xi[0])) < 1e-15
        assert abs(params3.a_fn(params3.xi[0] - params3.eta)) < 1e-15

    def test_d_equals_shifted_a(self, params3):
        lam = 0.37 + 0.21j
        a = params3.a_fn(lam - params3.eta)
        d = params3.d_fn(lam)
        assert rel_dev(a, d) < 1e-14

    def test_prime_matches_finite_difference(self, params3):
        lam, h = 0.4 - 0.3j, 1e-6
        fd_d = (params3.d_fn(lam + h) - params3.d_fn(lam - h)) / (2 * h)
        assert abs(params3.d_prime(lam) - fd_d) < 1e-6


class TestRatios:
    def test_ratios_match_direct_products(self, params3):
        g = rng(2)
        p = HalfPeriodTrigPoly.from_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)])
        q = HalfPeriodTrigPoly.from_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)])
        u = 0.9 - 0.55j
        eta = params3.eta
        f_t = p(u - eta + IPI) * q(u) / (p(u + IPI) * q(u - eta))
        af = params3.d_fn(u) * q(u + eta) / (params3.a_fn(u) * q(u - eta))
        assert rel_dev(f_tilde(params3, p, q, u), f_t) < 1e-12
        assert rel_dev(a_frak(params3, q, u), af) < 1e-12

    def test_f_tilde_vanishes_at_q_root(self, params3, records3):
        q = records3[0].q_poly
        p = records3[1].q_poly
        assert abs(f_tilde(params3, p, q, q.roots[0])) < 1e-12

    def test_f_tilde_equal_functions_is_minus_one_at_nodes(self, params3, records3):
        q = records3[2].q_poly
        for x in params3.xi:
            assert abs(f_tilde(params3, q, q, x) + 1.0) < 1e-10

    def test_singular_denominator_raises(self, params3):
        q = HalfPeriodTrigPoly.from_roots([0.2, -0.3, 0.5])
        u = q.roots[0] + params3.eta
        with pytest.raises(SingularEvaluationError):
            f_tilde(params3, q, q, u)
        with pytest.raises(SingularEvaluationError):
            a_frak(params3, q, u)

    def test_bethe_ratio_is_one_on_certified_roots(self, params3, records3):
        for rec in records3:
            for root in rec.q_poly.roots:
                assert abs(a_frak(params3, rec.q_poly, root) - 1.0) < 1e-7

    def test_bra_ket_ratio_identity_at_nodes(self, params3, records3):
        # Q(xi - eta)/Q(xi) = -Qhat(xi - eta)/Qhat(xi) for certified pairs
        for rec in records3:
            for x in params3.xi:
                lhs = rec.q_poly(x - params3.eta) / rec.q_poly(x)
                rhs = -rec.table.hat(x - params3.eta) / rec.table.hat(x)
                assert rel_dev(lhs, rhs) < 1e-8


class TestTableLayout:
    ROWS = ("x", "x_eta", "x_ipi", "x_eta_ipi", "a_r", "d_r", "exp_r",
            "r_eta", "r_eta_plus", "r_ipi", "sinh_x")

    @staticmethod
    def assert_read_only(values, shape):
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.complex128 and values.shape == shape
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0

    def test_tables_and_grid_are_read_only_arrays(self, params3, records3):
        # every numeric table row is a complex128 array of one value per
        # node or root, the grid one row per residual-grid point
        n, grid = params3.n, residual_grid(params3)
        self.assert_read_only(grid, (3, 4 * n + 5))
        g = rng(12)
        bare = table(params3, HalfPeriodTrigPoly.from_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(n)]))
        for q, points in [(records3[0].table, grid.shape[1]), (bare, 0)]:
            for name in self.ROWS:
                self.assert_read_only(getattr(q, name), (n,))
            assert q.grid.shape == (points, 5) and q.grid.dtype == np.complex128
            assert not q.grid.flags.writeable

    def test_no_record_keeps_tau_at_xi(self, records3):
        # tau(xi_k) lives in tau.values alone
        for cls in (OracleRecord, EigenRecord):
            assert "tau_at_xi" not in {f.name for f in fields(cls)}
        assert not hasattr(records3[0], "tau_at_xi")


class TestStructureResiduals:
    def test_certified_q_passes_wronskian_and_sum_rule(self, params3, records3):
        grid = residual_grid(params3)
        for rec in records3:
            report = q_structure_residuals(rec.table, params3, grid)
            assert report.wronskian_residual < 1e-8
            assert report.sum_rule_defect < 1e-8
            assert report.wronskian_sign in (-1, 1)

    def test_n1_midpoint_root_has_zero_defect(self):
        params = make_params(1)
        poly = HalfPeriodTrigPoly.from_roots([params.xi[0] - params.eta / 2])
        grid = residual_grid(params)
        report = q_structure_residuals(q_table(params, poly, None, grid), params, grid)
        assert report.sum_rule_defect < 1e-14
        assert report.sum_rule_k == 0


class TestTrigInterpolation:
    def test_reproduces_nodes_and_derivative(self, params3):
        g = rng(6)
        vals = [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)]
        interp = TrigInterpolation(InterpolationBasis(params3.xi), vals)
        for x, v in zip(params3.xi, vals):
            assert rel_dev(interp(x), v) < 1e-12
        lam, h = 0.3 + 0.4j, 1e-6
        fd = (interp(lam + h) - interp(lam - h)) / (2 * h)
        assert abs(interp.deriv(lam) - fd) < 1e-6

    def test_call_equals_per_term_formula(self):
        # the interpolant is one weight row per point against the node
        # values: at an array of points, nodes and signed zeros included, it
        # equals the per-term formula, and a scalar call equals its entry of
        # the array call
        g = rng(10)
        for n in range(1, 9):
            xi = [complex(g.uniform(-1, 1), g.uniform(-0.4, 0.4)) for _ in range(n)]
            interp = TrigInterpolation(InterpolationBasis(xi), [
                complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(n)])
            points = [0.3 + 0.4j, complex(0.25, -0.0), complex(-0.0, 0.1), *xi]
            got = interp(np.array(points))
            for lam, value in zip(points, got):
                ref = 0.0 + 0.0j
                for j, xj in enumerate(xi):
                    num = den = 1.0 + 0.0j
                    for k, xk in enumerate(xi):
                        if k != j:
                            num *= cmath.sinh(lam - xk)
                            den *= cmath.sinh(xj - xk)
                    ref += interp.values[j] * num / den
                assert rel_dev(value, ref) < 1e-13
                assert rel_dev(interp(lam), value) < 1e-14

    def test_quasi_periodicity(self, params3):
        g = rng(8)
        vals = [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)]
        interp = TrigInterpolation(InterpolationBasis(params3.xi), vals)
        lam = 0.21 - 0.13j
        assert rel_dev(interp(lam + 1j * np.pi),
                       (-1.0) ** (params3.n - 1) * interp(lam)) < 1e-12


def test_wrap_to_strip():
    assert abs(wrap_to_strip(0.5 + 7j) - (0.5 + (7 - 2 * np.pi) * 1j)) < 1e-15
    assert wrap_to_strip(0.5 + 1j * np.pi) == 0.5 + 1j * np.pi
    assert abs(wrap_to_strip(0.5 - 1j * np.pi) - (0.5 + 1j * np.pi)) < 1e-15
