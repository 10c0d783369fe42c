import ast
import cmath
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import sovxxz.model
from conftest import hat, make_params, pair_context, poly, rel_dev, rng, table
from sovxxz.errors import ParameterError, SingularEvaluationError
from sovxxz.model import (
    IPI,
    InterpolationBasis,
    ModelParams,
    PI,
    QTable,
    TrigInterpolation,
    a_frak_values,
    canonical_roots,
    coth,
    dist_mod_ipi,
    f_tilde_values,
    half_period_values,
    prod_and_deriv,
    q_structure_residuals,
    q_table,
    residual_grid,
    sinh,
    sinh_cosh,
    sinh_prod,
    sinh_prod_deriv,
    vandermonde_rows,
    wrap_to_strip,
)
from sovxxz.lattice import spectrum_oracle
from sovxxz.spectrum import Spectrum


class TestHalfPeriodTrigPoly:
    """Q(lam) = prod_j sinh((lam - q_j)/2), held as its roots in
    ``canonical_roots`` form and evaluated by ``half_period_values``."""

    def test_vanishes_at_root(self):
        roots = canonical_roots([0.3 + 0.2j, -0.5 - 0.1j])
        assert abs(half_period_values(roots, [0.3 + 0.2j])[0]) < 1e-15

    def test_vanishes_at_root_plus_2pi_i(self):
        roots = canonical_roots([0.3 + 0.2j, -0.5 - 0.1j])
        assert abs(half_period_values(roots, [0.3 + 0.2j + 2j * np.pi])[0]) < 1e-12

    def test_double_periodicity(self):
        g = rng(1)
        roots = canonical_roots([complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(2)])
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        shifted, at_lam = half_period_values(roots, [lam + 2j * np.pi, lam])
        assert rel_dev(shifted, at_lam) < 1e-12

    def test_roots_wrapped_and_sorted(self):
        roots = canonical_roots([0.1 + 4.0j, -0.2 - 3.5j]).tolist()
        assert all(-np.pi < q.imag <= np.pi for q in roots)
        assert roots == sorted(roots, key=lambda z: (z.real, z.imag))

    def test_log_deriv_matches_finite_difference(self):
        # (log Q)'(lam) = sum_j coth((lam - q_j)/2) / 2, the form the
        # Slavnov matrix's same-roots limits evaluate
        roots = canonical_roots([0.3 + 0.2j, -0.5 - 0.1j, 0.9j])
        lam, h = 0.7 - 0.4j, 1e-6
        up, down, at_lam = half_period_values(roots, [lam + h, lam - h, lam])
        fd = (up - down) / (2 * h * at_lam)
        assert abs(0.5 * coth((lam - roots) / 2).sum() - fd) < 1e-6

    def test_stack_of_root_sets_matches_each_row_alone(self):
        # R root sets evaluated at once, at points of their own or at points
        # they share, are bit-equal to each row evaluated alone
        g = rng(16)
        roots = canonical_roots(g.uniform(-1, 1, (5, 3)) + 1j * g.uniform(-1, 1, (5, 3)))
        own = g.uniform(-1, 1, (5, 4)) + 1j * g.uniform(-1, 1, (5, 4))
        shared = own[0]
        for points, rows in ((own, own), (shared, [shared] * 5)):
            stacked = half_period_values(roots, points)
            assert stacked.shape == (5, 4)
            for root_set, at, got in zip(roots, rows, stacked):
                alone = half_period_values(root_set, at)
                assert np.array_equal(alone.view(np.uint64), got.view(np.uint64))


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

    def test_product_and_deriv_together_keep_every_bit(self):
        g = rng(13)
        zs = g.uniform(-2, 2, (2, 3, 5)) + 1j * g.uniform(-2, 2, (2, 3, 5))
        prod, deriv = prod_and_deriv(*sinh_cosh(zs))
        assert np.array_equal(prod.view(np.uint64), sinh_prod(zs).view(np.uint64))
        assert np.array_equal(deriv.view(np.uint64), sinh_prod_deriv(zs).view(np.uint64))

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


def _dev_to_numpy(z):
    """Worst deviation of ``sinh``, and of both halves of ``sinh_cosh``, from
    numpy's complex sinh and cosh at the points ``z``, relative to the
    modulus of numpy's value; an exact zero must be matched exactly."""
    s, c = sinh_cosh(z)
    worst = 0.0
    for got, want in ((sinh(z), np.sinh(z)), (s, np.sinh(z)), (c, np.cosh(z))):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.dtype == np.complex128
        assert np.array_equal(got[want == 0], want[want == 0])
        nonzero = want != 0
        dev = np.abs(got[nonzero] - want[nonzero]) / np.abs(want[nonzero])
        worst = max(worst, float(np.max(dev, initial=0.0)))
    return worst


class TestSinhCosh:
    """The real-ufunc kernel against numpy's complex sinh and cosh, to 1e-15
    relative to the modulus."""

    def test_random_points(self):
        g = rng(81)
        z = g.uniform(-4, 4, 50_000) + 1j * g.uniform(-2 * np.pi, 2 * np.pi, 50_000)
        assert _dev_to_numpy(z) <= 1e-15

    def test_edge_points(self):
        g = rng(82)
        x = g.uniform(-3, 3, 200)
        y = g.uniform(-np.pi, np.pi, 200)
        tiny = 1e-8 * g.uniform(-0.7, 0.7, (2, 200))
        edges = [
            tiny[0] + 1j * tiny[1],  # |z| <= 1e-8
            np.array([1e-8, -1e-8, 1e-8j, -1e-8j, 1e-300, 5e-324j, 3e-9 - 4e-9j]),
            30.0 + 1j * y, -30.0 + 1j * y,  # Re z = +-30
            *(x + 1j * im for im in (np.pi / 2, -np.pi / 2, np.pi, -np.pi)),
            x + 0j, 1j * y,  # purely real, purely imaginary
            np.array([30.0, -30.0, 30 + 1j * np.pi / 2, -30 - 1j * np.pi, 1j * np.pi / 2]),
        ]
        for z in edges:
            assert _dev_to_numpy(z) <= 1e-15

    def test_exact_zero_and_one_at_the_origin(self):
        # coth's pole check compares sinh with 0, so sinh(0) must be 0 exactly
        s, c = sinh_cosh(0j)
        assert s == 0 and c == 1
        assert np.all(sinh(np.zeros((2, 3), dtype=np.complex128)) == 0)
        with pytest.raises(SingularEvaluationError, match="coth evaluated at a pole"):
            coth(0.0)

    def test_shapes_and_scalars(self):
        # a scalar gives a scalar, an array an array of its shape, real input
        # a complex result; the input is left untouched
        assert np.ndim(sinh(0.5)) == 0 and np.ndim(sinh_cosh(0.5 + 1j)[1]) == 0
        z = np.arange(6, dtype=np.complex128).reshape(2, 3) * (0.3 + 0.2j)
        before = z.copy()
        s, c = sinh_cosh(z[:, ::-1])
        assert s.shape == c.shape == (2, 3) and s.dtype == np.complex128
        assert np.array_equal(z, before)
        assert _dev_to_numpy(z[:, ::-1]) <= 1e-15
        assert _dev_to_numpy([0.25, -1.5]) <= 1e-15


    def test_kernel_is_the_one_home_of_complex_sinh_and_cosh(self):
        # every sinh and cosh in the package goes through the kernel: numpy's
        # sinh and cosh are named only inside model.sinh and model.sinh_cosh
        model_py = Path(sovxxz.model.__file__)
        kernel = [range(node.lineno, node.end_lineno + 1)
                  for node in ast.parse(model_py.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and node.name in ("sinh", "sinh_cosh")]
        assert len(kernel) == 2
        stray = [f"{path.name}:{number}: {line.strip()}"
                 for path in sorted(model_py.parent.glob("*.py"))
                 for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if re.search(r"\b(np|numpy)\.(sinh|cosh)\b", line)
                 and not (path == model_py and any(number in lines for lines in kernel))]
        assert not stray, "numpy sinh/cosh outside model.sinh_cosh:\n" + "\n".join(stray)


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
    # the Izergin weight f_tilde(u) = P(u-eta+i*pi) Q(u) / (P(u+i*pi) Q(u-eta))
    # and the Bethe ratio a_frak(u) = d(u) Q(u+eta) / (a(u) Q(u-eta)), each
    # from its *_values evaluator over half_period_values at every point u

    @staticmethod
    def f_tilde(params, pr, qr, u):
        u = np.asarray(u, dtype=np.complex128)
        p_eta_ipi, p_ipi = half_period_values(pr, [u - params.eta + IPI, u + IPI])
        q_u, q_eta = half_period_values(qr, [u, u - params.eta])
        return f_tilde_values(p_eta_ipi, q_u, p_ipi, q_eta)

    @staticmethod
    def a_frak(params, qr, u):
        u = np.asarray(u, dtype=np.complex128)
        return a_frak_values(params.a_fn(u), params.d_fn(u),
                             *half_period_values(qr, [u - params.eta, u + params.eta]))

    def test_ratios_match_direct_products(self, params3):
        g = rng(2)
        p, q = (canonical_roots([complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)])
                for _ in range(2))
        u = 0.9 - 0.55j
        eta = params3.eta

        def direct(roots, lam):
            return np.prod([cmath.sinh((lam - r) / 2) for r in roots])

        f_t = direct(p, u - eta + IPI) * direct(q, u) / (direct(p, u + IPI) * direct(q, u - eta))
        af = params3.d_fn(u) * direct(q, u + eta) / (params3.a_fn(u) * direct(q, u - eta))
        assert rel_dev(self.f_tilde(params3, p, q, [u])[0], f_t) < 1e-12
        assert rel_dev(self.a_frak(params3, q, [u])[0], af) < 1e-12

    def test_f_tilde_vanishes_at_q_root(self, params3, records3):
        q = poly(records3, 0)
        p = poly(records3, 1)
        assert abs(self.f_tilde(params3, p, q, q[:1])[0]) < 1e-12

    def test_f_tilde_equal_functions_is_minus_one_at_nodes(self, params3, records3):
        q = poly(records3, 2)
        assert np.all(abs(self.f_tilde(params3, q, q, params3.xi) + 1.0) < 1e-10)

    def test_singular_denominator_raises(self, params3):
        q = canonical_roots([0.2, -0.3, 0.5])
        u = [q[0] + params3.eta]
        with pytest.raises(SingularEvaluationError):
            self.f_tilde(params3, q, q, u)
        with pytest.raises(SingularEvaluationError):
            self.a_frak(params3, q, u)

    def test_bethe_ratio_is_one_on_certified_roots(self, params3, records3):
        for i in range(len(records3.table)):
            q = poly(records3, i)
            assert np.all(abs(self.a_frak(params3, q, q) - 1.0) < 1e-7)

    def test_bra_ket_ratio_identity_at_nodes(self, params3, records3):
        # Q(xi - eta)/Q(xi) = -Qhat(xi - eta)/Qhat(xi) for certified pairs
        xi = np.asarray(params3.xi)
        points = [xi - params3.eta, xi]
        for i in range(len(records3.table)):
            q_eta, q_x = half_period_values(poly(records3, i), points)
            hat_eta, hat_x = half_period_values(hat(records3, i), points)
            for lhs, rhs in zip(q_eta / q_x, -hat_eta / hat_x):
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
        # every numeric table field is a complex128 array with one row per
        # record, of one value per node or root, the grid one row per
        # residual-grid point
        n, grid = params3.n, residual_grid(params3)
        self.assert_read_only(grid, (3, 4 * n + 5))
        g = rng(12)
        bare = table(params3, canonical_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(n)]))
        for q, count, points in [(records3.table, 8, grid.shape[1]), (bare, 1, 0)]:
            for name in self.ROWS + ("roots", "hat"):
                self.assert_read_only(getattr(q, name), (count, n))
            assert q.grid.shape == (count, points, 6) and q.grid.dtype == np.complex128
            assert not q.grid.flags.writeable
        assert bare.tau is None and "poly" not in {f.name for f in fields(bare)}

    def test_fields_share_the_batch_arrays(self, params3, basis3, records3):
        # every field of one value per node or root is a view of the one
        # batch evaluation; tau is the oracle's array itself; a pair
        # context holds P's fields as field[:, None] and Q's as field[None]
        # views, with no copies
        t = records3.table
        for name in self.ROWS[1:]:
            assert getattr(t, name).base is t.x.base is not None
        taus, _ = spectrum_oracle(params3, basis3.at_xi)
        assert np.shares_memory(q_table(params3, t.roots, taus, []).tau, taus)
        context = pair_context(params3, records3, [0, 2, 5], [1, 2, 7])
        p, q = context.tables
        for name in self.ROWS + ("roots", "hat", "tau", "grid"):
            p_view, q_view = getattr(context.p, name), getattr(context.q, name)
            assert p_view.shape[:2] == (3, 1) and q_view.shape[:2] == (1, 3)
            assert np.shares_memory(p_view, getattr(p, name))
            assert np.shares_memory(q_view, getattr(q, name))
        assert context.pr is context.p.roots and context.qr is context.q.roots
        assert [np.shares_memory(v, w.tau) for v, w in zip(context.tau_values, context.tables)] \
            == [True, True]

    def test_record_blocks_match_one_batch(self, monkeypatch, params3, records3):
        # with a budget of three and a half records, the 8 records are built
        # in blocks of 3, 3 and 2, and every field equals, bit for bit, the
        # table built in one block
        t, grid = records3.table, residual_grid(params3)
        evaluate, blocks = sovxxz.model._q_fields, []

        def counted(params, r, lam):
            blocks.append(len(r))
            return evaluate(params, r, lam)

        monkeypatch.setattr(sovxxz.model, "_q_fields", counted)
        n = params3.n
        record_bytes = (4 * n + 3 * n + 3 * grid.shape[1]) * n * 16
        budgets = {1: 1 << 40, 3: 7 * record_bytes // 2}
        tables = {}
        for step, budget in budgets.items():
            monkeypatch.setattr(sovxxz.model, "Q_TABLE_BLOCK_BYTES", budget)
            blocks.clear()
            tables[step] = q_table(params3, t.roots, t.tau, grid)
            assert blocks == ([8] if step == 1 else [3, 3, 2])
        for f in fields(QTable):
            got, want = getattr(tables[3], f.name), getattr(tables[1], f.name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), f.name
            assert not got.flags.writeable
        # every field of one value per node or root stays a view of one array
        for name in self.ROWS[1:]:
            assert getattr(tables[3], name).base is tables[3].x.base is not None

    def test_no_record_keeps_tau_at_xi(self, records3):
        # tau(xi_k) lives in the table's tau alone
        assert "tau_at_xi" not in {f.name for f in fields(Spectrum)}
        assert not hasattr(records3, "tau_at_xi")
        assert records3.table.tau.shape == (8, 3)


class TestStructureResiduals:
    def test_certified_q_passes_wronskian_and_sum_rule(self, params3, records3):
        wronskian, sign, defect, k = q_structure_residuals(
            records3.table, params3, residual_grid(params3))
        assert np.all(wronskian < 1e-8) and np.all(defect < 1e-8)
        assert set(sign) <= {-1, 1}
        assert records3.wronskian_sign.tolist() == sign.tolist()
        assert records3.sum_rule_k.tolist() == k.tolist()

    def test_n1_midpoint_root_has_zero_defect(self):
        params = make_params(1)
        roots = canonical_roots([params.xi[0] - params.eta / 2])
        grid = residual_grid(params)
        _, _, defect, k = q_structure_residuals(q_table(params, [roots], None, grid),
                                                params, grid)
        assert defect[0] < 1e-14
        assert k[0] == 0


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


def test_canonical_roots_match_the_scalar_formula():
    # the array wrap equals, bit for bit, complex(re, im + 2*pi*floor((pi - im)/(2*pi)))
    # per element, on random roots, Im = +-pi, exact multiples of 2*pi and
    # signed zeros; a stack canonicalizes each row as that row alone
    def scalar(z):
        return complex(z.real, z.imag + 2 * np.pi * np.floor((np.pi - z.imag) / (2 * np.pi)))

    def bits(z):
        return np.asarray(z, dtype=np.complex128).view(np.uint64)

    g = rng(13)
    edges = [complex(re, im) for re in (0.0, -0.0, 0.7)
             for im in (np.pi, -np.pi, 0.0, -0.0, 2 * np.pi, -2 * np.pi, 4 * np.pi, 3 * np.pi)]
    z = np.concatenate([edges, g.uniform(-3, 3, 400) + 1j * g.uniform(-20, 20, 400)])
    wrapped = wrap_to_strip(z)
    assert np.array_equal(bits(wrapped), bits([scalar(w) for w in z]))
    assert np.all((-np.pi < wrapped.imag) & (wrapped.imag <= np.pi))
    stack = z.reshape(-1, 8)
    canon = canonical_roots(stack)
    for row, got in zip(stack, canon):
        want = sorted((scalar(w) for w in row), key=lambda w: (w.real, w.imag))
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(got), bits(canonical_roots(row)))


def test_vandermonde_rows_wide_matches_numpy_median():
    # the median from a sort picks the same wide rows as np.median: on random
    # real parts and on half-integer ones, whose ties put points exactly 4
    # from the median
    g = rng(15)
    at_threshold = 0
    for trial in range(4000):
        m = int(g.integers(1, 9))
        re = g.uniform(-6, 6, m) if trial % 2 else g.integers(-12, 13, m) / 2
        x = re + 1j * g.uniform(-0.4, 0.4, m)
        center = np.median(x.real)
        at_threshold += bool(np.any(np.abs(x.real - center) == 4.0))
        assert vandermonde_rows(x, 0.6 + 0.35j).wide == \
            [i for i in range(m) if abs(x[i].real - center) > 4.0]
    assert at_threshold > 100


def test_vandermonde_rows_match_the_scalar_loop():
    # the broadcast rows equal, bit for bit, one np.exp per entry, also on
    # rows far out, near Re x = 30
    def loop(x, eta):
        m = len(x)
        at_x, at_x_eta = np.zeros((2, m, m), dtype=np.complex128)
        for i in range(m):
            for j in range(1, m + 1):
                p = 2 * j - m - 1
                at_x[i, j - 1] = np.exp(p * x[i])
                at_x_eta[i, j - 1] = np.exp(p * (x[i] - eta))
        return at_x, at_x_eta

    g = rng(14)
    for m in range(1, 9):
        for far in (False, True):
            x = g.uniform(-3, 3, m) + 1j * g.uniform(-4, 4, m)
            if far:
                x[-1] += 30
            eta = complex(g.uniform(-1, 1), g.uniform(-2, 2))
            rows = vandermonde_rows(x, eta)
            for got, want in zip((rows.at_x, rows.at_x_eta), loop(x, eta)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_residual_grid_matches_the_scalar_rejection_loop():
    # candidates drawn in blocks are the stream of one (real, imag) pair per
    # candidate, accepted in the same order: the same points, bit for bit,
    # also where delta_min is wide enough to reject some and draw a second
    # block
    def loop(params):
        g = np.random.default_rng(20240)
        avoid = params.forbidden_points()
        pts, rejected = [], 0
        while len(pts) < 4 * params.n + 5:
            z = complex(g.uniform(-1.5, 1.5), g.uniform(-0.45 * PI, 0.45 * PI))
            if dist_mod_ipi(z, avoid).min() >= params.delta_min:
                pts.append(z)
            else:
                rejected += 1
        return np.array(pts, dtype=np.complex128), rejected

    rejected = 0
    for n in range(1, 9):
        for seed in range(1, 6):
            params = make_params(n, seed)
            for delta_min in (params.delta_min, min(0.35, params.min_xi_separation())):
                wide = replace(params, delta_min=delta_min)
                want, dropped = loop(wide)
                grid = residual_grid(wide)
                rejected += dropped
                assert np.array_equal(grid[0].view(np.uint64), want.view(np.uint64))
                assert np.array_equal(grid[1:], np.stack([wide.a_fn(want), wide.d_fn(want)]))
    assert rejected > 50
