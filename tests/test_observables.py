import cmath
import itertools
import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    KAPPA2,
    certified_chain,
    make_params,
    norm_scales,
    pair_context,
    poly,
    rel_dev,
    rng,
    table,
    tau,
)
from paper_forms import matel_b, matel_d, product_matrix, sp_product_check, sp_same_q
import sovxxz.cli as cli
from sovxxz import observables as obs
from sovxxz.config import load_config
from sovxxz.errors import ParameterError, SingularEvaluationError
from sovxxz.lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    local_op,
    monodromy_entries,
)
from sovxxz.linalg import det_lu
from sovxxz.model import (
    IPI,
    InterpolationBasis,
    canonical_roots,
    coth,
    dist_mod_2ipi,
    half_period_values,
    q_table,
    vandermonde_rows,
)
from sovxxz.sov import SovBasis, matrix_element, separate_state
from sovxxz.spectrum import tau_hat, tau_hat_deriv


def random_roots(g, n, box=1.0):
    """The roots, in ``canonical_roots`` form, of a random polynomial."""
    return canonical_roots([complex(g.uniform(-box, box), g.uniform(-box, box))
                            for _ in range(n)])


def bare_pair(params, p, q):
    """The 1 x 1 pair context of two polynomials that carry no eigenvalue."""
    return obs.PairContext(params, table(params, p), table(params, q))


def sp_sov_sum(basis, p, q, alpha):
    """Literal 2^N sum over the SoV labels of ``basis`` (the definition of the
    scalar product) of the tables ``p`` and ``q``."""
    ratio = alpha * (p.x * q.x) / (p.x_eta * q.x_eta)
    terms = np.where(basis.labels, 1.0, ratio).prod(axis=1)
    # V(xi_m - (1 - h_m) eta) is v_h of the complement label 1 - h
    return complex(np.sum(terms * basis.v_h[::-1]) / basis.v_h[0])


def s_gamma(u, gamma):
    """sinh((u + gamma)/2) / (sinh(u/2) sinh(gamma/2)), the kernel of the
    gamma deformation of the root-labelled matrix."""
    return cmath.sinh((u + gamma) / 2) / (cmath.sinh(u / 2) * cmath.sinh(gamma / 2))


def phat_over_sinh(pr, k, qj):
    """P(q_j + i*pi) / sinh(p_k - q_j) in product form, for the roots ``pr``
    of P: with w = q_j + i*pi, prod_{l != k} sinh((w - p_l)/2) / (2 cosh((w - p_k)/2))."""
    w = qj + IPI
    num = 1.0 + 0.0j
    for l, pl in enumerate(pr):
        if l != k:
            num *= cmath.sinh((w - pl) / 2)
    return num / (2 * cmath.cosh((w - pr[k]) / 2))


def slavnov_reference(params, table, ip, iq, alpha, gamma=None):
    """The root-labelled matrix at ``alpha`` of the P record ``ip`` and the Q
    record ``iq`` of ``table``, one scalar entry at a time (rows follow
    Q-roots, columns P-roots).  It reads a, d, P and Q at the roots from the
    table, as the halves do (test_table_equals_fresh_evaluation checks those
    values).  With ``gamma`` it is the paper's one-parameter deformation:
    every coth(u/2) kernel becomes s_gamma(u), and a same-roots entry gains
    alpha a_frak_Q(q_j) coth(gamma/2)."""
    eta = params.eta
    pt, qt = table.take(ip), table.take(iq)
    pr, qr = pt.roots, qt.roots

    def kern(u):
        return coth(u / 2) if gamma is None else s_gamma(u, gamma)

    def entry(j, k):
        pk, qj = pr[k], qr[j]
        if dist_mod_2ipi(pk, qj) < 1e-9:
            afrak_q = qt.d_r[j] * qt.r_eta_plus[j] / (qt.a_r[j] * qt.r_eta[j])
            # (log Q)'(lam) = sum_l coth((lam - q_l)/2) / 2
            log_q = [0.5 * coth((lam - qr) / 2).sum() for lam in (qj + eta, qj + IPI)]
            limit = 2 * alpha * afrak_q * (sum(log_q) - params.a_log_deriv(qj))
            deformed = 0 if gamma is None else alpha * afrak_q * coth(gamma / 2)
            return kern(pk - qj - eta) + deformed + limit
        if ip == iq:
            q_minus, q_plus = qt.r_eta[k], qt.r_eta_plus[k]
        else:
            q_minus, q_plus = half_period_values(qr, [pk - eta, pk + eta])
        afrak_p = pt.d_r[k] * q_plus / (pt.a_r[k] * q_minus)
        mid = alpha * afrak_p * kern(pk - qj)
        cross = -2 * alpha * (pt.d_r[k] * qt.r_eta_plus[j]
                              / (qt.a_r[j] * q_minus * pt.r_ipi[k])) \
            * phat_over_sinh(pr, k, qj)
        return kern(pk - qj - eta) + mid + cross

    n = params.n
    return np.array([[entry(j, k) for k in range(n)] for j in range(n)])


class TestScalarProductDirect:
    def test_n1_closed_form(self):
        params = make_params(1)
        g = rng(51)
        p = random_roots(g, 1)
        q = random_roots(g, 1)
        alpha = 0.7 - 0.2j
        x, eta = params.xi[0], params.eta
        p_x, p_x_eta = half_period_values(p, [x, x - eta])
        q_x, q_x_eta = half_period_values(q, [x, x - eta])
        expected = 1 + alpha * p_x * q_x / (p_x_eta * q_x_eta)
        assert rel_dev(obs.sp_direct(bare_pair(params, p, q), alpha)[0, 0], expected) < 1e-13

    def test_matches_exhaustive_sum(self, params3, basis3):
        g = rng(52)
        p = random_roots(g, 3)
        q = random_roots(g, 3)
        alpha = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        a = obs.sp_direct(bare_pair(params3, p, q), alpha)[0, 0]
        b = sp_sov_sum(basis3, table(params3, p), table(params3, q), alpha)
        assert rel_dev(a, b) < 1e-10

    def test_matches_embedded_inner_product(self, params3, basis3):
        g = rng(53)
        p = random_roots(g, 3)
        q = random_roots(g, 3)
        # the ket at a negative twist, the paper's eps' = -1
        kappa, kappa2 = params3.kappa, -KAPPA2
        bra = separate_state(basis3, table(params3, p), kappa, "bra")
        ket = separate_state(basis3, table(params3, q), kappa2, "ket")
        assert rel_dev(obs.sp_direct(bare_pair(params3, p, q), kappa2 / kappa)[0, 0],
                       bra.embedded[0] @ ket.embedded[0]) < 1e-9

    def test_stacked_functional_equals_each(self, params3):
        # a stack of f gives each f's functional, also when a far node
        # forces the Laplace expansion along its row
        g = rng(68)
        for xs in (list(params3.xi), [*params3.xi, 30.0]):
            rows = vandermonde_rows(xs, params3.eta)
            f = g.uniform(-1, 1, (2, 3, len(xs))) + 1j * g.uniform(-1, 1, (2, 3, len(xs)))
            got = obs._dressed_vandermonde(rows, f)
            assert got.shape == (2, 3)
            for at in np.ndindex(2, 3):
                assert rel_dev(got[at], obs.a_functional(xs, f[at], params3.eta)) <= 1e-13


class TestScalarProductIzergin:
    def test_alpha_zero_is_one(self, params3):
        g = rng(54)
        p = random_roots(g, 3)
        q = random_roots(g, 3)
        assert obs.sp_izergin(bare_pair(params3, p, q), 0.0)[0, 0] == pytest.approx(1.0)

    def test_agrees_with_direct_for_generic_functions(self, params3):
        # only the root-location condition is needed here, not eigen data
        g = rng(55)
        for _ in range(3):
            p = random_roots(g, 3)
            q = random_roots(g, 3)
            alpha = complex(g.uniform(-1, 1), g.uniform(-1, 1))
            pair = bare_pair(params3, p, q)
            a = obs.sp_direct(pair, alpha)[0, 0]
            b = obs.sp_izergin(pair, alpha)[0, 0]
            assert rel_dev(a, b) < 1e-9

    def test_equal_functions_reduce_to_twisted_izergin(self, params3, records3):
        # the weight collapses to -1 at the nodes, leaving the plain
        # alpha-twisted kernel evaluated by sp_same_q
        alpha = 0.4 + 0.9j
        for i in range(3):
            a = obs.sp_izergin(pair_context(params3, records3, [i], [i]), alpha)[0, 0]
            b, _ = sp_same_q(params3, poly(records3, i), alpha)
            assert rel_dev(a, b) < 1e-10


class TestScalarProductSlavnov:
    def test_requires_compatibility_condition(self, params3):
        g = rng(56)
        p = random_roots(g, 3)
        q = random_roots(g, 3)
        with pytest.raises(ParameterError):
            obs.sp_slavnov(bare_pair(params3, p, q), 0.5)

    def test_synthetic_shifted_pair(self, params3):
        # P carrying the i*pi-shifted roots of Q satisfies the compatibility
        # condition identically, without any eigen data
        g = rng(57)
        q = random_roots(g, 3)
        p = canonical_roots(q + IPI)
        pair = bare_pair(params3, p, q)
        assert obs.cond_pq_residual(pair)[0, 0] < 1e-12
        for alpha in (0.3 + 0.4j, -1.2j):
            a = obs.sp_izergin(pair, alpha)[0, 0]
            b = obs.sp_slavnov(pair, alpha)[0, 0]
            assert rel_dev(a, b) < 1e-10

    def test_eigen_pairs_all_representations(self, params3, records3, states3):
        bras, _, kets2 = states3
        alpha = KAPPA2 / params3.kappa
        overlaps, scales = bras.embedded @ kets2.embedded.T, norm_scales(bras, kets2)
        for ip in (0, 3, 5):
            for iq in (1, 4, 5, 7):
                dense, scale = overlaps[ip, iq], scales[ip, iq]
                pair = pair_context(params3, records3, [ip], [iq])
                vals = [
                    obs.sp_direct(pair, alpha)[0, 0],
                    obs.sp_izergin(pair, alpha)[0, 0],
                    obs.sp_slavnov(pair, alpha)[0, 0],
                    *(v[0, 0] for v in obs.sp_tau(pair, alpha)),
                    dense,
                ]
                for a in vals:
                    for b in vals:
                        assert rel_dev(a, b, scale) < 1e-7

    def test_gamma_deformation(self, params3, records3):
        # the ratio of the deformed matrix at alpha to the deformed matrix at
        # 0 (its Cauchy base) does not depend on gamma: it equals sp_slavnov
        # on off-diagonal pairs and on the diagonal pairs, where the same-roots
        # entries carry the coth(gamma/2) term
        g = rng(58)
        alpha = KAPPA2 / params3.kappa
        for ip, iq in [(0, 2), (1, 6), (2, 2), (5, 5)]:
            base = obs.sp_slavnov(pair_context(params3, records3, [ip], [iq]), alpha)[0, 0]
            for _ in range(3):
                gamma = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                num, den = det_lu([slavnov_reference(params3, records3.table, ip, iq, a, gamma)
                                   for a in (alpha, 0.0)]).tolist()
                assert rel_dev(num / den, base) < 1e-8

    def test_denominator_closed_form(self, params3, records3):
        for ip, iq in [(0, 1), (2, 6)]:
            det = pair_context(params3, records3, [ip], [iq]).cauchy_det[0, 0]
            closed = obs.coth_cauchy_closed_form(params3, poly(records3, ip),
                                                 poly(records3, iq))
            assert rel_dev(det, closed) < 1e-10

    def test_equal_function_limit_against_perturbation(self, params3, records3):
        # diagonal entries use an analytic limit; perturbing the column roots
        # must converge to the same value
        alpha = 0.8 + 0.1j
        exact = obs.sp_slavnov(pair_context(params3, records3, [1], [1]), alpha)[0, 0]
        eps_poly = canonical_roots(poly(records3, 1) + 1e-6)
        near_pair = obs.PairContext(params3, table(params3, eps_poly), records3.table.take([1]))
        # the perturbed pair misses the compatibility condition by more than
        # sp_slavnov's gate, so its ratio is read from the halves themselves
        assert 1e-7 < obs.cond_pq_residual(near_pair)[0, 0] < 1e-4
        near = (det_lu(obs.slavnov_matrix(*near_pair.halves, alpha)) / near_pair.cauchy_det)[0, 0]
        assert rel_dev(exact, near) < 1e-4


class TestProductIdentity:
    def test_identity_on_eigen_pairs(self, params3, records3):
        g = rng(59)
        for ip, iq in [(0, 1), (2, 6), (3, 4)]:
            pair = pair_context(params3, records3, [ip], [iq])
            for _ in range(5):
                alpha = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                beta = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                lhs, rhs, dev = sp_product_check(pair, alpha, beta)
                assert dev < 1e-7

    def test_equal_parameters_square(self, params3, records3):
        pair = pair_context(params3, records3, [0], [5])
        alpha = 0.6 - 0.9j
        lhs, rhs, dev = sp_product_check(pair, alpha, alpha)
        square = obs.sp_slavnov(pair, alpha)[0, 0] ** 2
        assert dev < 1e-7
        assert rel_dev(rhs, square) < 1e-7

    def test_bethe_cancellation_of_last_line(self, params3, records3):
        alpha = 0.7 - 0.4j
        beta = cmath.exp(params3.eta) / alpha
        _, last, scale = product_matrix(
            params3, poly(records3, 0), poly(records3, 1), alpha, beta)
        assert np.max(np.abs(last)) < 1e-8 * scale


class TestTauRepresentations:
    def test_z_independence(self, params3, records3):
        roots, alpha = records3.table.roots, KAPPA2 / params3.kappa
        _, with_q = obs.sp_tau(pair_context(params3, records3, [1], [6], z=roots[6]), alpha)
        _, with_p = obs.sp_tau(pair_context(params3, records3, [1], [6], z=roots[1]), alpha)
        assert rel_dev(with_q[0, 0], with_p[0, 0]) < 1e-8

    def test_diagonal_specialization_matches_same_q(self, params3, records3):
        alpha = 1.0
        ize, slav = obs.sp_tau(pair_context(params3, records3, [2], [2]), alpha)
        ize2, compact = sp_same_q(params3, poly(records3, 2), alpha)
        assert rel_dev(ize[0, 0], ize2) < 1e-9
        assert rel_dev(slav[0, 0], compact) < 1e-8


class TestSameQ:
    def test_forms_agree_on_certified_q(self, params3, records3):
        alpha = KAPPA2 / params3.kappa
        for i in range(4):
            a, b = sp_same_q(params3, poly(records3, i), alpha)
            assert rel_dev(a, b) < 1e-9

    def test_alpha_zero(self, params3, records3):
        a, b = sp_same_q(params3, poly(records3, 0), 0.0)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(1.0)

    def test_matches_dense_norm(self, params3, basis3, records3):
        kappa, kappa2 = params3.kappa, KAPPA2
        alpha = kappa2 / kappa
        first = records3.table.take([0, 1, 2, 3])
        norms = (separate_state(basis3, first, kappa, "bra").embedded
                 * separate_state(basis3, first, kappa2, "ket").embedded).sum(axis=1)
        for i, dense in enumerate(norms):
            a, b = sp_same_q(params3, poly(records3, i), alpha)
            assert rel_dev(a, dense) < 1e-9
            assert rel_dev(b, dense) < 1e-9


class TestFormFactors:
    def test_sigma_z_against_dense(self, params3, records3, states3):
        bras, kets, _ = states3
        scales = norm_scales(bras, kets)
        sites = (1, 2, 3)
        dense = [matrix_element(bras, local_op(SIGMA_Z, site, 3), kets) for site in sites]
        for ip in (0, 2, 5):
            for iq in (1, 2, 7):
                scale = scales[ip, iq]
                pair = pair_context(params3, records3, [ip], [iq])
                for s, roots_v, tau_v in zip(range(3), *obs.ff_sigma_z(pair, sites)[:, 0, 0]):
                    bf = dense[s][ip, iq]
                    assert rel_dev(roots_v, bf, scale) < 1e-7
                    assert rel_dev(tau_v, bf, scale) < 1e-7
                    assert rel_dev(roots_v, tau_v, scale) < 1e-8

    def test_spin_flip_against_dense_lowering(self, params3, records3, states3):
        bras, kets, _ = states3
        scales = norm_scales(bras, kets)
        sites = (1, 2, 3)
        dense = [matrix_element(bras, local_op(SIGMA_MINUS, site, 3), kets) for site in sites]
        for ip in (0, 3, 6):
            for iq in (0, 4, 5):
                scale = scales[ip, iq]
                pair = pair_context(params3, records3, [ip], [iq])
                for s, roots_v, tau_v in zip(range(3), *obs.ff_sigma_pm(pair, sites)[:, 0, 0]):
                    bf = dense[s][ip, iq]
                    assert rel_dev(roots_v, bf, scale) < 1e-7
                    assert rel_dev(tau_v, bf, scale) < 1e-7
                    assert rel_dev(roots_v, tau_v, scale) < 1e-8

    def test_raising_lowering_ratio_structure(self):
        # the Known caveat on the dense oracle: the raising and lowering
        # matrix elements differ by kappa^{-2} times a pair-dependent sign,
        # <P|sigma+_s|Q> = kappa^-2 (-1)^(k_P + k_Q) <P|sigma-_s|Q> with k the
        # sum-rule integer, on every pair and site at N = 2-4; relative to
        # ||bra|| ||ket|| it reads at most 2.6e-15
        for n, kappa in itertools.product((2, 3, 4), (1.0, 0.8 - 0.3j, 1.3 + 0.2j)):
            basis, spectrum = certified_chain(n, kappa)
            bras = separate_state(basis, spectrum.table, kappa, "bra")
            kets = separate_state(basis, spectrum.table, kappa, "ket")
            sign = (-1.0) ** np.add.outer(spectrum.sum_rule_k, spectrum.sum_rule_k)
            scales = norm_scales(bras, kets)
            for site in range(1, n + 1):
                plus = matrix_element(bras, local_op(SIGMA_PLUS, site, n), kets)
                minus = matrix_element(bras, local_op(SIGMA_MINUS, site, n), kets)
                assert np.all(np.abs(plus - sign * minus / kappa**2) <= 1e-12 * scales)

    def test_diagonal_sigma_z_reality_in_hermitian_class(self):
        # twist kappa = 1, imaginary eta, real nodes: diagonal expectation
        # values divided by the state norm are real (here structurally zero)
        params = make_params(3, eta=0.75j, kappa=1.0)
        from sovxxz.spectrum import solve_spectrum
        records = solve_spectrum(SovBasis(params))
        for i in range(4):
            norm = sp_same_q(params, poly(records, i), 1.0)[0]
            val = obs.ff_sigma_z(pair_context(params, records, [i], [i]), [2])[0, 0, 0, 0] / norm
            assert abs(val.imag) < 1e-8

    def test_spin_flip_without_cancellation(self, tmp_path):
        # observables n = 3, seed 100020: the roots-form sigma^- of P1_Q6 at
        # site 2 is det(S - u v^T) - det(S) of two nearly equal determinants;
        # their subtraction gave a deviation of 1.75e-12
        cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
        cfg.write_text('{"n": 3}')
        assert cli.main(["observables", "--config", str(cfg), "--seed", "100020",
                         "--out", str(out)]) != 2
        entry = json.loads(out.read_text())["form_factors"]["P1_Q6_site2"]["-"]
        assert entry["deviation"] < 1e-13

    def test_bordered_determinant(self):
        # det [[M, u], [v^T, c]] = c det(M) - v^T adj(M) u, on a stack
        g = rng(62)

        def cplx(*shape):
            return g.normal(size=shape) + 1j * g.normal(size=shape)

        n = 4
        m, u, v = cplx(3, 2, n, n), cplx(3, 2, n), cplx(3, 2, n)
        outer = u[..., :, None] * v[..., None, :]
        ones = obs._bordered(m, u, v, 1)
        assert ones.shape == (3, 2)
        assert max(map(rel_dev, ones.ravel(), det_lu(m - outer).ravel())) < 1e-13
        zeros = obs._bordered(m, -u, v, 0)
        assert max(map(rel_dev, zeros.ravel(), (det_lu(m + outer) - det_lu(m)).ravel())) < 1e-13
        # on a rank-deficient M = X diag(d_1, .., d_{n-1}, 0) Y (X, Y unitary),
        # adj(M) = det(X) det(Y) d_1 .. d_{n-1} Y^H e_n e_n^T X^H is a
        # rank-one matrix; a small u makes det(M + u v^T) of the size of the
        # rounding in det(M), so the subtraction loses its digits
        x, y = (np.linalg.qr(cplx(n, n))[0] for _ in range(2))
        d = np.append(g.uniform(0.5, 2, n - 1), 0.0)
        m = x @ np.diag(d) @ y
        u, v = 1e-9 * cplx(n), cplx(n)
        exact = det_lu(x) * det_lu(y) * np.prod(d[:-1]) \
            * (v @ y.conj().T[:, -1]) * (x.conj().T[-1] @ u)
        assert rel_dev(obs._bordered(m, -u, v, 0), exact) < 1e-13
        assert rel_dev(det_lu(m + np.outer(u, v)) - det_lu(m), exact) > 1e-10


class TestPairContext:
    def test_one_det_call_per_form_factor_form(self, params3, records3, tmp_path,
                                               monkeypatch):
        # every pair's and site's bordered determinant of one form of a
        # form-factor call on a grid goes to LAPACK in one stacked det_lu
        # call, the roots form first, so an observables op makes as many
        # det_lu calls at n = 2 as at n = 3
        shapes = []
        det = obs.det_lu

        def counted(m):
            shapes.append(np.shape(m))
            return det(m)

        n, count = params3.n, len(records3.table)
        sites = range(1, n + 1)
        grid = obs.PairContext(params3, records3.table, records3.table)
        assert np.shape(grid.cauchy_det) == (count, count)  # built before the form factors
        monkeypatch.setattr(obs, "det_lu", counted)
        for ff in (obs.ff_sigma_z, obs.ff_sigma_pm):
            shapes.clear()
            assert ff(grid, sites).shape == (2, count, count, n)
            assert shapes == [(count, count, n, n + 1, n + 1)] * 2
        per_op = {}
        for size in (2, 3):
            shapes.clear()
            cfg = tmp_path / f"cfg{size}.json"
            cfg.write_text(f'{{"n": {size}}}')
            assert cli.main(["observables", "--config", str(cfg),
                             "--out", str(tmp_path / "r.json")]) == 1
            per_op[size] = len(shapes)
        assert per_op[2] == per_op[3]

    def test_batched_tau_hat_equals_scalar_formula(self, params3, records3, monkeypatch):
        # tau_hat on an array of points is e^lam tau(lam) / d(lam) from the
        # scalar interpolation, to 1e-13 relative, for each eigenvalue; a
        # grid evaluates every eigenvalue (P's, then Q's) at every z_i, p_k
        # and p_k + eta in one batch for all its formulas, and reads d from
        # the z - xi rows and P's table
        g = rng(66)
        points = np.array([complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(6)])
        d = [params3.d_fn(lam) for lam in points]
        taus = records3.table.tau
        for i, row in enumerate(tau_hat(params3, taus[:3], points, d)):
            for lam, d_lam, got in zip(points, d, row):
                assert rel_dev(got, cmath.exp(lam) * tau(params3, records3, i)(lam) / d_lam) \
                    <= 1e-13
        calls = []
        evaluate = obs.tau_hat

        def counted(params, taus, lam, d):
            calls.append((taus.tolist(), params.node_basis, np.shape(lam)))
            for lam_i, d_i in zip(lam, d):
                assert rel_dev(d_i, params3.d_fn(lam_i)) <= 1e-13
            return evaluate(params, taus, lam, d)

        monkeypatch.setattr(obs, "tau_hat", counted)
        n, sites = params3.n, range(1, params3.n + 1)
        for ps, qs in [(list(range(8)), list(range(8))), ([0, 1, 2], [2, 3, 4, 5])]:
            calls.clear()
            grid = pair_context(params3, records3, ps, qs)
            obs.sp_tau(grid, KAPPA2 / params3.kappa)
            obs.ff_sigma_z(grid, sites)
            obs.ff_sigma_pm(grid, sites)
            assert calls == [(taus[ps + qs].tolist(), params3.node_basis,
                              ((len(qs) + 2 * len(ps)) * n,))]

    @pytest.mark.parametrize("rows", ["default z", "custom z"])
    def test_grid_equals_each_pair(self, params3, records3, rows):
        # one context over a grid of records, diagonal pairs included, gives
        # each pair the value of that pair's own context to 1e-13 relative,
        # in every representation, form, operator and site (the roots forms of
        # the form factors read no z, and so run under either); relative to the
        # formula's largest value on the grid, as some sigma^z elements
        # vanish and carry only rounding (about 1e-15 against 0.3)
        alpha, sites = KAPPA2 / params3.kappa, (1, 2, 3)
        z = None if rows == "default z" else [0.3 + 0.1j, -0.4 + 0.2j, 0.1 - 0.5j]
        ps, qs = list(range(8)), list(range(2, 7))

        def formulas(pair):
            values = [*obs.sp_tau(pair, alpha), *obs.ff_sigma_z(pair, sites),
                      *obs.ff_sigma_pm(pair, sites)]
            if z is None:
                values += [obs.sp_direct(pair, alpha), obs.sp_izergin(pair, alpha),
                           obs.sp_slavnov(pair, alpha)]
            return values

        def shapes(p, q):  # (P, Q) for a scalar product, (P, Q, site) for a form factor
            pq, site = (p, q), (p, q, len(sites))
            return [pq, pq] + [site] * 4 + ([pq, pq, pq] if z is None else [])

        grid = formulas(pair_context(params3, records3, ps, qs, z=z))
        assert [batch.shape for batch in grid] == shapes(len(ps), len(qs))
        assert set(ps) & set(qs)
        for ip, rp in enumerate(ps):
            for iq, rq in enumerate(qs):
                one = formulas(pair_context(params3, records3, [rp], [rq], z=z))
                assert [value.shape for value in one] == shapes(1, 1)
                for batch, value in zip(grid, one):
                    got, want = np.ravel(batch[ip, iq]), np.ravel(value[0, 0])
                    scale = np.abs(batch).max()
                    assert all(rel_dev(a, b, scale) <= 1e-13 for a, b in zip(got, want))

    def test_shared_context_matches_fresh_evaluation(self, params3, records3):
        # one context per pair serves every site, form and representation,
        # and one form-factor call serves every site; its values must equal
        # those of a fresh context and a one-site call bit for bit
        kappa, kappa2 = params3.kappa, KAPPA2
        sites = range(1, params3.n + 1)
        for ip, iq in [(0, 0), (1, 5)]:
            pair = pair_context(params3, records3, [ip], [iq])

            def fresh():
                return pair_context(params3, records3, [ip], [iq])
            assert obs.sp_slavnov(pair, kappa2 / kappa)[0, 0] \
                == obs.sp_slavnov(fresh(), kappa2 / kappa)[0, 0]
            assert [v[0, 0] for v in obs.sp_tau(pair, kappa2 / kappa)] \
                == [v[0, 0] for v in obs.sp_tau(fresh(), kappa2 / kappa)]
            batch_z = obs.ff_sigma_z(pair, sites)[:, 0, 0]
            batch_pm = obs.ff_sigma_pm(pair, sites)[:, 0, 0]
            assert batch_z.shape == batch_pm.shape == (2, params3.n)
            for site, z_vals, pm_vals in zip(sites, batch_z.T, batch_pm.T):
                assert obs.ff_sigma_z(fresh(), [site])[:, 0, 0, 0].tolist() == z_vals.tolist()
                assert obs.ff_sigma_pm(fresh(), [site])[:, 0, 0, 0].tolist() == pm_vals.tolist()

    def test_custom_z_rows(self, params3, records3):
        z = [0.3 + 0.1j, -0.4 + 0.2j, 0.1 - 0.5j]
        pair = pair_context(params3, records3, [2], [4], z=z)
        assert pair.z[0, 0].tolist() == z
        [default] = obs.ff_sigma_z(pair_context(params3, records3, [2], [4]), [2])[1, 0, 0]
        assert rel_dev(obs.ff_sigma_z(pair, [2])[1, 0, 0, 0], default) < 1e-8

    @pytest.mark.parametrize("entry_point", ["sp_tau", "ff_sigma_z", "ff_sigma_pm"])
    def test_bad_z_rows_refused(self, params3, records3, entry_point):
        # too few points, a repeated point and two points an i*pi apart
        # (where tau_hat repeats its value) are refused by every eigenvalue form
        evaluate = {
            "sp_tau": lambda pair: obs.sp_tau(pair, KAPPA2 / params3.kappa),
            "ff_sigma_z": lambda pair: obs.ff_sigma_z(pair, [1, 2]),
            "ff_sigma_pm": lambda pair: obs.ff_sigma_pm(pair, [1, 2]),
        }[entry_point]
        z = [0.3 + 0.1j, -0.4 + 0.2j, 0.1 - 0.5j]
        for bad in (z[:2], [z[0], z[0], z[2]], [z[0], z[0] + IPI, z[2]]):
            with pytest.raises(ParameterError, match="z "):
                evaluate(pair_context(params3, records3, [1], [5], z=bad))

    def test_tau_matrix_equals_entrywise_formula(self, params3, records3):
        # the batched halves equal the per-entry scalar formula to 1e-13
        # relative, removable limits included (numpy's array arithmetic rounds
        # differently from Python's scalar complex arithmetic)
        alpha = cmath.exp(-params3.eta)

        def hat(i, lam):
            return cmath.exp(lam) * tau(params3, records3, i)(lam) / params3.d_fn(lam)

        def dq(i, z, w):
            u = z - w
            m = round(u.imag / np.pi)
            if abs(u - 1j * np.pi * m) < 1e-9:
                taus = records3.table.tau[i:i + 1]
                return (-1.0) ** m * tau_hat_deriv(params3, taus, w)[0]
            return (hat(i, z) - hat(i, w)) / cmath.sinh(u)

        roots = records3.table.roots.tolist()
        for ip, iq in [(1, 6), (2, 2), (0, 3)]:
            pair = pair_context(params3, records3, [ip], [iq])
            ref = np.array([[dq(iq, z, p) - alpha * dq(ip, z, p + params3.eta)
                             for p in roots[ip]] for z in roots[iq]])
            got = obs.tau_matrix(*pair.tau_dq, alpha)[0, 0]
            assert got.shape == ref.shape
            assert all(rel_dev(a, b) <= 1e-13 for a, b in zip(got.ravel(), ref.ravel()))

    def test_slavnov_matrix_equals_entrywise_formula(self, params3, records3):
        # the matrices built from the alpha-free halves equal the per-entry
        # scalar formula (slavnov_reference) to 1e-13 relative, same-roots
        # limits included (numpy's array arithmetic rounds differently from
        # Python's scalar complex arithmetic)
        for ip, iq in [(1, 6), (2, 2)]:
            base, rest = obs.slavnov_halves(pair_context(params3, records3, [ip], [iq]))
            for alpha in (1.0, KAPPA2 / params3.kappa, cmath.exp(-params3.eta)):
                ref = slavnov_reference(params3, records3.table, ip, iq, alpha)
                got = obs.slavnov_matrix(base, rest, alpha)[0, 0]
                assert got.shape == ref.shape
                assert all(rel_dev(a, b) <= 1e-13 for a, b in zip(got.ravel(), ref.ravel()))

    def test_pair_formulas_read_node_tables(self, params3, records3, monkeypatch):
        # every P or Q value at xi_k, xi_k - eta and their i*pi translates,
        # and every tau value at xi_k, comes from the records' node tables,
        # not from a fresh evaluation at any point of an evaluator's array,
        # on a 3 x 3 grid and on a 1 x 1 grid
        eta = params3.eta
        nodes = {v for x in params3.xi for v in (x, x - eta, x + IPI, x - eta + IPI)}
        weigh = InterpolationBasis.weights
        hits, batches = [], Counter()

        def watched_weights(basis, points):
            batches["weights"] += 1
            hits.extend(lam for lam in np.ravel(points) if lam in nodes)
            return weigh(basis, points)

        def watched_values(roots, points):
            batches["poly"] += 1
            hits.extend(lam for lam in np.ravel(points) if lam in nodes)
            return evaluate_stack(roots, points)

        evaluate_stack = obs.half_period_values
        monkeypatch.setattr(obs, "half_period_values", watched_values)
        monkeypatch.setattr(InterpolationBasis, "weights", watched_weights)
        alpha = KAPPA2 / params3.kappa
        sites = range(1, params3.n + 1)
        for pair in [pair_context(params3, records3, [0, 2, 5], [1, 2, 7]),
                     pair_context(params3, records3, [0], [1])]:
            obs.sp_direct(pair, alpha)
            obs.sp_izergin(pair, alpha)
            obs.sp_slavnov(pair, alpha)
            obs.sp_tau(pair, KAPPA2 / params3.kappa)
            obs.ff_sigma_z(pair, sites)
            obs.ff_sigma_pm(pair, sites)
        assert hits == [] and batches["poly"] and batches["weights"]

    def test_one_record_values_evaluated_once_per_record(self, tmp_path, monkeypatch):
        # in one observables run, tau is never evaluated at a node: its node
        # values are read as they are; once the records are certified,
        # separate states evaluate no polynomial and the pair formulas
        # evaluate only Q(p_k -+ eta), at any point of the evaluators' arrays,
        # each once per pair and on a diagonal pair (P = Q) not at all: Q's
        # table holds them
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 2}')
        params = load_config(cfg).params
        eta = params.eta
        tau_at_nodes = Counter()
        in_states, after_spectrum, spectra = [], [], []
        phase = {"certified": False, "state": False}
        call_weights, call_values = InterpolationBasis.weights, obs.half_period_values
        solve, state = cli.solve_spectrum, cli.separate_state

        # tau is evaluated only through the weights of its basis
        def counted_weights(basis, points):
            for lam in np.ravel(points):
                if lam in params.xi:
                    tau_at_nodes[id(basis), lam] += 1
            return call_weights(basis, points)

        def seen(points):
            if phase["state"]:
                in_states.extend(np.ravel(points))
            elif phase["certified"]:
                after_spectrum.extend(np.ravel(points))

        def watched_values(roots, points):
            seen(points)
            return call_values(roots, points)

        def solve_then_mark(*args, **kwargs):
            spectra.append(solve(*args, **kwargs))
            phase["certified"] = True
            return spectra[-1]

        def watched_state(*args, **kwargs):
            phase["state"] = True
            try:
                return state(*args, **kwargs)
            finally:
                phase["state"] = False

        monkeypatch.setattr(InterpolationBasis, "weights", counted_weights)
        monkeypatch.setattr(obs, "half_period_values", watched_values)
        monkeypatch.setattr(cli, "solve_spectrum", solve_then_mark)
        monkeypatch.setattr(cli, "separate_state", watched_state)
        assert cli.main(["observables", "--config", str(cfg),
                         "--out", str(tmp_path / "r.json")]) != 2
        [spectrum] = spectra
        assert not tau_at_nodes
        assert in_states == []
        pair_points = {r + s for r in spectrum.table.roots.ravel().tolist() for s in (-eta, eta)}
        assert after_spectrum and set(after_spectrum) <= pair_points
        count = len(spectrum.table)
        off_diagonal = count * (count - 1)
        assert len(after_spectrum) == off_diagonal * 2 * params.n

    def test_tau_forms_need_records(self, params3, records3):
        pair = bare_pair(params3, poly(records3, 0), poly(records3, 1))
        with pytest.raises(ParameterError):
            obs.sp_tau(pair, KAPPA2 / params3.kappa)


class TestRefusals:
    """Each pair formula refuses a singular point with its own message."""

    def roots_with(self, params, k, value):
        g = rng(62)
        roots = [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(params.n)]
        roots[k] = value
        return canonical_roots(roots)

    def test_izergin_refuses_a_root_on_a_node(self, params3):
        p = self.roots_with(params3, 0, params3.xi[0])
        q = random_roots(rng(63), 3)
        with pytest.raises(SingularEvaluationError,
                           match="^P0_Q0: root .* collides with an inhomogeneity shift set"):
            obs.sp_izergin(bare_pair(params3, p, q), 0.5)

    def test_direct_refuses_a_root_on_a_shifted_node(self, params3):
        p = self.roots_with(params3, 1, params3.xi[1] - params3.eta)
        q = random_roots(rng(64), 3)
        with pytest.raises(SingularEvaluationError,
                           match=r"^P0_Q0: \(PQ\)\(xi - eta\) vanishes"):
            obs.sp_direct(bare_pair(params3, p, q), 0.5)

    def test_slavnov_halves_refuse_one_shared_root(self, params3):
        q = random_roots(rng(65), 3)
        p = self.roots_with(params3, 0, q[1])
        with pytest.raises(SingularEvaluationError,
                           match="^P0_Q0: coincident roots .* for distinct functions"):
            obs.slavnov_halves(bare_pair(params3, p, q))

    def test_izergin_ratio_refuses_a_point_on_a_node(self, params3):
        zs = [params3.xi[0], 0.2 + 0.3j, -0.5 + 0.1j]
        with pytest.raises(SingularEvaluationError, match="Izergin node collision"):
            obs.izergin_ratio(params3.xi, zs, [0.3, 0.1j, -0.2], params3.eta)


class TestGridRefusals:
    """A refusal raised inside a grid names the first pair, in (P, Q)
    row-major order, that holds it, by its report key."""

    def tables(self, params, last_roots):
        g = rng(67)
        polys = [random_roots(g, params.n) for _ in range(2)]
        polys.append(canonical_roots(last_roots(polys)))
        return q_table(params, polys, None, [])

    def test_shared_root_names_its_pair(self, params3):
        # the last table shares the second one's first root: P1_Q2 is the
        # first off-diagonal pair with p_k = q_j
        tables = self.tables(params3, lambda polys: [polys[1][0], 0.4 - 0.3j, -0.6j])
        j = tables.roots[2].tolist().index(tables.roots[1, 0])
        with pytest.raises(SingularEvaluationError) as err:
            obs.slavnov_halves(obs.PairContext(params3, tables, tables))
        assert str(err.value) == f"P1_Q2: coincident roots p_1 = q_{j + 1} for distinct functions"

    def test_floors_name_their_pair(self, params3):
        # a Q-root on xi_1 - eta puts f_tilde's floor Q(xi_1 - eta) on every
        # pair with that Q (first: P0_Q2); a Q-root at p_1 - eta of table 1
        # puts a_frak's floor Q(p_1 - eta) on the pair P1_Q2 alone
        xi, eta = params3.xi, params3.eta
        on_node = self.tables(params3, lambda polys: [xi[0] - eta, 0.4 - 0.3j, -0.6j])
        with pytest.raises(SingularEvaluationError, match=r"^P0_Q2: Q\(u-eta\) = .* floor"):
            obs.sp_izergin(obs.PairContext(params3, on_node.take([0, 1]), on_node), 0.5)
        shifted = self.tables(params3,
                              lambda polys: [polys[1][0] - eta, 0.4 - 0.3j, -0.6j])
        with pytest.raises(SingularEvaluationError, match=r"^P1_Q2: Q\(u-eta\) = .* floor"):
            obs.slavnov_halves(obs.PairContext(params3, shifted, shifted))

    def test_tau_hat_zero_of_d_names_its_pair(self, params3, records3):
        # a Q record with a root on xi_2 puts a zero of d at its z-row:
        # every pair with that Q holds it, the first one is P0_Q1
        xi = params3.xi
        t = records3.table
        bad = canonical_roots([xi[1], 0.4 - 0.3j, -0.6j])
        qs = q_table(params3, [t.roots[3], bad], t.tau[[3, 0]], [])
        grid = obs.PairContext(params3, t.take([0, 1]), qs)
        with pytest.raises(SingularEvaluationError,
                           match=r"^P0_Q1: tau_hat evaluated at a zero of d"):
            obs.sp_tau(grid, KAPPA2 / params3.kappa)

    def test_observables_names_the_pair(self, tmp_path, monkeypatch, capsys):
        # a record that shares a root with another stops the command with
        # exit status 2 and one error line naming the first such pair
        solve = cli.solve_spectrum

        def sharing(basis, **kwargs):
            spectrum = solve(basis, **kwargs)
            roots = spectrum.table.roots.copy()
            roots[3, 0] = roots[1, 1]
            roots[3] = canonical_roots(roots[3])
            return replace(spectrum, table=q_table(basis.params, roots, spectrum.table.tau, []))

        monkeypatch.setattr(cli, "solve_spectrum", sharing)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 2, "representations": ["direct"], "operators": ["z"]}')
        out = tmp_path / "r.json"
        assert cli.main(["observables", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and not out.exists()
        assert re.fullmatch(r"error: P1_Q3: coincident roots p_\d = q_\d "
                            r"for distinct functions\n", err)


class TestGenericArgumentMatrixElements:
    def test_b_element_against_dense(self, params3, basis3, records3):
        g = rng(60)
        kappa, kappa2 = params3.kappa, KAPPA2
        first = records3.table.take([0, 1, 2, 3])
        bras = separate_state(basis3, first, kappa, "bra")
        kets2 = separate_state(basis3, first, kappa2, "ket")
        scales = norm_scales(bras, kets2)
        for _ in range(3):
            mu = complex(g.uniform(-0.8, 0.8), g.uniform(-0.8, 0.8))
            blocks = monodromy_entries(params3, mu)
            dense = matrix_element(bras, blocks.b, kets2)
            for ip, iq in [(0, 1), (2, 3), (1, 1)]:
                bf = dense[ip, iq]
                pair = pair_context(params3, records3, [ip], [iq])
                val = matel_b(pair, kappa, kappa2, mu)
                scale = scales[ip, iq]
                assert rel_dev(val, bf, scale) < 1e-7

    def test_d_element_against_dense(self, params3, records3, states3):
        g = rng(61)
        bras, kets, _ = states3
        scales = norm_scales(bras, kets)
        for _ in range(3):
            mu = complex(g.uniform(-0.8, 0.8), g.uniform(-0.8, 0.8))
            blocks = monodromy_entries(params3, mu)
            dense = matrix_element(bras, blocks.d, kets)
            for ip, iq in [(0, 1), (3, 6), (4, 4)]:
                bf = dense[ip, iq]
                pair = pair_context(params3, records3, [ip], [iq])
                val = matel_d(pair, mu)
                scale = scales[ip, iq]
                assert rel_dev(val, bf, scale) < 1e-7


class TestIdentityBench:
    def test_all_residuals(self, params3, records3):
        bench = obs.identity_bench(params3, records3.table)
        for name, value in bench.items():
            tol = 1e-6 if name.startswith("extension") else 1e-9
            assert value < tol, f"{name}: {value:.3e}"

    def test_e_weight_of_an_array_is_its_scalar_form_bit_for_bit(self, params3):
        # one call over every point gives, bit for bit, the product each
        # point alone gives
        g = rng(31)
        zs = [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(4)]
        us = np.array(params3.xi + (30.0,), dtype=complex)
        got = obs.e_weight(zs, params3.eta, us)
        assert got.shape == us.shape
        for u, value in zip(us, got):
            w = u - np.asarray(zs)
            alone = complex(np.prod(obs.sinh(w - params3.eta) / obs.sinh(w)))
            assert complex(value) == alone and complex(obs.e_weight(zs, params3.eta, u)) == alone

    @pytest.mark.parametrize("rows", [[1], [3, 0], [1, 4]])
    def test_expansion_reads_the_laplace_signs(self, rows):
        # on well-scaled 5 x 5 matrices, where every term of an expanded row
        # matters, the expansion along one or two rows is the LU determinant
        # to 1e-12, of one matrix and of each matrix of a stack
        g = rng(32)
        stack = g.normal(size=(3, 5, 5)) + 1j * g.normal(size=(3, 5, 5))
        want = det_lu(stack)
        got = obs._det_expanded(stack, rows)
        assert got.shape == (3,)
        assert np.all(abs(got - want) <= 1e-12 * abs(want))
        one = obs._det_expanded(stack[1], rows)
        assert abs(one - want[1]) <= 1e-12 * abs(want[1])
