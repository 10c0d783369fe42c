import cmath
from collections import Counter

import numpy as np
import pytest

from conftest import KAPPA2, make_params, rel_dev, rng, table
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
    HalfPeriodTrigPoly,
    InterpolationBasis,
    coth,
    dist_mod_2ipi,
)
from sovxxz.sov import SovBasis, matrix_element, overlap, separate_state
from sovxxz.spectrum import tau_hat, tau_hat_deriv


def random_poly(g, n, box=1.0):
    return HalfPeriodTrigPoly.from_roots(
        [complex(g.uniform(-box, box), g.uniform(-box, box)) for _ in range(n)])


def bare_pair(params, p, q):
    """The pair context of two polynomials that carry no eigenvalue."""
    return obs.PairContext(params, table(params, p), table(params, q))


class TestScalarProductDirect:
    def test_n1_closed_form(self):
        params = make_params(1)
        g = rng(51)
        p = random_poly(g, 1)
        q = random_poly(g, 1)
        alpha = 0.7 - 0.2j
        x, eta = params.xi[0], params.eta
        expected = 1 + alpha * p(x) * q(x) / (p(x - eta) * q(x - eta))
        assert rel_dev(obs.sp_direct(bare_pair(params, p, q), alpha), expected) < 1e-13

    def test_matches_exhaustive_sum(self, params3, basis3):
        g = rng(52)
        p = random_poly(g, 3)
        q = random_poly(g, 3)
        alpha = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        pair = bare_pair(params3, p, q)
        a = obs.sp_direct(pair, alpha)
        b = obs.sp_sov_sum(basis3, pair, alpha)
        assert rel_dev(a, b) < 1e-10

    def test_matches_embedded_inner_product(self, params3, basis3):
        g = rng(53)
        p = random_poly(g, 3)
        q = random_poly(g, 3)
        kappa, kappa2, eps, eps2 = params3.kappa, KAPPA2, 1, -1
        alpha = eps * eps2 * kappa2 / kappa
        bra = separate_state(basis3, table(params3, p), kappa, eps, "bra")
        ket = separate_state(basis3, table(params3, q), kappa2, eps2, "ket")
        assert rel_dev(obs.sp_direct(bare_pair(params3, p, q), alpha),
                       overlap(bra, ket)) < 1e-9


class TestScalarProductIzergin:
    def test_alpha_zero_is_one(self, params3):
        g = rng(54)
        p = random_poly(g, 3)
        q = random_poly(g, 3)
        assert obs.sp_izergin(bare_pair(params3, p, q), 0.0) == pytest.approx(1.0)

    def test_agrees_with_direct_for_generic_functions(self, params3):
        # only the root-location condition is needed here, not eigen data
        g = rng(55)
        for _ in range(3):
            p = random_poly(g, 3)
            q = random_poly(g, 3)
            alpha = complex(g.uniform(-1, 1), g.uniform(-1, 1))
            pair = bare_pair(params3, p, q)
            a = obs.sp_direct(pair, alpha)
            b = obs.sp_izergin(pair, alpha)
            assert rel_dev(a, b) < 1e-9

    def test_equal_functions_reduce_to_twisted_izergin(self, params3, records3):
        # the weight collapses to -1 at the nodes, leaving the plain
        # alpha-twisted kernel evaluated by sp_same_q
        alpha = 0.4 + 0.9j
        for rec in records3[:3]:
            a = obs.sp_izergin(obs.PairContext(params3, rec.table, rec.table), alpha)
            b, _ = obs.sp_same_q(params3, rec.q_poly, alpha)
            assert rel_dev(a, b) < 1e-10


class TestScalarProductSlavnov:
    def test_requires_compatibility_condition(self, params3):
        g = rng(56)
        p = random_poly(g, 3)
        q = random_poly(g, 3)
        with pytest.raises(ParameterError):
            obs.sp_slavnov(bare_pair(params3, p, q), 0.5)

    def test_synthetic_shifted_pair(self, params3):
        # P carrying the i*pi-shifted roots of Q satisfies the compatibility
        # condition identically, without any eigen data
        g = rng(57)
        q = random_poly(g, 3)
        p = q.shifted_ipi()
        pair = bare_pair(params3, p, q)
        assert obs.cond_pq_residual(pair) < 1e-12
        for alpha in (0.3 + 0.4j, -1.2j):
            a = obs.sp_izergin(pair, alpha)
            b = obs.sp_slavnov(pair, alpha)
            assert rel_dev(a, b) < 1e-10

    def test_eigen_pairs_all_representations(self, params3, records3, states3):
        bras, _, kets2 = states3
        alpha = KAPPA2 / params3.kappa
        for ip in (0, 3, 5):
            for iq in (1, 4, 5, 7):
                rp, rq = records3[ip], records3[iq]
                dense = overlap(bras[ip], kets2[iq])
                scale = bras[ip].norm2() * kets2[iq].norm2()
                pair = obs.PairContext(params3, rp.table, rq.table)
                vals = [
                    obs.sp_direct(pair, alpha),
                    obs.sp_izergin(pair, alpha),
                    obs.sp_slavnov(pair, alpha),
                    *obs.sp_tau(pair, params3.kappa, KAPPA2),
                    dense,
                ]
                for a in vals:
                    for b in vals:
                        assert rel_dev(a, b, scale) < 1e-7

    def test_gamma_deformation(self, params3, records3):
        g = rng(58)
        pair = obs.PairContext(params3, records3[0].table, records3[2].table)
        alpha = KAPPA2 / params3.kappa
        base = obs.sp_slavnov(pair, alpha)
        for _ in range(3):
            gamma = complex(g.uniform(-1, 1), g.uniform(-1, 1))
            val = obs.sp_slavnov(pair, alpha, gamma=gamma)
            assert rel_dev(val, base) < 1e-8

    def test_denominator_closed_form(self, params3, records3):
        for rp, rq in [(records3[0], records3[1]), (records3[2], records3[6])]:
            det = obs.PairContext(params3, rp.table, rq.table).cauchy_det
            closed = obs.coth_cauchy_closed_form(params3, rp.q_poly, rq.q_poly)
            assert rel_dev(det, closed) < 1e-10

    def test_equal_function_limit_against_perturbation(self, params3, records3):
        # diagonal entries use an analytic limit; perturbing the column roots
        # must converge to the same value
        rec = records3[1]
        alpha = 0.8 + 0.1j
        exact = obs.sp_slavnov(obs.PairContext(params3, rec.table, rec.table), alpha)
        eps_poly = HalfPeriodTrigPoly.from_roots([q + 1e-6 for q in rec.q_poly.roots])
        near_pair = obs.PairContext(params3, table(params3, eps_poly), rec.table)
        near = obs.sp_slavnov(near_pair, alpha, cond_tol=1e-4)
        assert rel_dev(exact, near) < 1e-4


class TestProductIdentity:
    def test_identity_on_eigen_pairs(self, params3, records3):
        g = rng(59)
        for ip, iq in [(0, 1), (2, 6), (3, 4)]:
            pair = obs.PairContext(params3, records3[ip].table, records3[iq].table)
            for _ in range(5):
                alpha = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                beta = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                lhs, rhs, dev = obs.sp_product_check(pair, alpha, beta)
                assert dev < 1e-7

    def test_equal_parameters_square(self, params3, records3):
        pair = obs.PairContext(params3, records3[0].table, records3[5].table)
        alpha = 0.6 - 0.9j
        lhs, rhs, dev = obs.sp_product_check(pair, alpha, alpha)
        square = obs.sp_slavnov(pair, alpha) ** 2
        assert dev < 1e-7
        assert rel_dev(rhs, square) < 1e-7

    def test_bethe_cancellation_of_last_line(self, params3, records3):
        alpha = 0.7 - 0.4j
        beta = cmath.exp(params3.eta) / alpha
        _, last, scale = obs.product_matrix(
            params3, records3[0].q_poly, records3[1].q_poly, alpha, beta)
        assert np.max(np.abs(last)) < 1e-8 * scale


class TestTauRepresentations:
    def test_z_independence(self, params3, records3):
        rp, rq = records3[1], records3[6]
        _, with_q = obs.sp_tau(obs.PairContext(
            params3, rp.table, rq.table, z=list(rq.q_poly.roots)), params3.kappa, KAPPA2)
        _, with_p = obs.sp_tau(obs.PairContext(
            params3, rp.table, rq.table, z=list(rp.q_poly.roots)), params3.kappa, KAPPA2)
        assert rel_dev(with_q, with_p) < 1e-8

    def test_diagonal_specialization_matches_same_q(self, params3, records3):
        rec = records3[2]
        alpha = 1.0
        ize, slav = obs.sp_tau(obs.PairContext(params3, rec.table, rec.table),
                               params3.kappa, params3.kappa)
        ize2, compact = obs.sp_same_q(params3, rec.q_poly, alpha)
        assert rel_dev(ize, ize2) < 1e-9
        assert rel_dev(slav, compact) < 1e-8


class TestSameQ:
    def test_forms_agree_on_certified_q(self, params3, records3):
        alpha = KAPPA2 / params3.kappa
        for rec in records3[:4]:
            a, b = obs.sp_same_q(params3, rec.q_poly, alpha)
            assert rel_dev(a, b) < 1e-9

    def test_alpha_zero(self, params3, records3):
        a, b = obs.sp_same_q(params3, records3[0].q_poly, 0.0)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(1.0)

    def test_matches_dense_norm(self, params3, basis3, records3):
        kappa, kappa2, eps, eps2 = params3.kappa, KAPPA2, 1, 1
        alpha = eps * eps2 * kappa2 / kappa
        for rec in records3[:4]:
            bra = separate_state(basis3, rec.table, kappa, eps, "bra")
            ket = separate_state(basis3, rec.table, kappa2, eps2, "ket")
            dense = overlap(bra, ket)
            a, b = obs.sp_same_q(params3, rec.q_poly, alpha)
            assert rel_dev(a, dense) < 1e-9
            assert rel_dev(b, dense) < 1e-9


class TestFormFactors:
    def test_sigma_z_against_dense(self, params3, records3, states3):
        bras, kets, _ = states3
        for ip in (0, 2, 5):
            for iq in (1, 2, 7):
                scale = bras[ip].norm2() * kets[iq].norm2()
                pair = obs.PairContext(params3, records3[ip].table, records3[iq].table)
                sites = (1, 2, 3)
                for site, roots_v, tau_v in zip(sites, obs.ff_sigma_z(pair, sites, "roots"),
                                                obs.ff_sigma_z(pair, sites, "tau")):
                    bf = matrix_element(bras[ip], local_op(SIGMA_Z, site, 3),
                                        kets[iq])
                    assert rel_dev(roots_v, bf, scale) < 1e-7
                    assert rel_dev(tau_v, bf, scale) < 1e-7
                    assert rel_dev(roots_v, tau_v, scale) < 1e-8

    def test_spin_flip_against_dense_lowering(self, params3, records3, states3):
        bras, kets, _ = states3
        for ip in (0, 3, 6):
            for iq in (0, 4, 5):
                scale = bras[ip].norm2() * kets[iq].norm2()
                pair = obs.PairContext(params3, records3[ip].table, records3[iq].table)
                sites = (1, 2, 3)
                for site, roots_v, tau_v in zip(
                        sites, obs.ff_sigma_pm(pair, params3.kappa, 1, sites, "roots"),
                        obs.ff_sigma_pm(pair, params3.kappa, 1, sites, "tau")):
                    bf = matrix_element(bras[ip], local_op(SIGMA_MINUS, site, 3),
                                        kets[iq])
                    assert rel_dev(roots_v, bf, scale) < 1e-7
                    assert rel_dev(tau_v, bf, scale) < 1e-7
                    assert rel_dev(roots_v, tau_v, scale) < 1e-8

    def test_raising_lowering_ratio_structure(self, params3, records3, states3):
        # the raising and lowering matrix elements differ by kappa^{-2} times
        # a pair-dependent sign; at kappa = 1 the two agree up to sign
        bras, kets, _ = states3
        for ip in (0, 1):
            for iq in (0, 1, 7):
                scale = bras[ip].norm2() * kets[iq].norm2()
                for site in (1, 2):
                    plus = matrix_element(bras[ip], local_op(SIGMA_PLUS, site, 3),
                                          kets[iq])
                    minus = matrix_element(bras[ip], local_op(SIGMA_MINUS, site, 3),
                                           kets[iq])
                    if abs(minus) > 1e-6 * scale:
                        ratio = plus / minus
                        assert min(abs(ratio - 1), abs(ratio + 1)) < 1e-8

    def test_diagonal_sigma_z_reality_in_hermitian_class(self):
        # twist kappa = 1, imaginary eta, real nodes: diagonal expectation
        # values divided by the state norm are real (here structurally zero)
        params = make_params(3, eta=0.75j, kappa=1.0)
        from sovxxz.spectrum import solve_spectrum
        records = solve_spectrum(SovBasis(params))
        for rec in records[:4]:
            norm = obs.sp_same_q(params, rec.q_poly, 1.0)[0]
            val = obs.ff_sigma_z(obs.PairContext(params, rec.table, rec.table), [2],
                                 "roots")[0] / norm
            assert abs(val.imag) < 1e-8

    def test_rank1_decomposition_structure(self, params3, records3):
        # det(S - P) = det(S) (1 - v^T S^{-1} u) for the rank-1 P = u v^T
        pair = obs.PairContext(params3, records3[0].table, records3[3].table)
        s_mat = obs.slavnov_matrix(pair.halves, 1.0)
        p_mat = obs._rank1_sigma_z(pair)[1]  # site 2
        assert np.linalg.matrix_rank(p_mat, tol=1e-10) == 1
        direct = det_lu(s_mat - p_mat)
        u, s, vh = np.linalg.svd(p_mat)
        col = u[:, 0] * s[0]
        row = vh[0]
        woodbury = det_lu(s_mat) * (1 - row @ np.linalg.solve(s_mat, col))
        assert rel_dev(direct, woodbury) < 1e-8


class TestPairContext:
    def test_one_det_call_per_form_factor_call(self, params3, records3, monkeypatch):
        # every site's determinant (and sigma^-'s base determinant) of one
        # form-factor call goes to LAPACK in one stacked det_lu call
        shapes = []
        det = obs.det_lu

        def counted(m):
            shapes.append(np.shape(m))
            return det(m)

        sites = range(1, params3.n + 1)
        pair = obs.PairContext(params3, records3[1].table, records3[6].table)
        assert pair.cauchy_det  # built once per pair, before the form factors in a run
        monkeypatch.setattr(obs, "det_lu", counted)
        for form in ("roots", "tau"):
            shapes.clear()
            obs.ff_sigma_z(pair, sites, form)
            assert shapes == [(3, 3, 3)]
            shapes.clear()
            obs.ff_sigma_pm(pair, params3.kappa, 1, sites, form)
            assert shapes == [(4, 3, 3)]

    def test_batched_tau_hat_equals_scalar_formula(self, params3, records3, monkeypatch):
        # tau_hat on an array of points is e^lam tau(lam) / d(lam) from the
        # scalar interpolation, to 1e-13 relative, for each eigenvalue; one
        # pair evaluates both of its eigenvalues in one batch for all its
        # formulas, and reads d from the z - xi rows and P's table
        g = rng(66)
        points = np.array([complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(6)])
        d = [params3.d_fn(lam) for lam in points]
        taus = [rec.tau for rec in records3[:3]]
        for tau, row in zip(taus, tau_hat(taus, points, d)):
            for lam, d_lam, got in zip(points, d, row):
                assert rel_dev(got, cmath.exp(lam) * tau(lam) / d_lam) <= 1e-13
        calls = []
        evaluate = obs.tau_hat

        def counted(taus, lam, d):
            calls.append(([id(tau) for tau in taus], np.shape(lam)))
            for lam_i, d_i in zip(lam, d):
                assert rel_dev(d_i, params3.d_fn(lam_i)) <= 1e-13
            return evaluate(taus, lam, d)

        monkeypatch.setattr(obs, "tau_hat", counted)
        n, sites = params3.n, range(1, params3.n + 1)
        for rp, rq in [(records3[1], records3[6]), (records3[2], records3[2])]:
            calls.clear()
            pair = obs.PairContext(params3, rp.table, rq.table)
            obs.sp_tau(pair, params3.kappa, KAPPA2)
            obs.ff_sigma_z(pair, sites, "tau")
            obs.ff_sigma_pm(pair, params3.kappa, 1, sites, "tau")
            assert calls == [([id(rq.tau), id(rp.tau)], (3 * n,))]

    def test_shared_context_matches_fresh_evaluation(self, params3, records3):
        # one context per pair serves every site, form and representation,
        # and one form-factor call serves every site; its values must equal
        # those of a fresh context and a one-site call bit for bit
        kappa, kappa2 = params3.kappa, KAPPA2
        sites = range(1, params3.n + 1)
        for rp, rq in [(records3[0], records3[0]), (records3[1], records3[5])]:
            pair = obs.PairContext(params3, rp.table, rq.table)

            def fresh():
                return obs.PairContext(params3, rp.table, rq.table)
            assert obs.sp_slavnov(pair, kappa2 / kappa) \
                == obs.sp_slavnov(fresh(), kappa2 / kappa)
            assert obs.sp_tau(pair, kappa, kappa2) == obs.sp_tau(fresh(), kappa, kappa2)
            for form in ("roots", "tau"):
                batch_z = obs.ff_sigma_z(pair, sites, form)
                batch_pm = obs.ff_sigma_pm(pair, kappa, 1, sites, form)
                assert len(batch_z) == len(batch_pm) == params3.n
                for site, z_val, pm_val in zip(sites, batch_z, batch_pm):
                    assert obs.ff_sigma_z(fresh(), [site], form) == [z_val]
                    assert obs.ff_sigma_pm(fresh(), kappa, 1, [site], form) == [pm_val]

    def test_custom_z_rows(self, params3, records3):
        rp, rq = records3[2], records3[4]
        z = [0.3 + 0.1j, -0.4 + 0.2j, 0.1 - 0.5j]
        pair = obs.PairContext(params3, rp.table, rq.table, z=z)
        assert pair.z.tolist() == z
        [default] = obs.ff_sigma_z(obs.PairContext(params3, rp.table, rq.table), [2], "tau")
        assert rel_dev(obs.ff_sigma_z(pair, [2], "tau")[0], default) < 1e-8

    @pytest.mark.parametrize("entry_point", ["sp_tau", "ff_sigma_z", "ff_sigma_pm"])
    def test_bad_z_rows_refused(self, params3, records3, entry_point):
        # too few points, a repeated point and two points an i*pi apart
        # (where tau_hat repeats its value) are refused by every eigenvalue form
        evaluate = {
            "sp_tau": lambda pair: obs.sp_tau(pair, params3.kappa, KAPPA2),
            "ff_sigma_z": lambda pair: obs.ff_sigma_z(pair, [1, 2], "tau"),
            "ff_sigma_pm": lambda pair: obs.ff_sigma_pm(pair, params3.kappa, 1, [1, 2], "tau"),
        }[entry_point]
        rp, rq = records3[1], records3[5]
        z = [0.3 + 0.1j, -0.4 + 0.2j, 0.1 - 0.5j]
        for bad in (z[:2], [z[0], z[0], z[2]], [z[0], z[0] + IPI, z[2]]):
            with pytest.raises(ParameterError, match="z "):
                evaluate(obs.PairContext(params3, rp.table, rq.table, z=bad))

    def test_tau_matrix_equals_entrywise_formula(self, params3, records3):
        # the batched halves equal the per-entry scalar formula to 1e-13
        # relative, removable limits included (numpy's array arithmetic rounds
        # differently from Python's scalar complex arithmetic)
        alpha = cmath.exp(-params3.eta)

        def hat(rec, lam):
            return cmath.exp(lam) * rec.tau(lam) / params3.d_fn(lam)

        def dq(rec, z, w):
            u = z - w
            m = round(u.imag / np.pi)
            if abs(u - 1j * np.pi * m) < 1e-9:
                return (-1.0) ** m * tau_hat_deriv(params3, [rec.tau], w)[0]
            return (hat(rec, z) - hat(rec, w)) / cmath.sinh(u)

        for rp, rq in [(records3[1], records3[6]), (records3[2], records3[2]),
                       (records3[0], records3[3])]:
            pair = obs.PairContext(params3, rp.table, rq.table)
            ref = np.array([[dq(rq, z, p) - alpha * dq(rp, z, p + params3.eta)
                             for p in rp.q_poly.roots] for z in rq.q_poly.roots])
            got = obs.tau_matrix(*pair.tau_dq, alpha)
            assert got.shape == ref.shape
            assert all(rel_dev(a, b) <= 1e-13 for a, b in zip(got.ravel(), ref.ravel()))

    def test_slavnov_matrix_equals_entrywise_formula(self, params3, records3):
        # the matrices built from the alpha-free halves equal the per-entry
        # scalar formula to 1e-13 relative (numpy's array arithmetic rounds
        # differently from Python's scalar complex arithmetic), same-roots
        # limits and the gamma deformation included; the formula reads
        # a, d, P and Q at the roots from the records' tables, as the halves
        # do (test_table_equals_fresh_evaluation checks those values)
        eta = params3.eta

        def kern(u, gamma):
            return coth(u / 2) if gamma is None else obs._s_gamma(u, gamma)

        def phat_over_sinh(pr, k, qj):
            # P(q_j + i*pi) / sinh(p_k - q_j) in product form: with
            # w = q_j + i*pi, prod_{l != k} sinh((w - p_l)/2) / (2 cosh((w - p_k)/2))
            w = qj + IPI
            num = 1.0 + 0.0j
            for l, pl in enumerate(pr):
                if l != k:
                    num *= cmath.sinh((w - pl) / 2)
            return num / (2 * cmath.cosh((w - pr[k]) / 2))

        def entry(rp, rq, alpha, gamma, j, k):
            pt, qt, q_poly = rp.table, rq.table, rq.q_poly
            pr = np.asarray(rp.q_poly.roots, dtype=np.complex128)
            pk, qj = pr[k], np.asarray(q_poly.roots, dtype=np.complex128)[j]
            if dist_mod_2ipi(pk, qj) < 1e-9:
                afrak_q = qt.d_r[j] * qt.r_eta_plus[j] / (qt.a_r[j] * qt.r_eta[j])
                limit = 2 * alpha * afrak_q * (q_poly.log_deriv(qj + eta)
                                               + q_poly.log_deriv(qj + IPI)
                                               - params3.a_log_deriv(qj))
                if gamma is None:
                    return coth((pk - qj - eta) / 2) + limit
                return (obs._s_gamma(pk - qj - eta, gamma)
                        + alpha * afrak_q * coth(gamma / 2) + limit)
            if rp is rq:
                q_minus, q_plus = qt.r_eta[k], qt.r_eta_plus[k]
            else:
                q_minus, q_plus = q_poly(pk - eta), q_poly(pk + eta)
            afrak_p = pt.d_r[k] * q_plus / (pt.a_r[k] * q_minus)
            mid = alpha * afrak_p * kern(pk - qj, gamma)
            cross = -2 * alpha * (pt.d_r[k] * qt.r_eta_plus[j]
                                  / (qt.a_r[j] * q_minus * pt.r_ipi[k])) \
                * phat_over_sinh(pr, k, qj)
            return kern(pk - qj - eta, gamma) + mid + cross

        n = params3.n
        for rp, rq in [(records3[1], records3[6]), (records3[2], records3[2])]:
            for gamma in (None, 0.3 - 0.2j):
                halves = obs.slavnov_halves(obs.PairContext(params3, rp.table, rq.table),
                                            gamma)
                for alpha in (1.0, KAPPA2 / params3.kappa, cmath.exp(-eta)):
                    ref = np.array([[entry(rp, rq, alpha, gamma, j, k)
                                     for k in range(n)] for j in range(n)])
                    got = obs.slavnov_matrix(halves, alpha)
                    assert got.shape == ref.shape
                    assert all(rel_dev(a, b) <= 1e-13 for a, b in zip(got.ravel(), ref.ravel()))

    def test_pair_formulas_read_node_tables(self, params3, records3, monkeypatch):
        # every P or Q value at xi_k, xi_k - eta and their i*pi translates,
        # and every tau value at xi_k, comes from the records' node tables,
        # not from a fresh evaluation at any point of an evaluator's array
        eta = params3.eta
        nodes = {v for x in params3.xi for v in (x, x - eta, x + IPI, x - eta + IPI)}
        evaluate = HalfPeriodTrigPoly.__call__
        weigh = InterpolationBasis.weights
        hits, batches = [], Counter()

        def watched(poly, points):
            batches["poly"] += 1
            hits.extend(lam for lam in np.ravel(points) if lam in nodes)
            return evaluate(poly, points)

        def watched_weights(basis, points):
            batches["weights"] += 1
            hits.extend(lam for lam in np.ravel(points) if lam in nodes)
            return weigh(basis, points)

        monkeypatch.setattr(HalfPeriodTrigPoly, "__call__", watched)
        monkeypatch.setattr(InterpolationBasis, "weights", watched_weights)
        alpha = KAPPA2 / params3.kappa
        for ip in (0, 2, 5):
            for iq in (1, 2, 7):
                pair = obs.PairContext(params3, records3[ip].table, records3[iq].table)
                obs.sp_direct(pair, alpha)
                obs.sp_izergin(pair, alpha)
                obs.sp_slavnov(pair, alpha)
                obs.sp_tau(pair, params3.kappa, KAPPA2)
                for form in ("roots", "tau"):
                    obs.ff_sigma_z(pair, range(1, params3.n + 1), form)
                    obs.ff_sigma_pm(pair, params3.kappa, 1, range(1, params3.n + 1), form)
        assert hits == [] and batches["poly"] and batches["weights"]

    def test_one_record_values_evaluated_once_per_record(self, tmp_path, monkeypatch):
        # in one observables run, tau is never evaluated at a node: its node
        # values are read as they are; once the records are certified,
        # separate states evaluate no polynomial and the pair formulas
        # evaluate only Q(p_k -+ eta), at any point of the evaluators' arrays,
        # and on a diagonal pair (P = Q) not even those: Q's table holds them
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 2}')
        params = load_config(cfg).params
        eta = params.eta
        tau_at_nodes = Counter()
        in_states, after_spectrum, on_diagonal, diagonal_pairs, records = [], [], [], [], []
        phase = {"certified": False, "state": False, "diagonal": False}
        call_poly, call_weights = HalfPeriodTrigPoly.__call__, InterpolationBasis.weights
        solve, state, make_pair = cli.solve_spectrum, cli.separate_state, obs.PairContext

        # tau is evaluated only through the weights of its basis
        def counted_weights(basis, points):
            for lam in np.ravel(points):
                if lam in params.xi:
                    tau_at_nodes[id(basis), lam] += 1
            return call_weights(basis, points)

        def seen(lam):
            if phase["state"]:
                in_states.append(lam)
            elif phase["certified"]:
                after_spectrum.append(lam)
                if phase["diagonal"]:
                    on_diagonal.append(lam)

        def watched_poly(poly, points):
            for lam in np.ravel(points):
                seen(lam)
            return call_poly(poly, points)

        def tracked_pair(params, p, q, z=None):
            phase["diagonal"] = p is q
            diagonal_pairs.append(p is q)
            return make_pair(params, p, q, z)

        def solve_then_mark(*args, **kwargs):
            records.extend(solve(*args, **kwargs))
            phase["certified"] = True
            return records

        def watched_state(*args, **kwargs):
            phase["state"] = True
            try:
                return state(*args, **kwargs)
            finally:
                phase["state"] = False

        monkeypatch.setattr(InterpolationBasis, "weights", counted_weights)
        monkeypatch.setattr(HalfPeriodTrigPoly, "__call__", watched_poly)
        monkeypatch.setattr(cli, "solve_spectrum", solve_then_mark)
        monkeypatch.setattr(cli, "separate_state", watched_state)
        monkeypatch.setattr(obs, "PairContext", tracked_pair)
        assert cli.main(["observables", "--config", str(cfg),
                         "--out", str(tmp_path / "r.json")]) != 2
        assert records and not tau_at_nodes
        assert in_states == []
        pair_points = {r + s for rec in records for r in rec.q_poly.roots for s in (-eta, eta)}
        assert after_spectrum and set(after_spectrum) <= pair_points
        assert sum(diagonal_pairs) == len(records) and on_diagonal == []

    def test_tau_forms_need_records(self, params3, records3):
        pair = bare_pair(params3, records3[0].q_poly, records3[1].q_poly)
        with pytest.raises(ParameterError):
            obs.sp_tau(pair, params3.kappa, KAPPA2)


class TestRefusals:
    """Each pair formula refuses a singular point with its own message."""

    def roots_with(self, params, k, value):
        g = rng(62)
        roots = [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(params.n)]
        roots[k] = value
        return HalfPeriodTrigPoly.from_roots(roots)

    def test_izergin_refuses_a_root_on_a_node(self, params3):
        p = self.roots_with(params3, 0, params3.xi[0])
        q = random_poly(rng(63), 3)
        with pytest.raises(SingularEvaluationError,
                           match="collides with an inhomogeneity shift set"):
            obs.sp_izergin(bare_pair(params3, p, q), 0.5)

    def test_direct_refuses_a_root_on_a_shifted_node(self, params3):
        p = self.roots_with(params3, 1, params3.xi[1] - params3.eta)
        q = random_poly(rng(64), 3)
        with pytest.raises(SingularEvaluationError, match=r"\(PQ\)\(xi - eta\) vanishes"):
            obs.sp_direct(bare_pair(params3, p, q), 0.5)

    def test_slavnov_halves_refuse_one_shared_root(self, params3):
        q = random_poly(rng(65), 3)
        p = self.roots_with(params3, 0, q.roots[1])
        with pytest.raises(SingularEvaluationError,
                           match="coincident roots .* for distinct functions"):
            obs.slavnov_halves(bare_pair(params3, p, q))

    def test_izergin_ratio_refuses_a_point_on_a_node(self, params3):
        zs = [params3.xi[0], 0.2 + 0.3j, -0.5 + 0.1j]
        with pytest.raises(SingularEvaluationError, match="Izergin node collision"):
            obs.izergin_ratio(params3.xi, zs, [0.3, 0.1j, -0.2], params3.eta)

    def test_gamma_zero_is_a_pole(self, params3, records3):
        pair = obs.PairContext(params3, records3[0].table, records3[2].table)
        with pytest.raises(SingularEvaluationError, match="s_gamma evaluated at a pole"):
            obs.sp_slavnov(pair, KAPPA2 / params3.kappa, gamma=0)


class TestGenericArgumentMatrixElements:
    def test_b_element_against_dense(self, params3, basis3, records3):
        g = rng(60)
        kappa, kappa2 = params3.kappa, KAPPA2
        bras = [separate_state(basis3, r.table, kappa, 1, "bra")
                for r in records3[:4]]
        kets2 = [separate_state(basis3, r.table, kappa2, 1, "ket")
                 for r in records3[:4]]
        for _ in range(3):
            mu = complex(g.uniform(-0.8, 0.8), g.uniform(-0.8, 0.8))
            blocks = monodromy_entries(params3, mu)
            for ip, iq in [(0, 1), (2, 3), (1, 1)]:
                bf = matrix_element(bras[ip], blocks.b, kets2[iq])
                pair = obs.PairContext(params3, records3[ip].table, records3[iq].table)
                val = obs.matel_b(pair, kappa, kappa2, 1, 1, mu)
                scale = bras[ip].norm2() * kets2[iq].norm2()
                assert rel_dev(val, bf, scale) < 1e-7

    def test_d_element_against_dense(self, params3, records3, states3):
        g = rng(61)
        bras, kets, _ = states3
        for _ in range(3):
            mu = complex(g.uniform(-0.8, 0.8), g.uniform(-0.8, 0.8))
            blocks = monodromy_entries(params3, mu)
            for ip, iq in [(0, 1), (3, 6), (4, 4)]:
                bf = matrix_element(bras[ip], blocks.d, kets[iq])
                pair = obs.PairContext(params3, records3[ip].table, records3[iq].table)
                val = obs.matel_d(pair, mu)
                scale = bras[ip].norm2() * kets[iq].norm2()
                assert rel_dev(val, bf, scale) < 1e-7


class TestIdentityBench:
    def test_all_residuals(self, params3, records3):
        bench = obs.identity_bench(params3, records=records3)
        for name, value in bench.items():
            tol = 1e-6 if name.startswith("extension") else 1e-9
            assert value < tol, f"{name}: {value:.3e}"
