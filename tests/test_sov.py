import cmath

import numpy as np
import pytest

from conftest import KAPPA2, make_params, rel_dev, rng, table
from sovxxz.cli import _sov_action_residual
from sovxxz.errors import SingularEvaluationError
from sovxxz.lattice import monodromy_entries, reference_state, transfer_k
from sovxxz.model import HalfPeriodTrigPoly, vandermonde
from sovxxz.sov import (
    SovBasis,
    all_h,
    overlap,
    separate_ket_qdet_form,
    separate_state,
)


def xi_shifted(params, h) -> list[complex]:
    """The shifted nodes xi_n - h_n * eta."""
    return [params.xi[m] - h[m] * params.eta for m in range(params.n)]


class TestSovBasis:
    def test_h_zero_is_reference(self, params3):
        assert np.allclose(SovBasis(params3).ket((0, 0, 0)), reference_state(3))

    def test_d_operator_diagonal(self, params3):
        g = rng(31)
        basis = SovBasis(params3)
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        t = monodromy_entries(params3, lam)
        for h in all_h(3):
            dh = np.prod([cmath.sinh(lam - v) for v in xi_shifted(params3, h)])
            ket = basis.ket(h)
            bra = basis.bra(h)
            assert np.linalg.norm(t.d @ ket - dh * ket) < 1e-9 * np.linalg.norm(ket)
            assert np.linalg.norm(t.d.T @ bra - dh * bra) < 1e-9 * np.linalg.norm(bra)

    def test_orthogonality_measure(self, params3):
        basis = SovBasis(params3)
        for h in all_h(3):
            for k in all_h(3):
                got = complex(basis.bra(h) @ basis.ket(k))
                want = basis.measure(h) if h == k else 0.0
                assert abs(got - want) < 1e-9 * abs(basis.measure(h))

    def test_all_action_formulas(self, params3, basis3):
        g = rng(31)
        points = [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(2)]
        assert _sov_action_residual(
            basis3, [(lam, monodromy_entries(params3, lam)) for lam in points]) < 1e-8


class TestSeparateStates:
    def test_n1_ket_coefficients(self):
        params = make_params(1, kappa=0.8 + 0.3j)
        poly = HalfPeriodTrigPoly.from_roots([0.2 - 0.1j])
        state = separate_state(SovBasis(params), table(params, poly), params.kappa, 1, "ket")
        ratio = poly(params.xi[0]) / poly(params.xi[0] - params.eta)
        assert rel_dev(state.coefficients[0], params.kappa * ratio) < 1e-13
        assert rel_dev(state.coefficients[1], 1.0) < 1e-13

    def test_eigenstate_property(self, params3, basis3, records3):
        g = rng(32)
        for rec in records3[:3]:
            ket = separate_state(basis3, rec.table, params3.kappa, 1, "ket")
            for _ in range(3):
                mu = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                tv = transfer_k(params3, mu) @ ket.embedded
                resid = np.linalg.norm(tv - rec.tau(mu) * ket.embedded)
                assert resid < 1e-8 * max(np.linalg.norm(tv),
                                          abs(rec.tau(mu)) * ket.norm2())

    def test_plus_state_equals_hatted_minus_state(self, params3, basis3, records3):
        for rec in records3[:4]:
            hat = table(params3, rec.table.hat)
            plus = separate_state(basis3, rec.table, params3.kappa, 1, "ket")
            minus = separate_state(basis3, hat, params3.kappa, -1, "ket")
            assert np.linalg.norm(plus.embedded - minus.embedded) \
                < 1e-9 * plus.norm2()
            bplus = separate_state(basis3, rec.table, params3.kappa, 1, "bra")
            bminus = separate_state(basis3, hat, params3.kappa, -1, "bra")
            assert np.linalg.norm(bplus.embedded - bminus.embedded) \
                < 1e-9 * bplus.norm2()

    def test_unnormalized_ket_forms_agree(self, params3, basis3):
        g = rng(33)
        poly = HalfPeriodTrigPoly.from_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)])
        kappa, eps = 0.9 - 0.2j, -1
        a = separate_state(basis3, table(params3, poly), kappa, eps, "ket",
                           normalized=False)
        b = separate_ket_qdet_form(basis3, table(params3, poly), kappa, eps)
        assert np.linalg.norm(a.embedded - b.embedded) < 1e-9 * a.norm2()

    @staticmethod
    def check_prefactors(params, basis, poly):
        """The normalized states of ``poly`` are its unnormalized ones over
        their factors."""
        kappa, eps = 1.1 + 0.4j, 1
        p = table(params, poly)
        raw_ket = separate_state(basis, p, kappa, eps, "ket", normalized=False)
        norm_ket = separate_state(basis, p, kappa, eps, "ket")
        factor = vandermonde(params.xi)
        for x in params.xi:
            factor *= (eps / kappa) * poly(x - params.eta)
        assert np.linalg.norm(raw_ket.embedded - factor * norm_ket.embedded) \
            < 1e-9 * raw_ket.norm2()
        raw_bra = separate_state(basis, p, kappa, eps, "bra", normalized=False)
        norm_bra = separate_state(basis, p, kappa, eps, "bra")
        factor = 1.0 + 0.0j
        for x in params.xi:
            factor *= eps * kappa * poly(x - params.eta)
        assert np.linalg.norm(raw_bra.embedded - factor * norm_bra.embedded) \
            < 1e-9 * raw_bra.norm2()

    def test_normalization_prefactors(self, params3, basis3):
        g = rng(34)
        self.check_prefactors(params3, basis3, HalfPeriodTrigPoly.from_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)]))

    def test_normalized_state_near_shifted_node(self, params3, basis3):
        # a root 1e-4 from xi_2 - eta is no zero of P(xi_2 - eta): the
        # normalized states are built, with the same prefactors
        self.check_prefactors(params3, basis3, HalfPeriodTrigPoly.from_roots(
            [params3.xi[1] - params3.eta + 1e-4, 0.9 + 0.1j, -0.8 - 0.2j]))

    def test_normalized_guard_near_shifted_node(self, params3, basis3):
        poly = HalfPeriodTrigPoly.from_roots(
            [params3.xi[1] - params3.eta + 3e-7, 0.9 + 0.1j, -0.8 - 0.2j])
        p = table(params3, poly)
        with pytest.raises(SingularEvaluationError,
                           match=r"root 3\.0\d*e-07 from xi_2 - eta, within 1e-06"):
            separate_state(basis3, p, 1.0, 1, "ket")
        # the unnormalized form stays available
        separate_state(basis3, p, 1.0, 1, "ket", normalized=False)


class TestBatchedStates:
    # the masked row products against the per-label formulas, term by term
    def test_rows_are_views_of_the_stacked_arrays(self, basis3):
        assert basis3.kets.shape == basis3.bras.shape == (8, 8)
        for i, h in enumerate(all_h(3)):
            assert np.shares_memory(basis3.kets[i], basis3.kets)
            assert np.shares_memory(basis3.bras[i], basis3.bras)
            assert basis3.ket(h).base is basis3.kets and basis3.bra(h).base is basis3.bras
            assert tuple(basis3.labels[i]) == tuple(bool(b) for b in h)

    @staticmethod
    def per_label(params, poly, kappa, eps, side, normalized):
        """Coefficient of every label h from the scalar site and Vandermonde factors."""
        twist = eps * kappa if side == "ket" else eps / kappa  # normalized, per h_n = 0
        flip = eps * kappa if side == "bra" else 1 / (eps * kappa)  # unnormalized, per h_n = 1
        coeffs = []
        for h in all_h(params.n):
            factor = vandermonde(xi_shifted(params, [1 - b for b in h] if side == "ket" else h))
            for x, b in zip(params.xi, h):
                if normalized:
                    factor *= 1.0 if b else twist * poly(x) / poly(x - params.eta)
                else:
                    factor *= poly(x - b * params.eta) * (flip if b else 1.0)
            if normalized and side == "ket":
                factor /= vandermonde(params.xi)
            coeffs.append(factor)
        return np.array(coeffs)

    def test_states_match_per_label_formula(self, params3, basis3, records3):
        g = rng(35)
        synthetic = HalfPeriodTrigPoly.from_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)])
        polys = [(rec.table, rec.q_poly) for rec in records3[:3]]
        polys.append((table(params3, synthetic), synthetic))
        eps, eta = -1, params3.eta
        for tab, poly in polys:
            for side in ("ket", "bra"):
                for normalized in (True, False):
                    state = separate_state(basis3, tab, KAPPA2, eps, side, normalized)
                    want = self.per_label(params3, poly, KAPPA2, eps, side, normalized)
                    rows = [basis3.ket(h) if side == "ket" else basis3.bra(h)
                            for h in all_h(3)]
                    embedded = sum(c * row for c, row in zip(want, rows))
                    assert np.all(np.abs(state.coefficients - want) <= 1e-13 * np.abs(want))
                    assert np.linalg.norm(state.embedded - embedded) \
                        <= 1e-13 * np.linalg.norm(embedded)
            want = []
            for h in all_h(3):
                factor = vandermonde(xi_shifted(params3, h))
                for x, b in zip(params3.xi, h):
                    factor *= poly(x - b * eta)
                    if b:
                        factor *= params3.a_fn(x) / params3.d_fn(x - eta) / (-eps * KAPPA2)
                want.append(factor)
            qdet = separate_ket_qdet_form(basis3, tab, KAPPA2, eps)
            assert np.all(np.abs(qdet.coefficients - np.array(want))
                          <= 1e-13 * np.abs(np.array(want)))


class TestOverlaps:
    def test_eigenstate_orthogonality(self, params3, records3, states3):
        bras, kets, _ = states3
        for ip in range(8):
            for iq in range(8):
                val = overlap(bras[ip], kets[iq])
                scale = bras[ip].norm2() * kets[iq].norm2()
                if ip == iq:
                    assert abs(val) > 1e-4 * scale
                else:
                    assert abs(val) < 1e-8 * scale

    def test_overlap_depends_only_on_product_and_alpha(self, params3, basis3, records3):
        p, q = records3[0].table, records3[1].table
        kappa, kappa2, eps, eps2 = params3.kappa, KAPPA2, 1, 1
        base = overlap(separate_state(basis3, p, kappa, eps, "bra"),
                       separate_state(basis3, q, kappa2, eps2, "ket"))

        # same eps*eps'*kappa'/kappa through rescaled twists and flipped signs
        alt = overlap(
            separate_state(basis3, p, 2.0 * kappa, -eps, "bra"),
            separate_state(basis3, q, 2.0 * kappa2, -eps2, "ket"))
        assert rel_dev(base, alt) < 1e-9

        # swapping a root between P and Q keeps the product function PQ
        pr, qr = list(p.roots), list(q.roots)
        pr[0], qr[2] = qr[2], pr[0]
        mixed = overlap(
            separate_state(basis3, table(params3, HalfPeriodTrigPoly.from_roots(pr)),
                           kappa, eps, "bra"),
            separate_state(basis3, table(params3, HalfPeriodTrigPoly.from_roots(qr)),
                           kappa2, eps2, "ket"))
        assert rel_dev(base, mixed) < 1e-9

    def test_qhat_sign_convention_is_immaterial(self, params3, basis3, records3):
        # shifting one stored root by 2*pi*i flips the sign of the polynomial
        # but not of any state built from it
        rec = records3[1]
        roots = list(rec.table.hat.roots)
        shifted = HalfPeriodTrigPoly(tuple([roots[0] - 2j * np.pi] + roots[1:]))
        a = separate_state(basis3, table(params3, rec.table.hat), params3.kappa, -1,
                           "ket")
        b = separate_state(basis3, table(params3, shifted), params3.kappa, -1, "ket")
        assert np.linalg.norm(a.embedded - b.embedded) < 1e-9 * a.norm2()

    def test_matrix_element_shape_guard(self, params3, records3, states3):
        bras, kets, _ = states3
        with pytest.raises(ValueError):
            overlap(kets[0], kets[1])
