import cmath
import itertools

import numpy as np
import pytest

from conftest import (
    KAPPA2,
    certified_chain,
    hat,
    make_params,
    norm_scales,
    poly,
    rel_dev,
    rng,
    table,
    tau,
)
from paper_forms import separate_ket_qdet_form
from sovxxz.cli import _sov_action_residual
from sovxxz.errors import SingularEvaluationError
from sovxxz.lattice import FlipBlocks, monodromy_entries, reference_state, transfer_k
from sovxxz.model import canonical_roots, half_period_values, q_table, vandermonde
from sovxxz.sov import SovBasis, all_h, separate_state


def xi_shifted(params, h) -> list[complex]:
    """The shifted nodes xi_n - h_n * eta."""
    return [params.xi[m] - h[m] * params.eta for m in range(params.n)]


class TestSovBasis:
    def test_h_zero_is_reference(self, params3):
        assert np.allclose(SovBasis(params3).kets[0], reference_state(3))

    def test_d_operator_diagonal(self, params3):
        g = rng(31)
        basis = SovBasis(params3)
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        t = monodromy_entries(params3, lam)
        for h, ket, bra in zip(all_h(3), basis.kets, basis.bras):
            dh = np.prod([cmath.sinh(lam - v) for v in xi_shifted(params3, h)])
            assert np.linalg.norm(t.d @ ket - dh * ket) < 1e-9 * np.linalg.norm(ket)
            assert np.linalg.norm(t.d.T @ bra - dh * bra) < 1e-9 * np.linalg.norm(bra)

    def test_orthogonality_measure(self, params3):
        # <h|k> = delta_{h,k} / V(xi^(h)), row h of the pairing
        basis = SovBasis(params3)
        measure = 1.0 / basis.v_h
        assert np.all(np.abs(basis.bras @ basis.kets.T - np.diag(measure))
                      < 1e-9 * np.abs(measure)[:, None])

    def test_keeps_b_and_c_at_the_nodes_alone(self):
        # at n = 4 the basis holds 2N node blocks, B and C at each xi_m, and
        # its kets, bras, labels and measure factors: no A or D
        params = make_params(4)
        basis = SovBasis(params)
        dim = 2**params.n
        assert all(type(t) is FlipBlocks for t in basis.at_xi)
        held = [a for a in vars(basis).values() if isinstance(a, np.ndarray)]
        held += [block for t in basis.at_xi for block in vars(t).values()]
        assert all(isinstance(a, np.ndarray) for a in held)
        assert set(vars(basis)) == {"params", "at_xi", "kets", "bras", "labels", "v_h"}
        assert sum(a.nbytes for a in held) == 2 * params.n * dim * dim * 16 \
            + basis.kets.nbytes + basis.bras.nbytes + basis.labels.nbytes + basis.v_h.nbytes

    def test_shares_b_and_c_of_blocks_handed_in(self, params3, basis3):
        full = [monodromy_entries(params3, x) for x in params3.xi]
        basis = SovBasis(params3, full)
        assert all(t.b is f.b and t.c is f.c and type(t) is FlipBlocks
                   for t, f in zip(basis.at_xi, full))
        for name in ("kets", "bras", "v_h", "labels"):
            assert getattr(basis, name).tobytes() == getattr(basis3, name).tobytes()

    def test_all_action_formulas(self, params3, basis3):
        g = rng(31)
        points = [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(2)]
        assert _sov_action_residual(
            basis3, [(lam, monodromy_entries(params3, lam)) for lam in points]) < 1e-8


class TestSeparateStates:
    def test_n1_ket_coefficients(self):
        params = make_params(1, kappa=0.8 + 0.3j)
        roots = canonical_roots([0.2 - 0.1j])
        state = separate_state(SovBasis(params), table(params, roots), params.kappa, "ket")
        q_x, q_x_eta = half_period_values(roots, [params.xi[0], params.xi[0] - params.eta])
        ratio = q_x / q_x_eta
        assert state.coefficients.shape == (1, 2)
        assert rel_dev(state.coefficients[0, 0], params.kappa * ratio) < 1e-13
        assert rel_dev(state.coefficients[0, 1], 1.0) < 1e-13

    def test_eigenstate_property(self, params3, basis3, records3):
        g = rng(32)
        kets = separate_state(basis3, records3.table.take([0, 1, 2]), params3.kappa, "ket")
        for i, ket in enumerate(kets.embedded):
            norm = np.linalg.norm(ket)
            for _ in range(3):
                mu = complex(g.uniform(-1, 1), g.uniform(-1, 1))
                tv = transfer_k(params3, mu) @ ket
                tau_mu = tau(params3, records3, i)(mu)
                resid = np.linalg.norm(tv - tau_mu * ket)
                assert resid < 1e-8 * max(np.linalg.norm(tv), abs(tau_mu) * norm)

    def test_plus_state_equals_hatted_minus_state(self):
        # the paper's eps = -1 state of a record, built at -kappa, is the
        # kappa state of its i*pi-shifted partner, for bras and kets at
        # N = 2-4: parallel, with a projection residual of at most 7.1e-15,
        # and with a ratio within 4.8e-15 of 1
        for n, kappa in itertools.product((2, 3, 4), (1.0, 0.8 - 0.3j)):
            basis, spectrum = certified_chain(n, kappa)
            hats = q_table(basis.params, spectrum.table.hat, None, [])
            for side in ("ket", "bra"):
                minus = separate_state(basis, spectrum.table, -kappa, side).embedded
                partner = separate_state(basis, hats, kappa, side).embedded
                for u, v in zip(minus, partner):
                    along = np.vdot(u, v) / np.vdot(u, u)
                    assert np.linalg.norm(v - along * u) <= 1e-12 * np.linalg.norm(v)
                    assert abs(along - 1) <= 1e-12

    def test_unnormalized_ket_forms_agree(self, params3, basis3):
        g = rng(33)
        roots = canonical_roots([complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)])
        kappa = -(0.9 - 0.2j)
        a = separate_state(basis3, table(params3, roots), kappa, "ket", normalized=False)
        b = separate_ket_qdet_form(basis3, table(params3, roots), kappa)
        assert np.linalg.norm(a.embedded - b.embedded) < 1e-9 * np.linalg.norm(a.embedded)

    @staticmethod
    def check_prefactors(params, basis, roots):
        """The normalized states of the polynomial of ``roots`` are its
        unnormalized ones over their factors."""
        kappa = 1.1 + 0.4j
        p = table(params, roots)
        q_x_eta = half_period_values(roots, np.asarray(params.xi) - params.eta)
        raw_ket = separate_state(basis, p, kappa, "ket", normalized=False)
        norm_ket = separate_state(basis, p, kappa, "ket")
        factor = vandermonde(params.xi)
        for value in q_x_eta:
            factor *= value / kappa
        assert np.linalg.norm(raw_ket.embedded - factor * norm_ket.embedded) \
            < 1e-9 * np.linalg.norm(raw_ket.embedded)
        raw_bra = separate_state(basis, p, kappa, "bra", normalized=False)
        norm_bra = separate_state(basis, p, kappa, "bra")
        factor = 1.0 + 0.0j
        for value in q_x_eta:
            factor *= kappa * value
        assert np.linalg.norm(raw_bra.embedded - factor * norm_bra.embedded) \
            < 1e-9 * np.linalg.norm(raw_bra.embedded)

    def test_normalization_prefactors(self, params3, basis3):
        g = rng(34)
        self.check_prefactors(params3, basis3, canonical_roots(
            [complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)]))

    def test_normalized_state_near_shifted_node(self, params3, basis3):
        # a root 1e-4 from xi_2 - eta is no zero of P(xi_2 - eta): the
        # normalized states are built, with the same prefactors
        self.check_prefactors(params3, basis3, canonical_roots(
            [params3.xi[1] - params3.eta + 1e-4, 0.9 + 0.1j, -0.8 - 0.2j]))

    def test_normalized_guard_near_shifted_node(self, params3, basis3):
        roots = canonical_roots([params3.xi[1] - params3.eta + 3e-7, 0.9 + 0.1j, -0.8 - 0.2j])
        p = table(params3, roots)
        with pytest.raises(SingularEvaluationError,
                           match=r"^record 0: P has a root 3\.0\d*e-07 from xi_2 - eta, "
                                 r"within 1e-06; build the unnormalized state instead$"):
            separate_state(basis3, p, 1.0, "ket")
        # the unnormalized form stays available
        separate_state(basis3, p, 1.0, "ket", normalized=False)
        # on a stacked table the refusal names the lowest failing record
        fine = canonical_roots([0.3 + 0.2j, 0.9 + 0.1j, -0.8 - 0.2j])
        two = q_table(params3, [fine, roots], None, [])
        with pytest.raises(SingularEvaluationError,
                           match=r"^record 1: P has a root 3\.0\d*e-07 from xi_2 - eta, "
                                 r"within 1e-06; build the unnormalized state instead$"):
            separate_state(basis3, two, 1.0, "bra")
        separate_state(basis3, two.take([0]), 1.0, "bra")


class TestBatchedStates:
    # the masked row products against the per-label formulas, term by term
    def test_rows_are_views_of_the_stacked_arrays(self, basis3):
        assert basis3.kets.shape == basis3.bras.shape == (8, 8)
        for i, h in enumerate(all_h(3)):
            assert np.shares_memory(basis3.kets[i], basis3.kets)
            assert np.shares_memory(basis3.bras[i], basis3.bras)
            assert tuple(basis3.labels[i]) == tuple(bool(b) for b in h)

    @staticmethod
    def per_label(params, roots, kappa, side, normalized):
        """Coefficient of every label h from the scalar site and Vandermonde
        factors of the polynomial of ``roots``."""
        twist = kappa if side == "ket" else 1 / kappa  # normalized, per h_n = 0
        flip = kappa if side == "bra" else 1 / kappa  # unnormalized, per h_n = 1
        xi = np.asarray(params.xi)
        q_x, q_x_eta = half_period_values(roots, [xi, xi - params.eta])
        coeffs = []
        for h in all_h(params.n):
            factor = vandermonde(xi_shifted(params, [1 - b for b in h] if side == "ket" else h))
            for k, b in enumerate(h):
                if normalized:
                    factor *= 1.0 if b else twist * q_x[k] / q_x_eta[k]
                else:
                    factor *= q_x_eta[k] * flip if b else q_x[k]
            if normalized and side == "ket":
                factor /= vandermonde(params.xi)
            coeffs.append(factor)
        return np.array(coeffs)

    def test_states_match_per_label_formula(self, params3, basis3, records3):
        g = rng(35)
        synthetic = canonical_roots([complex(g.uniform(-1, 1), g.uniform(-1, 1)) for _ in range(3)])
        polys = [(records3.table.take([i]), poly(records3, i)) for i in range(3)]
        polys.append((table(params3, synthetic), synthetic))
        # at a negative twist, the paper's eps = -1
        kappa, eta = -KAPPA2, params3.eta
        xi = np.asarray(params3.xi)
        for tab, p_roots in polys:
            for side in ("ket", "bra"):
                for normalized in (True, False):
                    state = separate_state(basis3, tab, kappa, side, normalized)
                    want = self.per_label(params3, p_roots, kappa, side, normalized)
                    rows = basis3.kets if side == "ket" else basis3.bras
                    embedded = sum(c * row for c, row in zip(want, rows))
                    assert np.all(np.abs(state.coefficients[0] - want) <= 1e-13 * np.abs(want))
                    assert np.linalg.norm(state.embedded[0] - embedded) \
                        <= 1e-13 * np.linalg.norm(embedded)
            want = []
            p_x, p_x_eta = half_period_values(p_roots, [xi, xi - eta])
            for h in all_h(3):
                factor = vandermonde(xi_shifted(params3, h))
                for k, (x, b) in enumerate(zip(params3.xi, h)):
                    factor *= p_x_eta[k] if b else p_x[k]
                    if b:
                        factor *= params3.a_fn(x) / params3.d_fn(x - eta) / -kappa
                want.append(factor)
            qdet = separate_ket_qdet_form(basis3, tab, kappa)
            assert np.all(np.abs(qdet.coefficients[0] - np.array(want))
                          <= 1e-13 * np.abs(np.array(want)))


    def test_stacked_table_equals_each_record(self, params3, basis3, records3):
        # one product over an R-row table gives, bit for bit, the state of
        # each of its records built from a one-row table, for bras and kets,
        # normalized or not, and in the qdet form
        t = records3.table

        def bits(state):
            return (state.coefficients.view(np.uint64), state.embedded.view(np.uint64))

        builds = [lambda tab, side=side, normalized=normalized: separate_state(
                      basis3, tab, -KAPPA2, side, normalized)
                  for side in ("bra", "ket") for normalized in (True, False)]
        builds.append(lambda tab: separate_ket_qdet_form(basis3, tab, -KAPPA2))
        for build in builds:
            stacked = bits(build(t))
            assert stacked[0].shape == (8, 16)
            for i in range(len(t)):
                for whole, alone in zip(stacked, bits(build(t.take([i])))):
                    assert np.array_equal(whole[i:i + 1], alone)


class TestOverlaps:
    def test_eigenstate_orthogonality(self, params3, records3, states3):
        bras, kets, _ = states3
        ratio = np.abs(bras.embedded @ kets.embedded.T) / norm_scales(bras, kets)
        diagonal = np.eye(8, dtype=bool)
        assert np.all(ratio[diagonal] > 1e-4) and np.all(ratio[~diagonal] < 1e-8)

    def test_overlap_depends_only_on_product_and_alpha(self, params3, basis3, records3):
        p, q = records3.table.take([0]), records3.table.take([1])
        kappa, kappa2 = params3.kappa, KAPPA2

        def overlap(p, q, kappa, kappa2):
            bra = separate_state(basis3, p, kappa, "bra").embedded[0]
            return bra @ separate_state(basis3, q, kappa2, "ket").embedded[0]

        base = overlap(p, q, kappa, kappa2)
        # the same kappa'/kappa through rescaled twists, both negated
        assert rel_dev(base, overlap(p, q, -2.0 * kappa, -2.0 * kappa2)) < 1e-9

        # swapping a root between P and Q keeps the product function PQ
        pr, qr = p.roots[0].tolist(), q.roots[0].tolist()
        pr[0], qr[2] = qr[2], pr[0]
        mixed = overlap(table(params3, canonical_roots(pr)), table(params3, canonical_roots(qr)),
                        kappa, kappa2)
        assert rel_dev(base, mixed) < 1e-9

    def test_qhat_sign_convention_is_immaterial(self, params3, basis3, records3):
        # shifting one stored root by 2*pi*i flips the sign of the polynomial
        # but not of any state built from it
        partner = hat(records3, 1)
        shifted = np.array(partner)
        shifted[0] -= 2j * np.pi
        a = separate_state(basis3, table(params3, partner), -params3.kappa, "ket")
        b = separate_state(basis3, table(params3, shifted), -params3.kappa, "ket")
        assert np.linalg.norm(a.embedded - b.embedded) < 1e-9 * np.linalg.norm(a.embedded)
