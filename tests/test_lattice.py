import cmath

import numpy as np
import pytest

from conftest import make_params, rng
from sovxxz.errors import DegenerateSpectrumError, DimensionError
from sovxxz.lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    NodeFactors,
    dress_local_operator,
    elementary_matrix,
    local_op,
    monodromy_entries,
    r_matrix,
    reference_state,
    spectrum_oracle,
    transfer_k,
    twist_matrix,
)

ETA = 0.6 + 0.35j


class TestRMatrix:
    def test_lambda_zero_structure(self):
        se = np.sinh(ETA)
        r0 = r_matrix(0.0, ETA)
        expected = np.array([[se, 0, 0, 0],
                             [0, 0, se, 0],
                             [0, se, 0, 0],
                             [0, 0, 0, se]])
        assert np.allclose(r0, expected)

    def test_yang_baxter(self):
        g = rng(21)
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        mu = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        r12 = np.kron(r_matrix(lam - mu, ETA), np.eye(2))
        r23 = np.kron(np.eye(2), r_matrix(mu, ETA))
        perm = [0, 2, 1, 3, 4, 6, 5, 7]
        r13 = np.kron(r_matrix(lam, ETA), np.eye(2))[np.ix_(perm, perm)]
        lhs = r12 @ r13 @ r23
        rhs = r23 @ r13 @ r12
        assert np.linalg.norm(lhs - rhs) < 1e-12 * np.linalg.norm(lhs)

    def test_commutes_with_twist_tensor_square(self):
        g = rng(22)
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        for kappa in (1.0, 0.8 + 0.3j):
            kk = np.kron(twist_matrix(kappa), twist_matrix(kappa))
            r = r_matrix(lam, ETA)
            assert np.linalg.norm(r @ kk - kk @ r) < 1e-12 * np.linalg.norm(r)


class TestMonodromy:
    def test_n1_block_read_off(self):
        params = make_params(1)
        lam = 0.4 - 0.2j
        t = monodromy_entries(params, lam)
        u = lam - params.xi[0]
        assert np.allclose(t.a, np.diag([np.sinh(u + ETA), np.sinh(u)]))
        assert np.allclose(t.d, np.diag([np.sinh(u), np.sinh(u + ETA)]))
        assert np.allclose(t.b, np.sinh(ETA) * SIGMA_MINUS)
        assert np.allclose(t.c, np.sinh(ETA) * SIGMA_PLUS)

    def test_reference_state_actions(self, params3):
        g = rng(23)
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        t = monodromy_entries(params3, lam)
        v0 = reference_state(3)
        assert np.linalg.norm(t.c @ v0) < 1e-14
        assert np.linalg.norm(t.d @ v0 - params3.d_fn(lam) * v0) < 1e-12
        assert np.linalg.norm(t.a @ v0 - params3.a_fn(lam) * v0) < 1e-12

    def test_rtt_relation(self, params2):
        g = rng(24)
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        mu = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        dim = 4
        tb_l = monodromy_entries(params2, lam)
        tb_m = monodromy_entries(params2, mu)
        bl = [[tb_l.a, tb_l.b], [tb_l.c, tb_l.d]]
        bm = [[tb_m.a, tb_m.b], [tb_m.c, tb_m.d]]
        big_l = np.zeros((4 * dim, 4 * dim), dtype=complex)
        big_m = np.zeros((4 * dim, 4 * dim), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    big_l[(2 * i + k) * dim:(2 * i + k + 1) * dim,
                          (2 * j + k) * dim:(2 * j + k + 1) * dim] = bl[i][j]
                    big_m[(2 * k + i) * dim:(2 * k + i + 1) * dim,
                          (2 * k + j) * dim:(2 * k + j + 1) * dim] = bm[i][j]
        r00 = np.kron(r_matrix(lam - mu, params2.eta), np.eye(dim))
        lhs = r00 @ big_l @ big_m
        rhs = big_m @ big_l @ r00
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(lhs)

    def test_blocks_equal_kron_recursion(self):
        # reference: the site recursion with explicit np.kron products; the
        # block-array contraction must keep every bit, since reports print them
        g = rng(26)
        for n in range(1, 7):
            params = make_params(n)
            lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
            one, zero = np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex)
            blocks = [[one, zero], [zero, one]]
            for x in params.xi:
                r = r_matrix(lam - x, params.eta)
                rb = [[r[0:2, 0:2], r[0:2, 2:4]], [r[2:4, 0:2], r[2:4, 2:4]]]
                blocks = [[np.kron(blocks[0][k], rb[i][0]) + np.kron(blocks[1][k], rb[i][1])
                           for k in range(2)] for i in range(2)]
            t = monodromy_entries(params, lam)
            for got, want in zip((t.a, t.b, t.c, t.d),
                                 (blocks[0][0], blocks[0][1], blocks[1][0], blocks[1][1])):
                assert np.array_equal(got, want)

    def test_size_cap(self):
        params = make_params(9)
        with pytest.raises(DimensionError):
            monodromy_entries(params, 0.1)


class TestTransferMatrix:
    def test_commuting_family(self, params3):
        g = rng(25)
        m1 = transfer_k(params3, complex(g.uniform(-1, 1), g.uniform(-1, 1)))
        m2 = transfer_k(params3, complex(g.uniform(-1, 1), g.uniform(-1, 1)))
        assert np.linalg.norm(m1 @ m2 - m2 @ m1) < 1e-10 * np.linalg.norm(m1 @ m2)

    def test_quantum_determinant_identity(self, params2):
        g = rng(26)
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        t = monodromy_entries(params2, lam)
        ts = monodromy_entries(params2, lam - params2.eta)
        qdet = params2.a_fn(lam) * params2.d_fn(lam - params2.eta)
        for lhs in (t.a @ ts.d - t.b @ ts.c, t.d @ ts.a - t.c @ ts.b):
            assert np.linalg.norm(lhs - qdet * np.eye(4)) < 1e-10 * abs(qdet) * 2

    def test_n1_antidiagonal(self):
        params = make_params(1, kappa=0.7 + 0.4j)
        tk = transfer_k(params, 0.3 + 0.1j)
        se = np.sinh(ETA)
        expected = np.array([[0, params.kappa * se],
                             [se / params.kappa, 0]])
        assert np.allclose(tk, expected)

    def test_operator_interpolation(self, params3):
        g = rng(27)
        nodes = [transfer_k(params3, x) for x in params3.xi]
        for _ in range(3):
            lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
            direct = transfer_k(params3, lam)
            interp = np.zeros_like(direct)
            for j, x in enumerate(params3.xi):
                w = 1.0 + 0.0j
                for k, y in enumerate(params3.xi):
                    if k != j:
                        w *= cmath.sinh(lam - y) / cmath.sinh(x - y)
                interp += w * nodes[j]
            assert np.linalg.norm(interp - direct) < 1e-9 * np.linalg.norm(direct)


class TestSpectrumOracle:
    def test_closed_under_negation(self, params3, basis3):
        recs = spectrum_oracle(params3, basis3.at_xi)
        vals = np.sort_complex([r.tau.values[0] for r in recs])
        neg = np.sort_complex(-vals)
        assert np.max(np.abs(vals - neg)) < 1e-9 * np.max(np.abs(vals))

    def test_interpolation_matches_rayleigh(self, params3, basis3):
        recs = spectrum_oracle(params3, basis3.at_xi)
        assert max(r.interp_check for r in recs) < 1e-9

    def test_isospectral_across_twists(self, params3, basis3):
        v1 = np.sort_complex([r.tau.values[0]
                              for r in spectrum_oracle(params3, basis3.at_xi, 1.0)])
        v2 = np.sort_complex([r.tau.values[0]
                              for r in spectrum_oracle(params3, basis3.at_xi, 1.3 + 0.2j)])
        assert np.max(np.abs(v1 - v2)) < 1e-9 * np.max(np.abs(v1))

    def test_trace_matches_eigenvalue_sum(self, params3, basis3):
        # the spectrum is closed under negation, so both sides are ~0; compare
        # against the spectral radius
        recs = spectrum_oracle(params3, basis3.at_xi)
        tr = np.trace(transfer_k(params3, params3.xi[0]))
        total = sum(r.tau.values[0] for r in recs)
        radius = max(abs(r.tau.values[0]) for r in recs)
        assert abs(tr - total) < 1e-9 * radius

    def test_degeneracy_guard(self, params3, basis3):
        with pytest.raises(DegenerateSpectrumError):
            spectrum_oracle(params3, basis3.at_xi, gap_factor=1e6)


class TestInverseProblem:
    @pytest.fixture(scope="class")
    def nodes(self, params3, basis3):
        return NodeFactors(params3, basis3.at_xi)

    def test_site1_projector(self, nodes):
        out = dress_local_operator(nodes, 1, 1, 1)
        target = local_op(np.diag([1.0, 0.0]).astype(complex), 1, 3)
        assert np.linalg.norm(out - target) < 1e-8 * np.linalg.norm(target)

    def test_completeness(self, nodes):
        for site in (1, 2, 3):
            total = dress_local_operator(nodes, site, 1, 1) \
                + dress_local_operator(nodes, site, 2, 2)
            assert np.linalg.norm(total - np.eye(8)) < 1e-9 * np.sqrt(8)

    def test_both_variants_agree(self, nodes):
        for site in (1, 2, 3):
            for i in (1, 2):
                for j in (1, 2):
                    v1 = dress_local_operator(nodes, site, i, j, variant=1)
                    v2 = dress_local_operator(nodes, site, i, j, variant=2)
                    assert np.linalg.norm(v1 - v2) < 1e-8

    def test_pauli_reconstruction(self, nodes):
        for site in (1, 2, 3):
            e12 = dress_local_operator(nodes, site, 1, 2)
            e21 = dress_local_operator(nodes, site, 2, 1)
            e11 = dress_local_operator(nodes, site, 1, 1)
            e22 = dress_local_operator(nodes, site, 2, 2)
            assert np.linalg.norm(e12 - local_op(SIGMA_PLUS, site, 3)) < 1e-9 * 8
            assert np.linalg.norm(e21 - local_op(SIGMA_MINUS, site, 3)) < 1e-9 * 8
            assert np.linalg.norm((e11 - e22) - local_op(SIGMA_Z, site, 3)) < 1e-9 * 8


def test_elementary_matrix():
    assert np.allclose(elementary_matrix(1, 2), SIGMA_PLUS)
    assert np.allclose(elementary_matrix(2, 1), SIGMA_MINUS)


def test_local_op_site_bounds():
    with pytest.raises(DimensionError):
        local_op(SIGMA_Z, 4, 3)
