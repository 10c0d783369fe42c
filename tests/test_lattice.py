import cmath
import dataclasses
import re
from functools import reduce

import numpy as np
import pytest

from conftest import KAPPA2, make_params, move_one_eigenvalue, rng
from sovxxz import lattice
from sovxxz.cli import _rtt_residual
from sovxxz.errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    DimensionError,
    InversionError,
    ParityError,
    SovxxzError,
)
from sovxxz.lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    FlipBlocks,
    NodeFactors,
    dress_local_operator,
    elementary_matrix,
    local_op,
    monodromy_entries,
    r_matrix,
    reference_state,
    spectrum_oracle,
    transfer_eigenvalues,
    transfer_k,
    twist_matrix,
)
from sovxxz.linalg import eig_dense
from sovxxz.sov import SovBasis

ETA = 0.6 + 0.35j


def dense_rtt(tb_l, tb_m, r):
    """Both sides of R T_1(lam) T_2(mu) = T_2(mu) T_1(lam) R as dense matrices on
    (C2)_1 x (C2)_2 x H, basis index (2i + k) dim + q."""
    dim = len(tb_l.a)
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
    r00 = np.kron(r, np.eye(dim))
    return r00 @ big_l @ big_m, big_m @ big_l @ r00


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
        lhs, rhs = dense_rtt(monodromy_entries(params2, lam), monodromy_entries(params2, mu),
                             r_matrix(lam - mu, params2.eta))
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(lhs)

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_rtt_matches_dense_embedding(self, n):
        # the check on 2^N blocks sits at the noise floor on true blocks, and
        # off it reads what the dense 4 2^N embedding reads
        params = make_params(n)
        g = rng(25)
        lam = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        mu = complex(g.uniform(-1, 1), g.uniform(-1, 1))
        t_lam, t_mu = monodromy_entries(params, lam), monodromy_entries(params, mu)
        r = r_matrix(lam - mu, params.eta)
        assert _rtt_residual(t_lam, t_mu, r) < 1e-14
        bad = dataclasses.replace(t_mu, b=t_mu.b * (1 + 1e-3))
        lhs, rhs = dense_rtt(t_lam, bad, r)
        dense = np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1.0)
        assert dense > 1e-6
        assert abs(_rtt_residual(t_lam, bad, r) - dense) < 1e-12 * dense

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


def witnessed_reference(params, at_xi, kappa):
    """``transfer_eigenvalues`` of T_kappa(xi_1), witnessed by the oracle's
    eigenvectors at ``params.kappa``, as the spectrum command calls it."""
    taus, vectors = spectrum_oracle(params, at_xi)
    return transfer_eigenvalues(at_xi[0], kappa, vectors, taus[:, 0], params.kappa)


class TestSpectrumOracle:
    def test_closed_under_negation(self, params3, basis3):
        # the full eigensolve, which is not closed under negation by
        # construction, as the parity-block oracle is
        vals = witnessed_reference(params3, basis3.at_xi, params3.kappa)
        neg = np.sort_complex(-vals)
        assert np.max(np.abs(vals - neg)) < 1e-9 * np.max(np.abs(vals))

    def test_oracle_closed_by_construction(self, params3, basis3):
        taus, _ = spectrum_oracle(params3, basis3.at_xi)
        assert np.array_equal(np.sort_complex(taus[:, 0]), np.sort_complex(-taus[:, 0]))

    @pytest.mark.parametrize("kappa", [1.0, 0.8 - 0.3j])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_rows_pair_with_their_negation(self, n, kappa):
        # the pairing solve_spectrum relies on: row 2^N-1-i of taus is row
        # i negated, bit for bit, and row 2^N-1-i of the vectors is row i
        # with its odd-parity entries negated
        params = make_params(n, kappa=kappa)
        taus, vectors = spectrum_oracle(params, SovBasis(params).at_xi)
        assert taus[::-1].tobytes() == (-taus).tobytes()
        odd = np.bitwise_count(np.arange(2**n)) & 1 == 1
        assert np.array_equal(vectors[::-1], np.where(odd, -vectors, vectors))

    @pytest.mark.parametrize("kappa", [1.0, 0.8 - 0.3j])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_full_matrix_reference(self, n, kappa):
        # every tau(xi_j) against the Rayleigh quotients of the eigenvectors
        # of the full T_K(xi_1), row for row
        params = make_params(n, kappa=kappa)
        at_xi = SovBasis(params).at_xi
        mats = [t.transfer(kappa) for t in at_xi]
        _, vecs = np.linalg.eig(mats[0])
        ref = np.array([[v.conj() @ m @ v / (v.conj() @ v) for m in mats] for v in vecs.T])
        taus, _ = spectrum_oracle(params, at_xi)
        assert taus.shape == (2**n, n)
        radius = np.max(np.abs(ref[:, 0]))
        rows = [int(np.argmin(np.abs(taus[:, 0] - r))) for r in ref[:, 0]]
        assert sorted(rows) == list(range(2**n))
        assert np.max(np.abs(taus[rows] - ref)) < 1e-12 * radius

    @pytest.mark.parametrize("kappa", [1.0, 0.8 - 0.3j])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_vectors_are_eigenvectors_in_the_natural_basis(self, n, kappa):
        # row r of the vectors is the eigenvector of row r of taus, gated on
        # the full T_K(xi_1) as eig_dense gates a pair
        params = make_params(n, kappa=kappa)
        at_xi = SovBasis(params).at_xi
        m = at_xi[0].transfer(kappa)
        taus, vectors = spectrum_oracle(params, at_xi)
        assert vectors.shape == (2**n, 2**n) and not vectors.flags.writeable
        resid = np.linalg.norm(vectors @ m.T - taus[:, :1] * vectors, axis=1)
        assert np.all(resid < 1e-12 * np.linalg.norm(m) * np.linalg.norm(vectors, axis=1))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_blocks_match_the_full_monodromy(self, n):
        # the oracle, the kappa' reference and the kets and bras, built label
        # by label, read from the full monodromy_entries blocks equal, bit
        # for bit, those the basis builds from its B and C
        params = make_params(n, kappa=0.8 - 0.3j)
        basis = SovBasis(params)
        full = [monodromy_entries(params, x) for x in params.xi]
        assert all(type(t) is FlipBlocks for t in basis.at_xi)

        def same(got, want):
            return got.shape == want.shape and got.tobytes() == want.tobytes()

        for got, want in zip(spectrum_oracle(params, basis.at_xi), spectrum_oracle(params, full)):
            assert same(got, want)
        assert same(witnessed_reference(params, basis.at_xi, KAPPA2),
                    witnessed_reference(params, full, KAPPA2))
        kets, bras = np.empty_like(basis.kets), np.empty_like(basis.bras)
        kets[0], bras[0] = reference_state(n), reference_state(n) / basis.v_h[0]
        d_shift = params.d_fn(np.asarray(params.xi) - params.eta)
        for i in range(1, 2**n):
            a = n - i.bit_length()  # label i's first set bit is h_a
            parent = i - 2**(n - 1 - a)
            kets[i] = -(full[a].b @ kets[parent]) / params.a_xi[a]
            bras[i] = (full[a].c.T @ bras[parent]) / d_shift[a]
        assert same(basis.kets, kets) and same(basis.bras, bras)

    def test_refuses_a_same_parity_entry(self, params3, basis3):
        # state 0 (all up) and state 3 (two down) are both even
        at_xi = list(basis3.at_xi)
        b = at_xi[1].b.copy()
        b[0, 3] = 1e-3
        at_xi[1] = dataclasses.replace(at_xi[1], b=b)
        with pytest.raises(ParityError, match=r"^B\(xi_2\) has a nonzero entry between "
                                              r"states of equal S\^z parity$"):
            spectrum_oracle(params3, at_xi)
        assert issubclass(ParityError, SovxxzError)  # the CLI exits 2 on it

    def test_residual_gate(self, params3, basis3, monkeypatch):
        monkeypatch.setattr(lattice, "EIGENPAIR_TOL", 1e-30)
        with pytest.raises(ConvergenceError, match=r"residual .* exceeds 1\.0e-30"):
            spectrum_oracle(params3, basis3.at_xi)

    def test_interpolation_matches_rayleigh(self, params3, basis3):
        # the eigenvalues of T(mu) at a point off the nodes are the Rayleigh
        # quotients of the joint eigenvectors there: each interpolated tau(mu)
        # is one of them
        mu = 0.3 - 0.45j
        dense = np.linalg.eigvals(transfer_k(params3, mu))
        radius = np.max(np.abs(dense))
        taus, _ = spectrum_oracle(params3, basis3.at_xi)
        assert taus.shape == (8, 3) and not taus.flags.writeable
        for tau_mu in params3.node_basis.weights(mu) @ taus.T:
            assert np.min(np.abs(dense - tau_mu)) < 1e-9 * radius

    def test_isospectral_across_twists(self, params3, basis3):
        # the node blocks do not depend on the twist; the oracle reads it
        # from params
        v1, v2 = (np.sort_complex(spectrum_oracle(dataclasses.replace(params3, kappa=k),
                                                  basis3.at_xi)[0][:, 0])
                  for k in (1.0, 1.3 + 0.2j))
        assert np.max(np.abs(v1 - v2)) < 1e-9 * np.max(np.abs(v1))

    def test_trace_matches_eigenvalue_sum(self, params3, basis3):
        # the spectrum is closed under negation, so both sides are ~0; compare
        # against the spectral radius
        taus, _ = spectrum_oracle(params3, basis3.at_xi)
        tr = np.trace(transfer_k(params3, params3.xi[0]))
        total = sum(taus[:, 0])
        radius = max(abs(taus[:, 0]))
        assert abs(tr - total) < 1e-9 * radius

    def test_degeneracy_guard(self, params3, basis3, monkeypatch):
        # the oracle's witnesses are taken before the gap factor is raised,
        # so the reference's own guard trips
        taus, vectors = spectrum_oracle(params3, basis3.at_xi)
        monkeypatch.setattr(lattice, "GAP_FACTOR", 1e6)
        with pytest.raises(DegenerateSpectrumError, match=r"below 1\.0e\+06 \* radius"):
            spectrum_oracle(params3, basis3.at_xi)
        with pytest.raises(DegenerateSpectrumError, match=r"below 1\.0e\+06 \* radius"):
            transfer_eigenvalues(basis3.at_xi[0], params3.kappa, vectors, taus[:, 0],
                                 params3.kappa)


class TestTransferEigenvalues:
    @pytest.mark.parametrize("kappa", [1.0, 0.8 - 0.3j])
    @pytest.mark.parametrize("n", range(3, 8))
    def test_agrees_with_eig_dense(self, n, kappa):
        # the eigvals reference reads the spectrum of the full
        # eigendecomposition, in the same order
        params = make_params(n, kappa=kappa)
        at_xi = SovBasis(params).at_xi
        vals = witnessed_reference(params, at_xi, KAPPA2)
        dense, _ = eig_dense(at_xi[0].transfer(KAPPA2))
        assert np.max(np.abs(vals - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [3, 6])
    def test_witness_gate_refuses_a_moved_eigenvalue(self, n, monkeypatch):
        # the unmoved values pass; one value moved by 1e-6 of the spectral
        # radius is refused by the index it takes in the sorted spectrum
        params = make_params(n)
        at_xi = SovBasis(params).at_xi
        witnessed_reference(params, at_xi, KAPPA2)
        moved = move_one_eigenvalue(monkeypatch, 2**n)
        with pytest.raises(ConvergenceError) as refused:
            witnessed_reference(params, at_xi, KAPPA2)
        assert len(moved) == 1
        assert re.fullmatch(rf"eigenpair {moved[0]} residual \S+ exceeds 1\.0e-09 "
                            r"\* \|\|M\|\| \* \|\|v\|\|", str(refused.value))

    def test_a_witness_at_another_twist_is_mapped(self, params3, basis3):
        # the oracle's eigenvectors at kappa witness the spectrum at a twist
        # 20 times and 1/20 of it only through the twist similarity D; taken
        # as they are, they fail the gate
        taus, vectors = spectrum_oracle(params3, basis3.at_xi)
        for ratio in (20.0, 0.05):
            kappa = ratio * params3.kappa
            transfer_eigenvalues(basis3.at_xi[0], kappa, vectors, taus[:, 0], params3.kappa)
            with pytest.raises(ConvergenceError, match=r"^eigenpair \d+ residual"):
                transfer_eigenvalues(basis3.at_xi[0], kappa, vectors, taus[:, 0], kappa)


class TestInverseProblem:
    @pytest.fixture(scope="class")
    def nodes(self, params3):
        return NodeFactors(params3, [monodromy_entries(params3, x) for x in params3.xi])

    # each test reads both variants, (variant 1, variant 2), of each operator

    def test_site1_projector(self, nodes):
        target = local_op(np.diag([1.0, 0.0]).astype(complex), 1, 3)
        for out in dress_local_operator(nodes, 1, 1, 1):
            assert np.linalg.norm(out - target) < 1e-8 * np.linalg.norm(target)

    def test_completeness(self, nodes):
        for site in (1, 2, 3):
            for e11, e22 in zip(dress_local_operator(nodes, site, 1, 1),
                                dress_local_operator(nodes, site, 2, 2)):
                assert np.linalg.norm(e11 + e22 - np.eye(8)) < 1e-9 * np.sqrt(8)

    def test_both_variants_agree(self, nodes):
        for site in (1, 2, 3):
            for i in (1, 2):
                for j in (1, 2):
                    v1, v2 = dress_local_operator(nodes, site, i, j)
                    assert np.linalg.norm(v1 - v2) < 1e-8

    def test_pauli_reconstruction(self, nodes):
        for site in (1, 2, 3):
            for e12, e21, e11, e22 in zip(*(dress_local_operator(nodes, site, i, j)
                                            for i, j in ((1, 2), (2, 1), (1, 1), (2, 2)))):
                assert np.linalg.norm(e12 - local_op(SIGMA_PLUS, site, 3)) < 1e-9 * 8
                assert np.linalg.norm(e21 - local_op(SIGMA_MINUS, site, 3)) < 1e-9 * 8
                assert np.linalg.norm((e11 - e22) - local_op(SIGMA_Z, site, 3)) < 1e-9 * 8


    def test_fusion_bound_caps_the_condition_number(self, params3, nodes):
        # each factor's inverse is T_K(xi_m - eta) / (-q_m) to rounding, and
        # ||T_K(xi_m)|| ||T_K(xi_m - eta)|| / |q_m| bounds its condition
        # number from above, so the guard refuses every factor an SVD would
        for t, s, q in zip(nodes.at_xi, nodes.shift, nodes.qdet):
            f, f_shift = t.transfer(params3.kappa), s.transfer(params3.kappa)
            assert np.linalg.norm(f @ f_shift + q * np.eye(8)) < 1e-13 * abs(q)
            svals = np.linalg.svd(f, compute_uv=False)
            assert svals[0] / svals[-1] <= np.linalg.norm(f) * np.linalg.norm(f_shift) / abs(q)
        for p, p_inv in zip(nodes.prefix, nodes.prefix_inv):
            assert np.linalg.norm(p_inv @ p - np.eye(8)) < 1e-12

    @pytest.mark.parametrize("node", [1, 2, 3])
    def test_a_quantum_determinant_under_the_bound_is_refused_by_node(
            self, monkeypatch, params3, node):
        # q at one node scaled by 1e-12 falls under 1e-12 ||T|| ||T(. - eta)||
        # (the chain's own ratio is above 1e-3) and that node is named
        at_xi = [monodromy_entries(params3, x) for x in params3.xi]
        d_fn = type(params3).d_fn

        def small_at_node(self, lam):
            values = d_fn(self, lam)
            return values * np.where(np.arange(len(values)) == node - 1, 1e-12, 1.0)
        monkeypatch.setattr(type(params3), "d_fn", small_at_node)
        with pytest.raises(InversionError, match=rf"^transfer-matrix factor T_K\(xi_{node}\) "
                                                 "is numerically singular"):
            NodeFactors(params3, at_xi)


@pytest.mark.parametrize("kappa", [1.0 + 0.0j, 0.8 - 0.3j])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_dressing_matches_one_solve_per_operator(n, kappa):
    # (left . core) . right^{-1} with the held inverse agrees with solving
    # right^T against (left . core)^T for each operator alone, to rounding
    params = make_params(n, kappa=kappa)
    at_xi = [monodromy_entries(params, x) for x in params.xi]
    nodes = NodeFactors(params, at_xi)
    prefix = [np.eye(2**n, dtype=complex)]
    for t in at_xi:
        prefix.append(prefix[-1] @ (t.b / kappa + kappa * t.c))

    def k_t(t):  # K T = [[kappa C, kappa D], [A / kappa, B / kappa]]
        return [[kappa * t.c, kappa * t.d], [t.a / kappa, t.b / kappa]]

    for site in range(1, n + 1):
        x = params.xi[site - 1]
        shift = k_t(monodromy_entries(params, x - params.eta))
        qdet = params.a_fn(x) * params.d_fn(x - params.eta)
        for i in (1, 2):
            for j in (1, 2):
                for got, (left, core, right) in zip(dress_local_operator(nodes, site, i, j), (
                        (prefix[site - 1], k_t(at_xi[site - 1])[j - 1][i - 1], prefix[site]),
                        (prefix[site], -(-1) ** (i + j) * shift[2 - i][2 - j] / qdet,
                         prefix[site - 1]))):
                    want = np.linalg.solve(right.T, (left @ core).T).T
                    assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)


def test_elementary_matrix():
    assert np.allclose(elementary_matrix(1, 2), SIGMA_PLUS)
    assert np.allclose(elementary_matrix(2, 1), SIGMA_MINUS)


def test_local_op_is_the_kron_product():
    # I_{2^(s-1)} x op x I_{2^(N-s)} keeps every bit of the N-fold product, the
    # signs of its zeros included
    ops = [SIGMA_Z, SIGMA_PLUS, SIGMA_MINUS] + [elementary_matrix(i, j)
                                                for i in (1, 2) for j in (1, 2)]
    id2 = np.eye(2, dtype=complex)
    for n in range(1, 9):
        for site in range(1, n + 1):
            for op in ops:
                want = reduce(np.kron, [op if m == site else id2 for m in range(1, n + 1)],
                              np.eye(1, dtype=complex))
                got = local_op(op, site, n)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_local_op_site_bounds():
    with pytest.raises(DimensionError):
        local_op(SIGMA_Z, 4, 3)
