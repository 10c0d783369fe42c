"""Determinant representations of scalar products and form factors.

Implements the dressed-Vandermonde form, the weighted Izergin form, the
Slavnov-like form with rows/columns labelled by the roots of the two
Q-functions (plus its one-parameter deformation), the representations written
directly in terms of transfer-matrix eigenvalues, the equal-function
specializations, the sigma^z and spin-flip form factors in both root- and
eigenvalue-labelled forms, generic-argument B/D matrix elements, and the
numerical test bench for the underlying determinant identities.

Every matrix is formed at once from broadcast arrays of root and point
differences (rows first, columns second).  Matrix entries that develop 0/0
patterns when the two root sets are paired (equal or shifted by i*pi) are
evaluated through algebraically equivalent product forms, or as their
analytic limits, so every representation stays finite on all eigen pairs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, SingularEvaluationError
from .linalg import det_lu
from .model import (
    IPI,
    HalfPeriodTrigPoly,
    ModelParams,
    QTable,
    VandermondeRows,
    a_frak,
    a_frak_values,
    coth,
    dist_mod_2ipi,
    dist_mod_ipi,
    f_tilde_values,
    node_denominators,
    products_except,
    sinh_prod,
    vandermonde,
    vandermonde_rows,
)
from .sov import SovBasis
from .spectrum import tau_hat, tau_hat_deriv

_COLLISION_TOL = 1e-9


# ---------------------------------------------------------------------------
# generic determinant functionals


def _det_expanded(mat: np.ndarray, rows: list[int]) -> complex:
    """Determinant with Laplace expansion forced along the listed rows.

    Rows whose entries span a huge dynamic range destroy the accuracy of a
    plain LU determinant; expanding along them keeps every minor well scaled.
    """
    if not rows:
        return det_lu(mat)
    r = rows[0]
    total = 0.0 + 0.0j
    for j in range(mat.shape[1]):
        if mat[r, j] == 0:
            continue
        minor = np.delete(np.delete(mat, r, axis=0), j, axis=1)
        rest = [k - 1 if k > r else k for k in rows[1:]]
        total += (-1.0) ** (r + j) * mat[r, j] * _det_expanded(minor, rest)
    return total


def a_functional(xs, f_vals, eta: complex) -> complex:
    """Dressed-Vandermonde functional: det over the exponential column basis of
    [e^{(2j-M-1)x_i} (1 - f(x_i) e^{-(2j-M-1)eta}) / 2^{j-1}] divided by V(x).

    Nodes far from the bulk (used by the determinant-extension checks) are
    handled by expanding the determinant along their rows.
    """
    return _dressed_vandermonde(vandermonde_rows(xs, eta), f_vals)


def _dressed_vandermonde(rows: VandermondeRows, f_vals) -> complex:
    """``a_functional`` from the ``VandermondeRows`` of its points."""
    f = np.asarray(f_vals, dtype=np.complex128)[:, None]
    mat = (rows.at_x - f * rows.at_x_eta) / 2.0 ** np.arange(len(rows.at_x))
    return _det_expanded(mat, rows.wide) / rows.v


def izergin_ratio(xs, zs, f_vals, eta: complex) -> complex:
    """det[1/sinh(x_i - z_k) - f(x_i)/sinh(x_i - z_k - eta)] over the plain
    Cauchy determinant det[1/sinh(x_i - z_k)]."""
    num_det, den_det = det_lu(_izergin_matrices(_izergin_kernels(xs, zs, eta), f_vals))
    return num_det / den_det


def _izergin_kernels(xs, zs, eta: complex) -> tuple[np.ndarray, np.ndarray]:
    """1/sinh(x_i - z_k) and 1/sinh(x_i - z_k - eta), refused where a sinh
    vanishes."""
    diff = np.subtract.outer(np.asarray(xs, dtype=np.complex128), zs)
    s0, s1 = np.sinh(diff), np.sinh(diff - eta)
    near = (abs(s0) < 1e-13) | (abs(s1) < 1e-13)
    if near.any():
        i, k = np.argwhere(near)[0]
        raise SingularEvaluationError(f"Izergin node collision at x_{i+1}, z_{k+1}")
    return 1 / s0, 1 / s1


def _izergin_matrices(kernels, f_vals) -> list[np.ndarray]:
    """The two matrices of ``izergin_ratio`` from its ``_izergin_kernels``
    and f: [1/sinh(x_i - z_k) - f(x_i)/sinh(x_i - z_k - eta)] and the
    Cauchy matrix."""
    cauchy, shifted = kernels
    return [cauchy - np.asarray(f_vals, dtype=np.complex128)[:, None] * shifted, cauchy]


def e_weight(zs, eta: complex, u: complex) -> complex:
    """prod_l sinh(u - z_l - eta) / sinh(u - z_l)."""
    w = u - np.asarray(zs, dtype=np.complex128)
    return complex(np.prod(np.sinh(w - eta) / np.sinh(w)))


# ---------------------------------------------------------------------------
# scalar products


def sp_direct(pair: PairContext, alpha: complex) -> complex:
    """Scalar product as the ratio of dressed generalized Vandermonde dets."""
    params, p, q = pair.params, pair.p, pair.q
    den = np.multiply(p.x_eta, q.x_eta)
    vanishing = np.abs(den) < 1e-13
    if vanishing.any():
        raise SingularEvaluationError(
            f"(PQ)(xi - eta) vanishes at xi = {params.xi[np.argmax(vanishing)]}")
    return _dressed_vandermonde(params.node_rows, -alpha * np.multiply(p.x, q.x) / den)


def sp_sov_sum(basis: SovBasis, pair: PairContext, alpha: complex) -> complex:
    """Literal 2^N sum over the SoV labels of ``basis`` (the definition of the
    product)."""
    p, q = pair.p, pair.q
    ratio = alpha * np.multiply(p.x, q.x) / np.multiply(p.x_eta, q.x_eta)
    terms = np.where(basis.labels, 1.0, ratio).prod(axis=1)
    # V(xi_m - (1 - h_m) eta) is v_h of the complement label 1 - h
    return complex(np.sum(terms * basis.v_h[::-1]) / basis.v_h[0])


def _require_roots_off_nodes(params: ModelParams, roots):
    """Refuse roots that collide with an inhomogeneity shift set
    {xi_k, xi_k - eta} modulo i*pi."""
    near = dist_mod_ipi(np.asarray(roots, dtype=np.complex128)[:, None],
                        params.forbidden_points()) < 1e-8
    if near.any():
        root = roots[np.argmax(near.any(axis=1))]
        raise SingularEvaluationError(f"root {root} collides with an inhomogeneity shift set")


def sp_izergin(pair: PairContext, alpha: complex) -> complex:
    """Scalar product as a weighted Izergin determinant with columns labelled
    by the roots of P."""
    params, p, q = pair.params, pair.p, pair.q
    _require_roots_off_nodes(params, p.roots)
    f_vals = -alpha * f_tilde_values(p.x_eta_ipi, q.x, p.x_ipi, q.x_eta)
    num_det, den_det = det_lu(_izergin_matrices(pair.izergin_kernels, f_vals))
    return num_det / den_det


def cond_pq_residual(pair: PairContext) -> float:
    """Relative defect of the i*pi compatibility condition on (PQ) at the nodes."""
    p, q = pair.p, pair.q
    rows = np.array([p.x_eta, p.x_eta_ipi, q.x_eta, q.x_eta_ipi, p.x, p.x_ipi, q.x, q.x_ipi])
    r1, r2 = rows[:2] * rows[2:4] / (rows[4:6] * rows[6:])
    return float((abs(r1 - r2) / np.maximum(abs(r1) + abs(r2), 1e-30)).max())


def _p_ipi_over_sinh(sinh_half: np.ndarray, cosh_half: np.ndarray) -> np.ndarray:
    """P(q_j + i*pi) / sinh(p_k - q_j) at (j, k), in product form, from the
    sinh and cosh of the half differences (p_k - q_j)/2 at (j, k).

    sinh((q_j + i*pi - p_l)/2) = i cosh((p_l - q_j)/2), so the ratio equals
    i^N prod_{l != k} cosh((p_l - q_j)/2) / (2 sinh((p_k - q_j)/2)), which
    stays finite when p_k approaches q_j + i*pi (the factor of P that
    vanishes is cancelled against the sinh in the denominator).
    """
    return 1j ** cosh_half.shape[-1] / 2 * products_except(cosh_half) / sinh_half


def _s_gamma(u, gamma: complex):
    """sinh((u + gamma)/2) / (sinh(u/2) sinh(gamma/2)), elementwise in u."""
    sg = np.sinh(gamma / 2)
    su = np.sinh(u / 2)
    if abs(sg) < 1e-13 or np.any(np.abs(su) < 1e-13):
        raise SingularEvaluationError("s_gamma evaluated at a pole")
    return np.sinh((u + gamma) / 2) / (su * sg)


@dataclass(frozen=True)
class SlavnovHalves:
    """The alpha-free halves of ``slavnov_matrix`` for one (P, Q) pair and
    gamma: the matrix at alpha is ``base + alpha * rest``.  ``base`` is the
    coth (or s_gamma) Cauchy matrix; ``rest`` holds the Bethe-ratio kernel
    plus the cross term, or their same-roots limit."""

    base: np.ndarray
    rest: np.ndarray


def slavnov_halves(pair: PairContext, gamma: complex | None = None) -> SlavnovHalves:
    """Everything in the root-labelled matrix that does not depend on alpha.

    Rows follow Q-roots, columns P-roots.  Entries combine coth (or s_gamma)
    kernels with the Bethe ratio of Q and a cross term written in a
    collision-safe product form.  When P and Q carry identical root sets the
    diagonal entries take their analytic limits, which need the logarithmic
    derivatives of Q and a.
    """
    params, p, q, pr, qr = pair.params, pair.p, pair.q, pair.pr, pair.qr
    n, eta = params.n, params.eta
    if len(pr) != n or len(qr) != n:
        raise ParameterError("polynomials must carry N roots each")
    u = pr[None, :] - qr[:, None]  # p_k - q_j at (j, k)
    limit = dist_mod_2ipi(u) < _COLLISION_TOL
    if limit.any() and not np.all(np.abs(pr - qr) < _COLLISION_TOL):
        j, k = np.argwhere(limit)[0]
        raise SingularEvaluationError(
            f"coincident roots p_{k+1} = q_{j+1} for distinct functions")
    half = (u - [[[eta]], [[0.0]]]) / 2
    sinh_half, cosh_half = np.sinh(half), np.cosh(half)
    sinh_u = sinh_half[1]
    sinh_u[limit] = 1.0  # sinh(u/2) vanishes at the limit entries, filled in below
    if gamma is None:
        if (sinh_half[0] == 0).any():
            raise SingularEvaluationError("coth evaluated at a pole")
        base, kern = cosh_half[0] / sinh_half[0], cosh_half[1] / sinh_u
    else:
        base, kern = _s_gamma(u - eta, gamma), _s_gamma(np.where(limit, 1.0, u), gamma)
    q_p_eta, q_p_eta_plus = pair.q_at_p
    afrak_p = a_frak_values(p.a_r, p.d_r, q_p_eta, q_p_eta_plus)
    ratio = np.multiply.outer(q.r_eta_plus, p.d_r) \
        / (np.multiply.outer(q.a_r, q_p_eta) * p.r_ipi)
    rest = afrak_p * kern - 2 * ratio * _p_ipi_over_sinh(sinh_u, cosh_half[1])
    if limit.any():
        j, k = np.nonzero(limit)
        qj = qr[j]
        log_sum = q.poly.log_deriv(qj + eta) + q.poly.log_deriv(qj + IPI) \
            - params.a_log_deriv(qj)
        afrak_q = a_frak_values(*(np.take(v, j) for v in (q.a_r, q.d_r, q.r_eta, q.r_eta_plus)))
        rest[j, k] = 2 * afrak_q * log_sum + (0 if gamma is None else afrak_q * coth(gamma / 2))
    return SlavnovHalves(base, rest)


def slavnov_matrix(halves: SlavnovHalves, alpha: complex) -> np.ndarray:
    """Root-labelled scalar-product matrix at ``alpha``, from its alpha-free
    halves (rows follow Q-roots, columns P-roots)."""
    return halves.base + alpha * halves.rest


def coth_cauchy_closed_form(params: ModelParams, p_poly: HalfPeriodTrigPoly,
                            q_poly: HalfPeriodTrigPoly) -> complex:
    """Closed form of det[coth((p_k - q_j - eta)/2)]: a hyperbolic Cauchy
    determinant with a cosh of the root-sum mismatch."""
    pr = np.asarray(p_poly.roots, dtype=np.complex128)
    qr = np.asarray(q_poly.roots, dtype=np.complex128)
    n = params.n
    # prod_{i<j} sinh((p_i - p_j)/2) sinh((q_j - q_i)/2)
    num = np.cosh((sum(p_poly.roots) - sum(q_poly.roots) - n * params.eta) / 2) \
        * vandermonde(pr[::-1] / 2) * vandermonde(qr / 2)
    den = sinh_prod(np.ravel((pr[:, None] - qr[None, :] - params.eta) / 2))
    return complex(num / den)


class PairContext:
    """The site-independent pieces of one (P, Q) pair's determinant formulas.

    Built from the two polynomials' ``model.q_table``s, which hold every value
    that depends on one of them alone.  A form factor is the pair's
    scalar-product determinant plus a rank-one term that depends on the site;
    what needs both polynomials but no alpha (the Slavnov and
    eigenvalue-labelled halves, the Cauchy determinant, the tau prefactor,
    Q at the P-roots and the sinh rows the rank-one terms are formed from) is
    built here on first use and kept, as arrays over every root, point and
    site at once.  Building lazily keeps each error in the call that raised
    it before.

    The eigenvalue-labelled forms need both tables to carry an eigenvalue;
    ``z`` (default: the Q-roots) labels the rows of those forms: N points,
    pairwise more than 1e-10 apart modulo i*pi, checked here.
    """

    def __init__(self, params: ModelParams, p: QTable, q: QTable, z=None):
        self.params = params
        self.p, self.q = p, q
        self.z = list(q.roots) if z is None else [complex(v) for v in z]
        if len(self.z) != params.n:
            raise ParameterError("z must provide N points")
        z = np.asarray(self.z, dtype=np.complex128)
        # each point lies at distance 0 from itself; one entry more is a close pair
        if np.count_nonzero(dist_mod_ipi(z[:, None], z) <= 1e-10) > params.n:
            raise ParameterError("z points must be pairwise more than 1e-10 apart modulo i*pi")
        self.pr = np.asarray(p.roots, dtype=np.complex128)
        self.qr = np.asarray(q.roots, dtype=np.complex128)
        # P's roots equal Q's bit for bit: Q's table holds Q at the P-roots
        self.diagonal = self.pr.tobytes() == self.qr.tobytes()

    def eigen_tables(self) -> tuple[QTable, QTable]:
        """(P's, Q's) table, checked to carry an eigenvalue each."""
        if self.p.tau is None or self.q.tau is None:
            raise ParameterError("eigenvalue-labelled forms need both eigen records")
        return self.p, self.q

    @cached_property
    def halves(self) -> SlavnovHalves:
        return slavnov_halves(self)

    @cached_property
    def cauchy_det(self) -> complex:
        """det of the coth Cauchy matrix, the base of the halves."""
        return det_lu(self.halves.base)

    @cached_property
    def q_at_p(self) -> np.ndarray:
        """Q(p_k - eta) and Q(p_k + eta) in rows 0 and 1 (from Q's own table
        when P = Q): the Slavnov halves, and row 0 the rank-one columns."""
        if self.diagonal:
            return np.array([self.q.r_eta, self.q.r_eta_plus])
        eta = self.params.eta
        return self.q.poly(np.stack([self.pr - eta, self.pr + eta]))

    @cached_property
    def izergin_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``_izergin_kernels`` of the nodes against the P-roots, shared by
        the two Izergin forms (``sp_izergin`` and ``sp_tau``)."""
        return _izergin_kernels(self.params.xi, self.pr, self.params.eta)

    @cached_property
    def node_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """coth(x) and coth(x + i*pi/2) = tanh(x) at x = (xi_s - q_j - eta)/2,
        row s, column j: the rows of the roots-form rank-one terms."""
        half = (np.subtract.outer(self.params.xi, self.qr) - self.params.eta) / 2
        s, c = np.sinh(half), np.cosh(half)
        if (s * c == 0).any():
            raise SingularEvaluationError("coth evaluated at a pole")
        return c / s, s / c

    @cached_property
    def z_xi_sinh(self) -> np.ndarray:
        """sinh(z_i - xi_s), row i, column s."""
        return np.sinh(np.subtract.outer(self.z, self.params.xi))

    @cached_property
    def tau_dq(self) -> np.ndarray:
        """The alpha-free halves of tau_matrix, stacked:
        [tau_hat_Q(z_i) - tau_hat_Q(p_k)] and [tau_hat_P(z_i) - tau_hat_P(p_k + eta)],
        each over sinh(z_i - w_k), with their removable limits.

        tau_hat is i*pi-periodic, so z - w near any i*m*pi is a removable point
        with limit (-1)^m tau_hat'(w).  Both eigenvalues' tau_hat are
        evaluated at the z_i, p_k and p_k + eta in one batch."""
        p, q = self.eigen_tables()
        params, n = self.params, self.params.n
        z = np.asarray(self.z, dtype=np.complex128)
        w = self.pr + [[0.0], [params.eta]]
        # d at z from the z - xi rows; d(p_k) and d(p_k + eta) = a(p_k) from P's table
        hat = tau_hat([q.tau, p.tau], np.concatenate([z, *w]),
                      np.concatenate([self.z_xi_sinh.prod(axis=1), p.d_r, p.a_r]))
        # tau_hat_Q and tau_hat_P at z, and tau_hat_Q(p_k), tau_hat_P(p_k + eta)
        at_z, at_w = hat[:, :n], np.array([hat[0, n:2 * n], hat[1, 2 * n:]])
        u = np.subtract.outer(z, w).transpose(1, 0, 2)
        m = np.rint(u.imag / np.pi)
        limit = abs(u - 1j * np.pi * m) < _COLLISION_TOL
        u[limit] = 1.0  # the removable points, filled in below
        dq = (at_z[:, :, None] - at_w[:, None, :]) / np.sinh(u)
        if limit.any():
            h, i, k = np.nonzero(limit)
            # row h of the batch is tau_hat_Q' (h = 0) or tau_hat_P' (h = 1) at each limit's w
            deriv = tau_hat_deriv(params, [q.tau, p.tau], w[h, k])[h, np.arange(len(h))]
            dq[h, i, k] = (-1.0) ** m[h, i, k] * deriv
        return dq

    @cached_property
    def tau_prefactor(self) -> complex:
        """prod sinh(z_i - xi_j) sinh(xi_j - p_i) over
        (e^{sum xi} prod tau_Q(xi_j) prod_{i<j} sinh(z_j - z_i) sinh(p_i - p_j))."""
        tq = _nonvanishing_tau_q(self)
        num = self.z_xi_sinh.prod() * np.prod(self.p.sinh_x)
        den = cmath.exp(sum(self.params.xi)) * tq.prod() \
            * vandermonde(np.stack([self.z, self.pr[::-1]])).prod()
        return complex(num / den)

    @cached_property
    def tau_node_products(self) -> np.ndarray:
        """prod_{k <= s} tau_P(xi_k) and prod_{k <= s} tau_Q(xi_k) for
        s = 0..N (the empty product first), in rows 0 and 1."""
        p, q = self.eigen_tables()
        values = np.array([p.tau.values, q.tau.values])
        return np.concatenate([np.ones((2, 1)), values], axis=1).cumprod(axis=1)


def _nonvanishing_tau_q(pair: PairContext, upto: int | None = None) -> np.ndarray:
    """tau_Q(xi_k) at every node, refused where it vanishes among the first
    ``upto`` nodes (default: all)."""
    tq = pair.eigen_tables()[1].tau.values
    vanishing = np.abs(tq[:upto]) < 1e-12
    if vanishing.any():
        raise SingularEvaluationError(f"tau_Q vanishes at xi_{np.argmax(vanishing) + 1}")
    return tq


def sp_slavnov(pair: PairContext, alpha: complex, gamma: complex | None = None,
               cond_tol: float = 1e-7) -> complex:
    """Scalar product as the root-labelled determinant ratio.

    Only valid when the i*pi compatibility condition on (PQ) holds at the
    inhomogeneities; the residual is checked up front.
    """
    res = cond_pq_residual(pair)
    if not res <= cond_tol:
        raise ParameterError(
            f"compatibility condition violated (residual {res:.3e}); "
            "the root-labelled representation does not apply"
        )
    if gamma is None:
        halves, den = pair.halves, pair.cauchy_det
    else:
        halves = slavnov_halves(pair, gamma)
        den = det_lu(halves.base)
    return det_lu(slavnov_matrix(halves, alpha)) / den


def product_matrix(params: ModelParams, p_poly: HalfPeriodTrigPoly,
                   q_poly: HalfPeriodTrigPoly, alpha: complex, beta: complex):
    """Two-parameter product matrix and its Bethe-sensitive last-line part.

    Returns (matrix, last_line, entry_scale); the last line carries the factor
    (1 - alpha beta e^{-eta} a_frak_Q(q_j)) that vanishes entrywise on Bethe
    roots when alpha beta e^{-eta} = 1.
    """
    pr = np.asarray(p_poly.roots, dtype=np.complex128)
    qr = np.asarray(q_poly.roots, dtype=np.complex128)
    eta = params.eta
    em = cmath.exp(-eta / 2)
    u = pr[None, :] - qr[:, None]
    s_half = np.sinh(u / 2)
    if np.any(np.abs(s_half) < 1e-13):
        raise SingularEvaluationError("product representation needs pairwise distinct roots")
    afrak_p, afrak_q = a_frak(params, q_poly, pr), a_frak(params, q_poly, qr)
    d_p, d_q = params.d_fn(pr), params.d_fn(qr)
    line1 = alpha * em / np.sinh((u - eta) / 2) - 1 / s_half
    line2 = beta * em * afrak_p * (alpha * em / s_half - 1 / np.sinh((u + eta) / 2))
    cross = (d_p / d_q[:, None]) \
        * (q_poly(qr - eta)[:, None] / (q_poly(pr - eta) * p_poly(pr + IPI))) \
        * (1 - alpha * beta * cmath.exp(-eta) * afrak_q)[:, None] \
        * np.exp(u / 2) * 2 * _p_ipi_over_sinh(s_half, np.cosh(u / 2))
    return line1 + line2 + cross, cross, float(np.max(np.abs(line1) + np.abs(line2)))


def sp_product_check(pair: PairContext, alpha: complex, beta: complex):
    """Both sides of the two-parameter product identity and their deviation.

    The constant in front of the determinant ratio was calibrated numerically
    against the product of the two one-parameter representations (exact to
    1e-12 at N = 1, 2, 3); it carries no 2^{-N(N-1)} factor.
    """
    params, p_poly, q_poly = pair.params, pair.p.poly, pair.q.poly
    lhs = sp_slavnov(pair, alpha) * sp_slavnov(pair, beta)
    mat, _, _ = product_matrix(params, p_poly, q_poly, alpha, beta)
    den = 1 / np.sinh((pair.pr[None, :] - pair.qr[:, None] - params.eta) / 2)
    pref = (-1.0) ** params.n * cmath.exp(sum(params.xi) - sum(p_poly.roots)) \
        * np.prod(np.divide(pair.q.x, pair.q.x_eta))
    mat_det, den_det = det_lu([mat, den])
    rhs = pref * mat_det / den_det
    dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, dev


def tau_matrix(dq, dp, alpha: complex) -> np.ndarray:
    """Eigenvalue-labelled matrix dq - alpha * dp, from the two halves in
    ``PairContext.tau_dq`` (rows at the z-points, columns at P-roots)."""
    return dq - alpha * dp


def sp_tau(pair: PairContext, kappa: complex, kappa2: complex):
    """Scalar product written through the eigenvalue functions.

    Returns (izergin_form, slavnov_form); the rows of the second form sit at
    the context's ``z``, which may be any N points pairwise apart modulo
    i*pi and away from the tau_hat poles.
    """
    p, _ = pair.eigen_tables()
    ratio = kappa2 / kappa
    # det[tau_Q(xi_i)/sinh(xi_i - p_k) - ratio tau_P(xi_i)/sinh(xi_i - p_k - eta)]
    # over det[tau_Q(xi_i)/sinh(xi_i - p_k)]: the row factors tau_Q(xi_i) cancel
    num_det, den_det, mat_det = det_lu(
        _izergin_matrices(pair.izergin_kernels, ratio * p.tau.values / _nonvanishing_tau_q(pair))
        + [tau_matrix(*pair.tau_dq, ratio)])
    return num_det / den_det, pair.tau_prefactor * mat_det


def sp_same_q(params: ModelParams, q_poly: HalfPeriodTrigPoly, alpha: complex):
    """Equal-function scalar product: (twisted-Izergin form, compact N x N form)."""
    _require_roots_off_nodes(params, q_poly.roots)
    qr = np.asarray(q_poly.roots, dtype=np.complex128)
    izergin_form = izergin_ratio(params.xi, qr, [alpha] * params.n, params.eta)
    s_eta = np.sinh(qr[:, None] - qr[None, :] + params.eta)  # at (k, l): q_k - q_l + eta
    prod = s_eta.prod(axis=1) / node_denominators(qr)
    ratio = params.d_fn(qr) / params.a_fn(qr)
    # entry (j, k) subtracts ratio_k prod_k alpha / sinh(q_k - q_j + eta)
    compact_form = det_lu(np.eye(params.n) - ratio * prod * alpha / s_eta.T)
    return izergin_form, compact_form


# ---------------------------------------------------------------------------
# form factors


def _tau_prod_ratios(pair: PairContext, sites, shift: int) -> list[complex]:
    """prod_{k <= s - shift} tau_P(xi_k) / prod_{k <= s} tau_Q(xi_k) for each
    site s (1-based) in ``sites``, from the values at the nodes."""
    for site in sites:
        if not 1 <= site <= pair.params.n:
            raise ParameterError(f"site {site} outside 1..{pair.params.n}")
    _nonvanishing_tau_q(pair, max(sites, default=0))
    tp_prod, tq_prod = pair.tau_node_products
    return [tp_prod[site - shift] / tq_prod[site] for site in sites]


def _rank1_sigma_z(pair: PairContext) -> np.ndarray:
    """The roots-form sigma^z rank-one terms of every site s, stacked: row
    r0 coth((xi_s - q_j - eta)/2) + r1 coth((xi_s + i*pi - q_j - eta)/2) with
    r0, r1 = Q/P at xi_s - eta and its i*pi shift; column P(p_k - eta)/Q(p_k - eta)."""
    p, q = pair.p, pair.q
    coth_x, tanh_x = pair.node_kernels
    row = np.divide(q.x_eta, p.x_eta)[:, None] * coth_x \
        + np.divide(q.x_eta_ipi, p.x_eta_ipi)[:, None] * tanh_x
    return row[:, :, None] * (np.asarray(p.r_eta) / pair.q_at_p[0])


def _rank1_sigma_minus(pair: PairContext) -> np.ndarray:
    """The roots-form spin-flip rank-one terms of every site s, stacked."""
    params, p, q = pair.params, pair.p, pair.q
    coth_x, tanh_x = pair.node_kernels
    row = (np.divide(q.x_eta, p.x)[:, None] * coth_x
           - np.divide(q.x_eta_ipi, p.x_ipi)[:, None] * tanh_x) \
        * (np.exp(-np.asarray(params.xi)) * params.a_xi)[:, None]
    col = np.multiply(p.exp_r, p.d_r) / ((-2j) ** params.n * pair.q_at_p[0] * p.r_ipi)
    return row[:, :, None] * col


def _tau_rank1(pair: PairContext, site_factor: np.ndarray, col) -> np.ndarray:
    """site_factor_s col_k / sinh(z_i - xi_s) at (s, i, k): the
    eigenvalue-form rank-one terms of every site s, stacked."""
    return (site_factor / pair.z_xi_sinh).T[:, :, None] * np.asarray(col)


def ff_sigma_z(pair: PairContext, sites, form: str = "roots") -> list[complex]:
    """sigma^z form factors between same-twist eigenstates, one per site
    (1-based) in ``sites``."""
    params = pair.params
    ratios = _tau_prod_ratios(pair, sites, 0)
    p, q = pair.p, pair.q
    at = np.asarray(sites) - 1
    if form == "roots":
        s1 = slavnov_matrix(pair.halves, 1.0)
        den = pair.cauchy_det
        dets = det_lu(s1 - _rank1_sigma_z(pair)[at])
        return [-pq_ratio * d / den for pq_ratio, d in zip(ratios, dets)]
    if form == "tau":
        mat = tau_matrix(*pair.tau_dq, 1.0)
        site_factor = np.exp(np.asarray(params.xi)) * q.tau.values \
            / np.multiply(p.x_eta, p.x_ipi)
        rank1 = _tau_rank1(pair, site_factor, np.multiply(p.r_eta, p.r_ipi) / p.d_r)
        pref = pair.tau_prefactor
        return [-pref * pq_ratio * d for pq_ratio, d in zip(ratios, det_lu(mat + rank1[at]))]
    raise ParameterError(f"unknown form {form!r}")


def ff_sigma_pm(pair: PairContext, kappa: complex, eps: int, sites,
                form: str = "roots") -> list[complex]:
    """Spin-flip form factors between same-twist eigenstates, one per site
    (1-based) in ``sites``.

    Evaluates the single determinant representation; it reproduces the matrix
    element of the lowering entry E^{21} (spin up at ``site`` flipped down) in
    the convention where C annihilates the all-up reference state.
    """
    params = pair.params
    ratios = _tau_prod_ratios(pair, sites, 1)
    p, q = pair.p, pair.q
    alpha = cmath.exp(-params.eta)
    at = np.asarray(sites) - 1
    if form == "roots":
        pref = eps * kappa * cmath.exp(-(sum(p.roots) - sum(params.xi)))
        se = slavnov_matrix(pair.halves, alpha)
        den = pair.cauchy_det
        se_det, *dets = det_lu(np.concatenate([se[None], se - _rank1_sigma_minus(pair)[at]]))
        return [pref * pq_ratio * (d - se_det) / den for pq_ratio, d in zip(ratios, dets)]
    if form == "tau":
        mat = tau_matrix(*pair.tau_dq, alpha)
        pref = eps * kappa * cmath.exp(-sum(p.roots)) \
            * pair.tau_prefactor * cmath.exp(sum(params.xi))
        site_factor = np.multiply(params.a_xi, q.tau.values) / p.sinh_x
        rank1 = _tau_rank1(pair, site_factor, p.exp_r)
        mat_det, *dets = det_lu(np.concatenate([mat[None], mat + rank1[at]]))
        return [pref * pq_ratio * (d - mat_det) for pq_ratio, d in zip(ratios, dets)]
    raise ParameterError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# generic-argument matrix elements of B and D


def _sell_mu_column(pair: PairContext, alpha: complex, mu: complex) -> np.ndarray:
    """Replacement column for the generic-argument matrix element formulas:
    the scalar-product matrix entry with its column argument at mu, less its
    i*pi-shifted partner."""
    params, p_poly, q_poly, q = pair.params, pair.p.poly, pair.q.poly, pair.q
    eta = params.eta
    q_mu_eta, q_mu_eta_ipi = q_poly([mu - eta, mu - eta + IPI])
    p_mu, p_mu_ipi = p_poly([mu, mu + IPI])
    factor = (q_mu_eta_ipi * p_mu) / (q_mu_eta * p_mu_ipi)
    u = mu - pair.qr
    cross = -2 * alpha * (params.d_fn(mu) * np.asarray(q.r_eta_plus) * p_poly(pair.qr + IPI)
                          / (np.asarray(q.a_r) * q_mu_eta * p_mu_ipi)) / np.sinh(u)
    entry = coth((u - eta) / 2) + alpha * a_frak(params, q_poly, mu) * coth(u / 2) + cross
    return entry - factor * (coth((u - eta + IPI) / 2)
                             + alpha * a_frak(params, q_poly, mu + IPI) * coth((u + IPI) / 2))


def matel_b(pair: PairContext, kappa: complex, kappa2: complex, eps: int,
            eps2: int, mu: complex) -> complex:
    """Matrix element of B(mu) between normalized separate eigenstates."""
    params, p_poly, q_poly = pair.params, pair.p.poly, pair.q.poly
    alpha = eps * eps2 * kappa2 / kappa
    eta, n = params.eta, params.n
    smat = slavnov_matrix(pair.halves, alpha)
    # swaps[l] is smat with its column l replaced by the mu column
    swaps = np.repeat(smat[None], n, axis=0)
    swaps[np.arange(n), :, np.arange(n)] = _sell_mu_column(pair, alpha, mu)
    smat_det, *swap_dets = det_lu(np.concatenate([smat[None], swaps]))
    p_mu, p_mu_eta, p_mu_ipi, p_mu_eta_ipi = p_poly([mu, mu - eta, mu + IPI, mu - eta + IPI])
    weights = (np.asarray(pair.p.r_eta) / p_mu) * (q_poly(mu - eta) / pair.q_at_p[0])
    bracket = (p_mu_eta / p_mu - p_mu_eta_ipi / p_mu_ipi) * smat_det \
        - np.sum(weights * swap_dets)
    return -eps * kappa * params.a_fn(mu) / 2 * bracket / pair.cauchy_det


def matel_d(pair: PairContext, mu: complex) -> complex:
    """Matrix element of D(mu) between same-twist normalized eigenstates."""
    params, p_poly, q_poly, p = pair.params, pair.p.poly, pair.q.poly, pair.p
    eta = params.eta
    alpha = cmath.exp(-eta)
    p_mu = sinh_prod(mu - pair.pr)
    a_mu = params.a_fn(mu)
    col_scale = cmath.exp(-mu) * a_mu * q_poly(mu - eta) * p_poly(mu + IPI) / p_mu
    big = np.block([
        [slavnov_matrix(pair.halves, alpha), col_scale * _sell_mu_column(pair, alpha, mu)[:, None]],
        [(np.multiply(p.exp_r, p.d_r) / (pair.q_at_p[0] * p.r_ipi))[None, :],
         np.array([[a_mu * params.d_fn(mu) / p_mu]])],
    ])
    pref = cmath.exp(-(sum(p_poly.roots) - sum(params.xi)))
    return pref * det_lu(big) / pair.cauchy_det


# ---------------------------------------------------------------------------
# identity test bench


def x_contraction_check(params: ModelParams, p_poly: HalfPeriodTrigPoly,
                        q_poly: HalfPeriodTrigPoly, beta: complex) -> float:
    """Entrywise defect of the kernel-matrix contraction against its three-term
    closed form (the residue evaluation used to relabel rows by Q-roots)."""
    eta = params.eta
    xi = np.asarray(params.xi, dtype=np.complex128)
    pr = np.asarray(p_poly.roots, dtype=np.complex128)
    qr = np.asarray(q_poly.roots, dtype=np.complex128)
    p_x, p_x_ipi, p_x_eta_ipi = p_poly(xi + np.array([[0], [IPI], [IPI - eta]]))
    q_x, q_x_eta, q_x_eta_ipi = q_poly(xi + np.array([[0], [-eta], [IPI - eta]]))
    ft = f_tilde_values(p_x_eta_ipi, q_x, p_x_ipi, q_x_eta)
    v = xi[None, :] - qr[:, None] - eta  # xi_b - q_a - eta at (a, b)
    xmat = (q_x_eta * p_x_ipi * coth(v / 2)
            - q_x_eta_ipi * p_x * coth((v + IPI) / 2)) / node_denominators(xi)
    w = xi[:, None] - pr[None, :]  # xi_b - p_k at (b, k)
    mmat = 1 / np.sinh(w) + beta * ft[:, None] / np.sinh(w - eta)
    direct = xmat @ mmat
    u = pr[None, :] - qr[:, None]  # p_k - q_j at (j, k)
    a_q, a_p, d_p = params.a_fn(qr), params.a_fn(pr), params.d_fn(pr)
    p_ipi = p_poly(pr + IPI)
    sinh_half, cosh_half = np.sinh(u / 2), np.cosh(u / 2)
    if (abs(sinh_half) < 1e-13).any():
        raise SingularEvaluationError("coincident roots p_k = q_j")
    closed = (2 * beta * q_poly(qr + eta) / a_q)[:, None] \
        * _p_ipi_over_sinh(sinh_half, cosh_half) \
        - q_poly(pr - eta) * p_ipi / d_p * coth((u - eta) / 2) \
        - beta * q_poly(pr + eta) * p_ipi / a_p * cosh_half / sinh_half
    scale = np.maximum(np.maximum(np.abs(direct), np.abs(closed)), 1e-30)
    return float(np.max(np.abs(direct - closed) / scale))


def half_period_split_check(pair: PairContext, alpha: complex):
    """Deviations of the two double-period intermediate determinant forms from
    the weighted Izergin value, plus the entrywise defect between the two
    printed variants of the Q-labelled kernel."""
    params, p, q = pair.params, pair.p, pair.q
    n, eta = params.n, params.eta
    xi = np.asarray(params.xi, dtype=np.complex128)
    pr, qr = pair.pr, pair.qr
    ref = sp_izergin(pair, alpha)
    # f_tilde at xi and at xi + i*pi, where P(lam + 2 i pi) = (-1)^N P(lam) cancels
    ft = f_tilde_values(p.x_eta_ipi, q.x, p.x_ipi, q.x_eta)
    ft_ipi = f_tilde_values(p.x_eta, q.x_ipi, p.x, q.x_eta_ipi)
    fac1 = 1j * np.multiply(p.x, q.x_ipi) / np.multiply(p.x_ipi, q.x)
    fac2 = 1j * np.multiply(p.x, q.x_eta_ipi) / np.multiply(p.x_ipi, q.x_eta)
    em = cmath.exp(-eta / 2)
    w = xi[:, None] - pr[None, :]  # xi_i - p_k at (i, k)
    den = 1 / np.sinh(w)
    m1 = (1 / np.sinh(w / 2) - 1j / np.sinh((w + IPI) / 2)
          + alpha * em * (ft[:, None] / np.sinh((w - eta) / 2)
                          - 1j * ft_ipi[:, None] / np.sinh((w - eta + IPI) / 2)))
    v = xi[:, None] - qr[None, :]  # xi_i - q_k at (i, k)

    def core(shift):
        return 1 / np.sinh((v + shift) / 2) - alpha * em / np.sinh((v - eta + shift) / 2)

    m2a = core(0) - fac1[:, None] * core(IPI)
    m2b = core(0) + fac2[:, None] * core(IPI)
    den_det, m1_det, m2a_det = det_lu([den, m1, m2a])
    pref = cmath.exp(sum(params.xi[i] - pr[i] for i in range(n)) / 2) / 2**n
    val_p = pref * m1_det / den_det
    pref_q = pref * np.prod(np.divide(q.x, p.x)) * vandermonde(pr / 2) / vandermonde(qr / 2)
    val_q = pref_q * m2a_det / den_det
    scale = max(abs(ref), 1e-30)
    kernel_dev = float(np.max(np.abs(m2a - m2b)) / max(np.max(np.abs(m2a)), 1e-30))
    return abs(val_p - ref) / scale, abs(val_q - ref) / scale, kernel_dev


def extension_limit_check(params: ModelParams, f, f_inf: complex) -> float:
    """Finite-argument check of the determinant-size extension rule:
    appending one node at x_large multiplies the functional by
    (1 - f_inf e^{-L eta}) after an e^eta reweighting of f, with L the
    original number of nodes."""
    xs = list(params.xi)
    x_large = 30.0
    big = a_functional(xs + [x_large], [f(x) for x in xs] + [f(x_large)], params.eta)
    small = a_functional(xs, [cmath.exp(params.eta) * f(x) for x in xs], params.eta)
    target = (1 - f_inf * cmath.exp(-len(xs) * params.eta)) * small
    return abs(big - target) / max(abs(big), abs(target), 1e-30)


def identity_bench(params: ModelParams, records: list, seed: int = 2025) -> dict:
    """Numerical residuals for the determinant identities behind the scalar
    product transformations, on the first two of the certified ``records``.
    Returns a name -> residual map; everything is a relative deviation."""
    rng = np.random.default_rng(seed)
    n = params.n
    out: dict[str, float] = {}

    # reduction of the dressed-Vandermonde functional to the weighted Izergin form
    xs = params.xi
    zero = abs(a_functional(xs, [0.0] * n, params.eta) - 1.0)
    zs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    out["functional_reduction_zero"] = float(zero + abs(
        izergin_ratio(xs, zs, [0.0] * n, params.eta) - 1.0))
    worst = 0.0
    for _ in range(3):
        f_vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        zs = []
        while len(zs) < n:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if all(dist_mod_2ipi(z, x) > params.delta_min for x in xs) \
                    and all(abs(z - w) > params.delta_min for w in zs):
                zs.append(z)
        lhs = a_functional(xs, f_vals, params.eta)
        rhs = izergin_ratio(xs, zs, [f_vals[i] * e_weight(zs, params.eta, xs[i])
                                     for i in range(n)], params.eta)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    out["functional_reduction"] = float(worst)

    p_poly, q_poly = records[0].q_poly, records[1].q_poly
    beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    out["kernel_contraction"] = float(
        x_contraction_check(params, p_poly, q_poly, beta))
    synth = HalfPeriodTrigPoly.from_roots(
        [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])
    out["kernel_contraction_shifted"] = float(
        x_contraction_check(params, synth.shifted_ipi(), synth, beta))

    alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    pair = PairContext(params, records[0].table, records[1].table)
    slav = sp_slavnov(pair, alpha)
    ize = sp_izergin(pair, alpha)
    out["root_relabel"] = float(abs(slav - ize) / max(abs(ize), 1e-30))
    dev_p, dev_q, kernel_dev = half_period_split_check(pair, alpha)
    out["half_period_split_p"] = float(dev_p)
    out["half_period_split_q"] = float(dev_q)
    out["half_period_kernel_forms"] = float(kernel_dev)

    denom_closed = coth_cauchy_closed_form(params, p_poly, q_poly)
    denom_det = pair.cauchy_det
    out["cauchy_closed_form"] = float(
        abs(denom_closed - denom_det) / max(abs(denom_det), 1e-30))

    f_const = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    out["extension_limit_const"] = float(
        extension_limit_check(params, lambda _u: f_const, f_const))
    zw = [complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)) for _ in range(2)]
    out["extension_limit_rational"] = float(extension_limit_check(
        params, lambda u: e_weight(zw, params.eta, u), cmath.exp(-2 * params.eta)))
    return out
