"""Determinant representations of scalar products and form factors.

Implements the dressed-Vandermonde form, the weighted Izergin form, the
Slavnov-like form with rows/columns labelled by the roots of the two
Q-functions (plus its one-parameter deformation), the representations written
directly in terms of transfer-matrix eigenvalues, the equal-function
specializations, the sigma^z and spin-flip form factors in both root- and
eigenvalue-labelled forms, generic-argument B/D matrix elements, and the
numerical test bench for the underlying determinant identities.

Matrix entries that develop 0/0 patterns when the two root sets are paired
(equal or shifted by i*pi) are evaluated through algebraically equivalent
product forms, so every representation stays finite on all eigen pairs.
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
    f_tilde,
    f_tilde_values,
    point_key,
    sinh_prod,
    vandermonde_rows,
)
from .sov import SovBasis, all_h
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
    f = np.asarray(f_vals, dtype=np.complex128)
    m = len(rows.at_x)
    mat = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            mat[i, j] = (rows.at_x[i, j] - f[i] * rows.at_x_eta[i, j]) / 2 ** j
    return _det_expanded(mat, rows.wide) / rows.v


def izergin_ratio(xs, zs, f_vals, eta: complex) -> complex:
    """det[1/sinh(x_i - z_k) - f(x_i)/sinh(x_i - z_k - eta)] over the plain
    Cauchy determinant det[1/sinh(x_i - z_k)]."""
    x = np.asarray(xs, dtype=np.complex128)
    z = np.asarray(zs, dtype=np.complex128)
    f = np.asarray(f_vals, dtype=np.complex128)
    num = np.zeros((len(x), len(z)), dtype=np.complex128)
    den = np.zeros_like(num)
    for i in range(len(x)):
        for k in range(len(z)):
            s0 = cmath.sinh(x[i] - z[k])
            s1 = cmath.sinh(x[i] - z[k] - eta)
            if abs(s0) < 1e-13 or abs(s1) < 1e-13:
                raise SingularEvaluationError(
                    f"Izergin node collision at x_{i+1}, z_{k+1}"
                )
            num[i, k] = 1 / s0 - f[i] / s1
            den[i, k] = 1 / s0
    num_det, den_det = det_lu([num, den])
    return num_det / den_det


def e_weight(zs, eta: complex, u: complex) -> complex:
    """prod_l sinh(u - z_l - eta) / sinh(u - z_l)."""
    out = 1.0 + 0.0j
    for z in zs:
        out *= cmath.sinh(u - z - eta) / cmath.sinh(u - z)
    return out


# ---------------------------------------------------------------------------
# scalar products


def sp_direct(pair: PairContext, alpha: complex) -> complex:
    """Scalar product as the ratio of dressed generalized Vandermonde dets."""
    params, p, q = pair.params, pair.p, pair.q
    f_vals = []
    for k, x in enumerate(params.xi):
        den = p.x_eta[k] * q.x_eta[k]
        if abs(den) < 1e-13:
            raise SingularEvaluationError(f"(PQ)(xi - eta) vanishes at xi = {x}")
        f_vals.append(-alpha * p.x[k] * q.x[k] / den)
    return _dressed_vandermonde(params.node_rows, f_vals)


def sp_sov_sum(basis: SovBasis, pair: PairContext, alpha: complex) -> complex:
    """Literal 2^N sum over the SoV labels of ``basis`` (the definition of the
    product)."""
    params, p, q = pair.params, pair.p, pair.q
    n = params.n
    v_h = basis.v_h
    ratio = [alpha * p.x[k] * q.x[k] / (p.x_eta[k] * q.x_eta[k]) for k in range(n)]
    total = 0.0 + 0.0j
    for idx, h in enumerate(all_h(n)):
        term = 1.0 + 0.0j
        for m in range(n):
            if h[m] == 0:
                term *= ratio[m]
        # V(xi_m - (1 - h_m) eta) is v_h of the complement label 1 - h
        total += term * v_h[2**n - 1 - idx] / v_h[0]
    return total


def sp_izergin(pair: PairContext, alpha: complex) -> complex:
    """Scalar product as a weighted Izergin determinant with columns labelled
    by the roots of P."""
    params, p, q = pair.params, pair.p, pair.q
    _require_roots_off_nodes(params, p)
    f_vals = [-alpha * f_tilde_values(p.x_eta_ipi[k], q.x[k], p.x_ipi[k], q.x_eta[k])
              for k in range(params.n)]
    return izergin_ratio(params.xi, p.roots, f_vals, params.eta)


def cond_pq_residual(pair: PairContext) -> float:
    """Relative defect of the i*pi compatibility condition on (PQ) at the nodes."""
    p, q = pair.p, pair.q
    worst = 0.0
    for k in range(pair.params.n):
        r1 = (p.x_eta[k] * q.x_eta[k]) / (p.x[k] * q.x[k])
        r2 = (p.x_eta_ipi[k] * q.x_eta_ipi[k]) / (p.x_ipi[k] * q.x_ipi[k])
        worst = max(worst, abs(r1 - r2) / max(abs(r1) + abs(r2), 1e-30))
    return worst


def _node_collision(params: ModelParams, poly: HalfPeriodTrigPoly) -> str:
    """Why a root of ``poly`` collides with an inhomogeneity shift set, or ""."""
    for q in poly.roots:
        for x in params.xi:
            if dist_mod_2ipi(q, x) < 1e-8 or dist_mod_2ipi(q, x + IPI) < 1e-8 \
                    or dist_mod_2ipi(q, x - params.eta) < 1e-8 \
                    or dist_mod_2ipi(q, x - params.eta + IPI) < 1e-8:
                return f"root {q} collides with an inhomogeneity shift set"
    return ""


def _require_roots_off_nodes(params: ModelParams, table: QTable):
    """Raise if a root of ``table``'s polynomial collides with a node shift set;
    the verdict is reached once per table (``QTable.memo``)."""
    if "node_collision" not in table.memo:
        table.memo["node_collision"] = _node_collision(params, table.poly)
    if table.memo["node_collision"]:
        raise SingularEvaluationError(table.memo["node_collision"])


def _tau_hat(params: ModelParams, table: QTable, lam: complex) -> complex:
    """tau_hat of ``table``'s eigenvalue at lam, evaluated once per table and
    point (``QTable.memo``)."""
    hats = table.memo.setdefault("tau_hat", {})
    key = point_key(lam)
    if key not in hats:
        hats[key] = tau_hat(params, table.tau, lam)
    return hats[key]


def _sinh_at_nodes(params: ModelParams, table: QTable) -> list[complex]:
    """prod_l sinh(xi_s - p_l) over ``table``'s roots p_l, per node xi_s,
    formed once per table (``QTable.memo``)."""
    if "sinh_at_nodes" not in table.memo:
        table.memo["sinh_at_nodes"] = [sinh_prod(xs - pl for pl in table.roots)
                                       for xs in params.xi]
    return table.memo["sinh_at_nodes"]


def _phat_over_sinh(p_roots, k: int, qj: complex) -> complex:
    """P(q_j + i*pi) / sinh(p_k - q_j) in product form.

    Writing w = q_j + i*pi, the ratio equals
    prod_{l != k} sinh((w - p_l)/2) / (2 cosh((w - p_k)/2)),
    which stays finite when p_k approaches q_j + i*pi (the factor of P that
    vanishes is cancelled against the sinh in the denominator).
    """
    w = qj + IPI
    ch = cmath.cosh((w - p_roots[k]) / 2)
    if abs(ch) < 1e-13:
        raise SingularEvaluationError("coincident roots p_k = q_j")
    return sinh_prod((w - p) / 2 for l, p in enumerate(p_roots) if l != k) / (2 * ch)


def _s_gamma(u: complex, gamma: complex) -> complex:
    sg = cmath.sinh(gamma / 2)
    su = cmath.sinh(u / 2)
    if abs(sg) < 1e-13 or abs(su) < 1e-13:
        raise SingularEvaluationError("s_gamma evaluated at a pole")
    return cmath.sinh((u + gamma) / 2) / (su * sg)


@dataclass(frozen=True)
class SlavnovHalves:
    """The alpha-free pieces of ``slavnov_matrix`` for one (P, Q) pair and gamma.

    Entry (j, k) is base + (alpha a) kern + ((c alpha) x) y for
    ``terms[j][k] = (a, kern, c, x, y)``, the middle term left out where kern
    is None: c = -2 with the cross term's Bethe ratio x and P factor y, or
    c = 2 with the same-roots limit.  ``base`` is the coth (or s_gamma)
    Cauchy matrix.
    """

    base: list[list[complex]]
    terms: list[list[tuple]]


def slavnov_halves(pair: PairContext, gamma: complex | None = None) -> SlavnovHalves:
    """Everything in the root-labelled matrix that does not depend on alpha.

    Rows follow Q-roots, columns P-roots.  Entries combine coth (or s_gamma)
    kernels with the Bethe ratio of Q and a cross term written in a
    collision-safe product form.  When P and Q carry identical root sets the
    diagonal entries take their analytic limits, which need the logarithmic
    derivatives of Q and a.
    """
    params, p, q = pair.params, pair.p, pair.q
    pr = np.asarray(p.roots, dtype=np.complex128)
    qr = np.asarray(q.roots, dtype=np.complex128)
    n = params.n
    if len(pr) != n or len(qr) != n:
        raise ParameterError("polynomials must carry N roots each")
    same_roots = bool(np.all(np.abs(pr - qr) < _COLLISION_TOL))
    eta = params.eta
    q_p_eta = pair.q_at_p_eta
    q_p_eta_plus = q.r_eta_plus if pair.diagonal else [q.poly(pk + eta) for pk in p.roots]
    afrak_p = [a_frak_values(a, d, qe, qp)
               for a, d, qe, qp in zip(p.a_r, p.d_r, q_p_eta, q_p_eta_plus)]

    def kernel(u):
        return coth(u / 2) if gamma is None else _s_gamma(u, gamma)

    base, terms = [], []
    for j in range(n):
        qj = qr[j]
        base.append([])
        terms.append([])
        for k in range(n):
            pk = pr[k]
            if dist_mod_2ipi(pk, qj) < _COLLISION_TOL:
                if not same_roots:
                    raise SingularEvaluationError(
                        f"coincident roots p_{k+1} = q_{j+1} for distinct functions"
                    )
                log_sum = q.poly.log_deriv(qj + eta) + q.poly.log_deriv(qj + IPI) \
                    - params.a_log_deriv(qj)
                afrak_q = a_frak_values(q.a_r[j], q.d_r[j], q.r_eta[j], q.r_eta_plus[j])
                base[j].append(kernel(pk - qj - eta))
                kern = None if gamma is None else coth(gamma / 2)
                terms[j].append((afrak_q, kern, 2, afrak_q, log_sum))
                continue
            base[j].append(kernel(pk - qj - eta))
            kern = kernel(pk - qj)
            ratio = p.d_r[k] * q.r_eta_plus[j] / (q.a_r[j] * q_p_eta[k] * p.r_ipi[k])
            terms[j].append((afrak_p[k], kern, -2, ratio, _phat_over_sinh(pr, k, qj)))
    return SlavnovHalves(base, terms)


def slavnov_matrix(halves: SlavnovHalves, alpha: complex) -> np.ndarray:
    """Root-labelled scalar-product matrix at ``alpha``, from its alpha-free
    halves (rows follow Q-roots, columns P-roots)."""
    n = len(halves.base)
    mat = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            a, kern, c, x, y = halves.terms[j][k]
            entry = halves.base[j][k]
            if kern is not None:
                entry = entry + alpha * a * kern
            mat[j, k] = entry + c * alpha * x * y
    return mat


def coth_cauchy_closed_form(params: ModelParams, p_poly: HalfPeriodTrigPoly,
                            q_poly: HalfPeriodTrigPoly) -> complex:
    """Closed form of det[coth((p_k - q_j - eta)/2)]: a hyperbolic Cauchy
    determinant with a cosh of the root-sum mismatch."""
    pr, qr = p_poly.roots, q_poly.roots
    n = params.n
    num = cmath.cosh((sum(pr) - sum(qr) - n * params.eta) / 2)
    for i in range(n):
        for j in range(i + 1, n):
            num *= cmath.sinh((pr[i] - pr[j]) / 2) * cmath.sinh((qr[j] - qr[i]) / 2)
    den = sinh_prod((pr[i] - qr[j] - params.eta) / 2 for i in range(n) for j in range(n))
    return num / den


class PairContext:
    """The site-independent pieces of one (P, Q) pair's determinant formulas.

    Built from the two polynomials' ``model.q_table``s, which hold every value
    that depends on one of them alone.  A form factor is the pair's
    scalar-product determinant plus a rank-one term that depends on the site;
    what needs both polynomials but no alpha (the Slavnov and
    eigenvalue-labelled halves, the Cauchy determinant, the tau prefactor and
    Q at the P-roots) is built here on first use and kept.  Each formula
    builds its matrix at its alpha from these once per call, for every site
    it is asked for.  Building lazily keeps each error in the call that
    raised it before.

    The eigenvalue-labelled forms need both tables to carry an eigenvalue;
    ``z`` (default: the Q-roots) labels the rows of those forms.
    """

    def __init__(self, params: ModelParams, p: QTable, q: QTable, z=None):
        self.params = params
        self.p, self.q = p, q
        self.z = list(q.roots) if z is None else [complex(v) for v in z]
        # P's roots equal Q's bit for bit: Q's table holds Q at the P-roots
        self.diagonal = np.asarray(p.roots, dtype=np.complex128).tobytes() \
            == np.asarray(q.roots, dtype=np.complex128).tobytes()

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
    def tau_dq(self) -> tuple[list[list[complex]], list[list[complex]]]:
        """The alpha-free halves of tau_matrix: [tau_hat_Q(z_i) - tau_hat_Q(p_k)]
        and [tau_hat_P(z_i) - tau_hat_P(p_k + eta)], each over sinh(z_i - w_k)."""
        p, q = self.eigen_tables()
        pr = p.roots
        return (_tau_dq_matrix(self.params, q, self.z, pr),
                _tau_dq_matrix(self.params, p, self.z,
                               [pk + self.params.eta for pk in pr]))

    @cached_property
    def tau_prefactor(self) -> complex:
        return _tau_prefactor(self.params, self.eigen_tables()[1].tau_x, self.p.roots,
                              self.z)

    # Q at the P-roots: Slavnov cross term, rank-one columns
    @cached_property
    def q_at_p_eta(self) -> tuple[complex, ...]:
        if self.diagonal:
            return self.q.r_eta
        return tuple(self.q.poly(pk - self.params.eta) for pk in self.p.roots)


def sp_slavnov(pair: PairContext, alpha: complex, gamma: complex | None = None,
               cond_tol: float = 1e-7) -> complex:
    """Scalar product as the root-labelled determinant ratio.

    Only valid when the i*pi compatibility condition on (PQ) holds at the
    inhomogeneities; the residual is checked up front.
    """
    res = cond_pq_residual(pair)
    if res > cond_tol:
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
    n = params.n
    eta = params.eta
    em = cmath.exp(-eta / 2)
    afrak_p = [a_frak(params, q_poly, p) for p in pr]
    afrak_q = [a_frak(params, q_poly, q) for q in qr]
    mat = np.zeros((n, n), dtype=np.complex128)
    last = np.zeros((n, n), dtype=np.complex128)
    scale = 0.0
    for j in range(n):
        for k in range(n):
            u = pr[k] - qr[j]
            s_half = cmath.sinh(u / 2)
            if abs(s_half) < 1e-13:
                raise SingularEvaluationError(
                    "product representation needs pairwise distinct roots"
                )
            line1 = alpha * em / cmath.sinh((u - eta) / 2) - 1 / s_half
            line2 = beta * em * afrak_p[k] * (
                alpha * em / s_half - 1 / cmath.sinh((u + eta) / 2)
            )
            cross = (params.d_fn(pr[k]) / params.d_fn(qr[j])) \
                * (q_poly(qr[j] - eta) / (q_poly(pr[k] - eta) * p_poly(pr[k] + IPI))) \
                * (1 - alpha * beta * cmath.exp(-eta) * afrak_q[j]) \
                * cmath.exp(u / 2) * 2 * _phat_over_sinh(pr, k, qr[j])
            mat[j, k] = line1 + line2 + cross
            last[j, k] = cross
            scale = max(scale, abs(line1) + abs(line2))
    return mat, last, scale


def sp_product_check(pair: PairContext, alpha: complex, beta: complex):
    """Both sides of the two-parameter product identity and their deviation.

    The constant in front of the determinant ratio was calibrated numerically
    against the product of the two one-parameter representations (exact to
    1e-12 at N = 1, 2, 3); it carries no 2^{-N(N-1)} factor.
    """
    params, p_poly, q_poly = pair.params, pair.p.poly, pair.q.poly
    lhs = sp_slavnov(pair, alpha) * sp_slavnov(pair, beta)
    n = params.n
    mat, _, _ = product_matrix(params, p_poly, q_poly, alpha, beta)
    den = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for k in range(n):
            den[i, k] = 1 / cmath.sinh((p_poly.roots[k] - q_poly.roots[i] - params.eta) / 2)
    pref = (-1.0) ** n * cmath.exp(sum(params.xi) - sum(p_poly.roots))
    for k in range(n):
        pref *= pair.q.x[k] / pair.q.x_eta[k]
    rhs = pref * det_lu(mat) / det_lu(den)
    dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, dev


def _tau_dq_matrix(params: ModelParams, table: QTable, z, ws) -> list[list[complex]]:
    """[tau_hat(z_i) - tau_hat(w_k)] / sinh(z_i - w_k) for the eigenvalue of
    ``table``, with its removable limits.

    tau_hat is i*pi-periodic, so z - w near any i*m*pi is a removable point
    with limit (-1)^m tau_hat'(w).  tau_hat is evaluated on first use, once
    per table and point (``_tau_hat``)."""
    rows = []
    for zi in z:
        row = []
        for w in ws:
            u = zi - w
            m = round(u.imag / np.pi)
            if abs(u - 1j * np.pi * m) < _COLLISION_TOL:
                row.append((-1.0) ** m * tau_hat_deriv(params, table.tau, w))
                continue
            row.append((_tau_hat(params, table, zi) - _tau_hat(params, table, w))
                       / cmath.sinh(u))
        rows.append(row)
    return rows


def tau_matrix(dq, dp, alpha: complex) -> np.ndarray:
    """Eigenvalue-labelled matrix dq - alpha * dp, from the two halves of
    ``PairContext.tau_dq`` (rows at the z-points, columns at P-roots)."""
    n = len(dq)
    mat = np.zeros((n, n), dtype=np.complex128)
    for i in range(n):
        for k in range(n):
            mat[i, k] = dq[i][k] - alpha * dp[i][k]
    return mat


def _tau_prefactor(params: ModelParams, tq_xi, p_roots, z) -> complex:
    """prod sinh(z_i - xi_j) sinh(xi_j - p_i) over
    (e^{sum xi} prod tau_Q(xi_j) prod_{i<j} sinh(z_j - z_i) sinh(p_i - p_j))."""
    n = params.n
    num = 1.0 + 0.0j
    for i in range(n):
        for j in range(n):
            num *= cmath.sinh(z[i] - params.xi[j]) * cmath.sinh(params.xi[j] - p_roots[i])
    den = cmath.exp(sum(params.xi))
    for j, tq in enumerate(tq_xi):
        if abs(tq) < 1e-12:
            raise SingularEvaluationError(f"tau_Q vanishes at xi_{j+1}")
        den *= tq
    for i in range(n):
        for j in range(i + 1, n):
            den *= cmath.sinh(z[j] - z[i]) * cmath.sinh(p_roots[i] - p_roots[j])
    return num / den


def sp_tau(pair: PairContext, kappa: complex, kappa2: complex):
    """Scalar product written through the eigenvalue functions.

    Returns (izergin_form, slavnov_form); the rows of the second form sit at
    the context's ``z``, which may be any pairwise-distinct points away from
    the tau_hat poles.
    """
    params = pair.params
    n = params.n
    p, q = pair.eigen_tables()
    pr = p.roots
    ratio = kappa2 / kappa
    tp_xi, tq_xi = p.tau_x, q.tau_x
    num = np.zeros((n, n), dtype=np.complex128)
    den = np.zeros((n, n), dtype=np.complex128)
    for i, x in enumerate(params.xi):
        tq = tq_xi[i]
        tp = tp_xi[i]
        if abs(tq) < 1e-12:
            raise SingularEvaluationError(f"tau_Q vanishes at xi_{i+1}")
        for k in range(n):
            num[i, k] = tq / cmath.sinh(x - pr[k]) \
                - ratio * tp / cmath.sinh(x - pr[k] - params.eta)
            den[i, k] = tq / cmath.sinh(x - pr[k])

    z = pair.z
    if len(z) != n:
        raise ParameterError("z must provide N points")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(z[i] - z[j]) < 1e-10:
                raise ParameterError("z points must be pairwise distinct")
    num_det, den_det, mat_det = det_lu([num, den, tau_matrix(*pair.tau_dq, ratio)])
    slavnov_form = pair.tau_prefactor * mat_det
    return num_det / den_det, slavnov_form


def sp_same_q(params: ModelParams, q_poly: HalfPeriodTrigPoly, alpha: complex):
    """Equal-function scalar product: (twisted-Izergin form, compact N x N form)."""
    collision = _node_collision(params, q_poly)
    if collision:
        raise SingularEvaluationError(collision)
    n = params.n
    qr = q_poly.roots
    f_vals = [alpha for _ in params.xi]
    izergin_form = izergin_ratio(params.xi, qr, f_vals, params.eta)
    mat = np.eye(n, dtype=np.complex128)
    for k in range(n):
        ratio = params.d_fn(qr[k]) / params.a_fn(qr[k])
        prod = sinh_prod(qr[k] - ql + params.eta for ql in qr) \
            / sinh_prod(qr[k] - ql for l, ql in enumerate(qr) if l != k)
        for j in range(n):
            mat[j, k] -= ratio * prod * alpha / cmath.sinh(qr[k] - qr[j] + params.eta)
    compact_form = det_lu(mat)
    return izergin_form, compact_form


# ---------------------------------------------------------------------------
# form factors


def _tau_prod_ratios(pair: PairContext, sites, shift: int) -> list[complex]:
    """prod_{k <= s - shift} tau_P(xi_k) / prod_{k <= s} tau_Q(xi_k) for each
    site s (1-based) in ``sites``, from the values at the nodes."""
    p, q = pair.eigen_tables()
    ratios = []
    for site in sites:
        if not 1 <= site <= pair.params.n:
            raise ParameterError(f"site {site} outside 1..{pair.params.n}")
        out = 1.0 + 0.0j
        for k in range(site - shift):
            out *= p.tau_x[k]
        for k in range(site):
            tq = q.tau_x[k]
            if abs(tq) < 1e-12:
                raise SingularEvaluationError(f"tau_Q vanishes at xi_{k+1}")
            out /= tq
        ratios.append(out)
    return ratios


def _rank1_sigma_z(pair: PairContext, col: np.ndarray, site: int) -> np.ndarray:
    params, p, q, k = pair.params, pair.p, pair.q, site - 1
    xs = params.xi[k]
    eta = params.eta
    r0 = q.x_eta[k] / p.x_eta[k]
    r1 = q.x_eta_ipi[k] / p.x_eta_ipi[k]
    row = np.array([
        r0 * coth((xs - qj - eta) / 2) + r1 * coth((xs + IPI - qj - eta) / 2)
        for qj in q.roots
    ], dtype=np.complex128)
    return np.outer(row, col)


def ff_sigma_z(pair: PairContext, sites, form: str = "roots") -> list[complex]:
    """sigma^z form factors between same-twist eigenstates, one per site
    (1-based) in ``sites``."""
    params = pair.params
    ratios = _tau_prod_ratios(pair, sites, 0)
    p, q = pair.p, pair.q
    if form == "roots":
        s1 = slavnov_matrix(pair.halves, 1.0)
        col = np.array([pe / qe for pe, qe in zip(p.r_eta, pair.q_at_p_eta)],
                       dtype=np.complex128)
        den = pair.cauchy_det
        dets = det_lu([s1 - _rank1_sigma_z(pair, col, site) for site in sites])
        return [-pq_ratio * d / den for pq_ratio, d in zip(ratios, dets)]
    if form == "tau":
        z = pair.z
        mat = tau_matrix(*pair.tau_dq, 1.0)
        d_p, p_eta, p_ipi = p.d_r, p.r_eta, p.r_ipi
        mats = []
        for site in sites:
            xs = params.xi[site - 1]
            tq_xs = q.tau_x[site - 1]
            e_xs = cmath.exp(xs)
            p_xs_eta = p.x_eta[site - 1]
            p_xs_ipi = p.x_ipi[site - 1]
            rank1 = np.zeros((params.n, params.n), dtype=np.complex128)
            for i in range(params.n):
                s_zx = cmath.sinh(z[i] - xs)
                for l in range(params.n):
                    rank1[i, l] = e_xs * tq_xs / (d_p[l] * s_zx) \
                        * (p_eta[l] / p_xs_eta) * (p_ipi[l] / p_xs_ipi)
            mats.append(mat + rank1)
        pref = pair.tau_prefactor
        return [-pref * pq_ratio * d for pq_ratio, d in zip(ratios, det_lu(mats))]
    raise ParameterError(f"unknown form {form!r}")


def _rank1_sigma_minus(pair: PairContext, col_den: list[complex], site: int) -> np.ndarray:
    params, p, q, k = pair.params, pair.p, pair.q, site - 1
    xs = params.xi[k]
    eta = params.eta
    a_xs = params.a_xi[k]
    col = np.array([
        cmath.exp(-xs + pk) * a_xs * d / den
        for pk, d, den in zip(p.roots, p.d_r, col_den)
    ], dtype=np.complex128)
    r0 = q.x_eta[k] / p.x[k]
    r1 = q.x_eta_ipi[k] / p.x_ipi[k]
    row = np.array([
        r0 * coth((xs - qj - eta) / 2) - r1 * coth((xs - qj - eta + IPI) / 2)
        for qj in q.roots
    ], dtype=np.complex128)
    return np.outer(row, col)


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
    if form == "roots":
        pref = eps * kappa * cmath.exp(
            -(sum(p.roots) - sum(params.xi))
        )
        se = slavnov_matrix(pair.halves, alpha)
        col_den = [(-2j) ** params.n * qe * pp for qe, pp in zip(pair.q_at_p_eta, p.r_ipi)]
        den = pair.cauchy_det
        se_det, *dets = det_lu(
            [se] + [se - _rank1_sigma_minus(pair, col_den, site) for site in sites])
        return [pref * pq_ratio * (d - se_det) / den for pq_ratio, d in zip(ratios, dets)]
    if form == "tau":
        z = pair.z
        mat = tau_matrix(*pair.tau_dq, alpha)
        pref = eps * kappa * cmath.exp(-sum(p.roots)) \
            * pair.tau_prefactor * cmath.exp(sum(params.xi))
        mats = [mat]
        for site in sites:
            xs = params.xi[site - 1]
            p_xs = _sinh_at_nodes(params, p)[site - 1]
            rank1 = np.zeros((params.n, params.n), dtype=np.complex128)
            tq_xs = q.tau_x[site - 1]
            a_xs = params.a_xi[site - 1]
            for i in range(params.n):
                s_zx = cmath.sinh(z[i] - xs)
                for k, e_pk in enumerate(p.exp_r):
                    rank1[i, k] = e_pk * a_xs * tq_xs / (p_xs * s_zx)
            mats.append(mat + rank1)
        mat_det, *dets = det_lu(mats)
        return [pref * pq_ratio * (d - mat_det) for pq_ratio, d in zip(ratios, dets)]
    raise ParameterError(f"unknown form {form!r}")


# ---------------------------------------------------------------------------
# generic-argument matrix elements of B and D


def _slavnov_entry(params: ModelParams, p_poly: HalfPeriodTrigPoly,
                   q_poly: HalfPeriodTrigPoly, alpha: complex,
                   qj: complex, w: complex) -> complex:
    """Scalar-product matrix entry with the column argument at an arbitrary w."""
    eta = params.eta
    base = coth((w - qj - eta) / 2)
    mid = alpha * a_frak(params, q_poly, w) * coth((w - qj) / 2)
    cross = -2 * alpha * (params.d_fn(w) * q_poly(qj + eta) * p_poly(qj + IPI)
                          / (params.a_fn(qj) * q_poly(w - eta) * p_poly(w + IPI))) \
        / cmath.sinh(w - qj)
    return base + mid + cross


def _sell_mu_column(params: ModelParams, p_poly: HalfPeriodTrigPoly,
                    q_poly: HalfPeriodTrigPoly, alpha: complex,
                    mu: complex) -> np.ndarray:
    """Replacement column for the generic-argument matrix element formulas."""
    eta = params.eta
    factor = (q_poly(mu - eta + IPI) * p_poly(mu)) \
        / (q_poly(mu - eta) * p_poly(mu + IPI))
    afrak_ipi = a_frak(params, q_poly, mu + IPI)
    col = np.zeros(params.n, dtype=np.complex128)
    for j, qj in enumerate(q_poly.roots):
        col[j] = _slavnov_entry(params, p_poly, q_poly, alpha, qj, mu) \
            - factor * (coth((mu - qj - eta + IPI) / 2)
                        + alpha * afrak_ipi * coth((mu - qj + IPI) / 2))
    return col


def matel_b(pair: PairContext, kappa: complex, kappa2: complex, eps: int,
            eps2: int, mu: complex) -> complex:
    """Matrix element of B(mu) between normalized separate eigenstates."""
    params, p_poly, q_poly = pair.params, pair.p.poly, pair.q.poly
    alpha = eps * eps2 * kappa2 / kappa
    eta = params.eta
    smat = slavnov_matrix(pair.halves, alpha)
    den = pair.cauchy_det
    bracket = (p_poly(mu - eta) / p_poly(mu)
               - p_poly(mu - eta + IPI) / p_poly(mu + IPI)) * det_lu(smat)
    col = _sell_mu_column(params, p_poly, q_poly, alpha, mu)
    for l, (p_eta, q_eta) in enumerate(zip(pair.p.r_eta, pair.q_at_p_eta)):
        swap = smat.copy()
        swap[:, l] = col
        bracket -= (p_eta / p_poly(mu)) * (q_poly(mu - eta) / q_eta) * det_lu(swap)
    return -eps * kappa * params.a_fn(mu) / 2 * bracket / den


# ---------------------------------------------------------------------------
# identity test bench


def x_contraction_check(params: ModelParams, p_poly: HalfPeriodTrigPoly,
                        q_poly: HalfPeriodTrigPoly, beta: complex) -> float:
    """Entrywise defect of the kernel-matrix contraction against its three-term
    closed form (the residue evaluation used to relabel rows by Q-roots)."""
    n = params.n
    eta = params.eta
    pr, qr = p_poly.roots, q_poly.roots
    xmat = np.zeros((n, n), dtype=np.complex128)
    mmat = np.zeros((n, n), dtype=np.complex128)
    for b, xb in enumerate(params.xi):
        den = sinh_prod(xb - xl for l, xl in enumerate(params.xi) if l != b)
        ftb = f_tilde(params, p_poly, q_poly, xb)
        for a in range(n):
            xmat[a, b] = (q_poly(xb - eta) * p_poly(xb + IPI)
                          * coth((xb - qr[a] - eta) / 2)
                          - q_poly(xb - eta + IPI) * p_poly(xb)
                          * coth((xb - qr[a] - eta + IPI) / 2)) / den
        for k in range(n):
            mmat[b, k] = 1 / cmath.sinh(xb - pr[k]) \
                + beta * ftb / cmath.sinh(xb - pr[k] - eta)
    direct = xmat @ mmat
    worst = 0.0
    for j in range(n):
        for k in range(n):
            closed = (
                2 * beta * q_poly(qr[j] + eta) / params.a_fn(qr[j])
                * _phat_over_sinh(pr, k, qr[j])
                - q_poly(pr[k] - eta) * p_poly(pr[k] + IPI) / params.d_fn(pr[k])
                * coth((pr[k] - qr[j] - eta) / 2)
                - beta * q_poly(pr[k] + eta) * p_poly(pr[k] + IPI) / params.a_fn(pr[k])
                * coth((pr[k] - qr[j]) / 2)
            )
            worst = max(worst, abs(direct[j, k] - closed)
                        / max(abs(direct[j, k]), abs(closed), 1e-30))
    return worst


def half_period_split_check(pair: PairContext, alpha: complex):
    """Deviations of the two double-period intermediate determinant forms from
    the weighted Izergin value, plus the entrywise defect between the two
    printed variants of the Q-labelled kernel."""
    params, p_poly, q_poly = pair.params, pair.p.poly, pair.q.poly
    n = params.n
    eta = params.eta
    pr, qr = p_poly.roots, q_poly.roots
    ref = sp_izergin(pair, alpha)
    den = np.zeros((n, n), dtype=np.complex128)
    m1 = np.zeros((n, n), dtype=np.complex128)
    m2a = np.zeros((n, n), dtype=np.complex128)
    m2b = np.zeros((n, n), dtype=np.complex128)
    for i, x in enumerate(params.xi):
        ft = f_tilde(params, p_poly, q_poly, x)
        ft_ipi = f_tilde(params, p_poly, q_poly, x + IPI)
        fac1 = 1j * (p_poly(x) * q_poly(x + IPI)) / (p_poly(x + IPI) * q_poly(x))
        fac2 = 1j * (p_poly(x) * q_poly(x + IPI - eta)) / (p_poly(x + IPI) * q_poly(x - eta))
        for k in range(n):
            den[i, k] = 1 / cmath.sinh(x - pr[k])
            m1[i, k] = (1 / cmath.sinh((x - pr[k]) / 2)
                        - 1j / cmath.sinh((x - pr[k] + IPI) / 2)
                        + alpha * cmath.exp(-eta / 2)
                        * (ft / cmath.sinh((x - pr[k] - eta) / 2)
                           - 1j * ft_ipi / cmath.sinh((x - pr[k] - eta + IPI) / 2)))

            def core(shift):
                return (1 / cmath.sinh((x - qr[k] + shift) / 2)
                        - alpha * cmath.exp(-eta / 2)
                        / cmath.sinh((x - qr[k] - eta + shift) / 2))

            m2a[i, k] = core(0) - fac1 * core(IPI)
            m2b[i, k] = core(0) + fac2 * core(IPI)
    den_det = det_lu(den)
    pref = cmath.exp(sum(params.xi[i] - pr[i] for i in range(n)) / 2) / 2**n
    val_p = pref * det_lu(m1) / den_det
    pref_q = pref
    for x in params.xi:
        pref_q *= q_poly(x) / p_poly(x)
    for i in range(n):
        for j in range(i + 1, n):
            pref_q *= cmath.sinh((pr[j] - pr[i]) / 2) / cmath.sinh((qr[j] - qr[i]) / 2)
    val_q = pref_q * det_lu(m2a) / den_det
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


def matel_d(pair: PairContext, mu: complex) -> complex:
    """Matrix element of D(mu) between same-twist normalized eigenstates."""
    params, p_poly, q_poly = pair.params, pair.p.poly, pair.q.poly
    n = params.n
    eta = params.eta
    alpha = cmath.exp(-eta)
    smat = slavnov_matrix(pair.halves, alpha)
    big = np.zeros((n + 1, n + 1), dtype=np.complex128)
    big[:n, :n] = smat
    col = _sell_mu_column(params, p_poly, q_poly, alpha, mu)
    p_mu = sinh_prod(mu - pl for pl in p_poly.roots)
    col_scale = cmath.exp(-mu) * params.a_fn(mu) \
        * q_poly(mu - eta) * p_poly(mu + IPI) / p_mu
    big[:n, n] = col_scale * col
    p = pair.p
    for k in range(n):
        big[n, k] = p.exp_r[k] * p.d_r[k] / (pair.q_at_p_eta[k] * p.r_ipi[k])
    big[n, n] = params.a_fn(mu) * params.d_fn(mu) / p_mu
    den = pair.cauchy_det
    pref = cmath.exp(-(sum(p_poly.roots) - sum(params.xi)))
    return pref * det_lu(big) / den
