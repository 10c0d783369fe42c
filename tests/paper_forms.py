"""The paper's intermediate formulas that no command evaluates, kept for the
tests that check them against the dense oracle: the two-parameter product
identity, the equal-function scalar product, the generic-argument B(mu) and
D(mu) matrix elements and the a/d-ratio form of the unnormalized ket.

Each is written on the package's own kernels (``PairContext``, its Slavnov
halves and ``_bordered``), so a test of one of them also reads the pieces the
commands evaluate.  The module name does not start with ``test_``, so pytest
does not collect it.
"""

from __future__ import annotations

import cmath

import numpy as np

from sovxxz.errors import SingularEvaluationError
from sovxxz.linalg import det_lu
from sovxxz.model import (
    IPI,
    ModelParams,
    QTable,
    a_frak_values,
    coth,
    half_period_values,
    node_denominators,
    sinh,
    sinh_cosh,
    sinh_prod,
)
from sovxxz.observables import (
    PairContext,
    _bordered,
    _p_ipi_over_sinh,
    _require_roots_off_nodes,
    izergin_ratio,
    slavnov_matrix,
    sp_slavnov,
)
from sovxxz.sov import SovBasis, SovState


# ---------------------------------------------------------------------------
# the two-parameter product identity


def product_matrix(params: ModelParams, pr, qr, alpha: complex, beta: complex):
    """Two-parameter product matrix and its Bethe-sensitive last-line part,
    for the roots ``pr`` of P and ``qr`` of Q.

    Returns (matrix, last_line, entry_scale); the last line carries the factor
    (1 - alpha beta e^{-eta} a_frak_Q(q_j)) that vanishes entrywise on Bethe
    roots when alpha beta e^{-eta} = 1.
    """
    pr = np.asarray(pr, dtype=np.complex128)
    qr = np.asarray(qr, dtype=np.complex128)
    eta = params.eta
    em = cmath.exp(-eta / 2)
    u = pr[None, :] - qr[:, None]
    s_half, c_half = sinh_cosh(u / 2)
    if np.any(np.abs(s_half) < 1e-13):
        raise SingularEvaluationError("product representation needs pairwise distinct roots")
    q_p_eta, q_p_eta_plus = half_period_values(qr, pr + [[-eta], [eta]])  # Q(p_k -+ eta)
    q_q_eta, q_q_eta_plus = half_period_values(qr, qr + [[-eta], [eta]])  # Q(q_j -+ eta)
    d_p, d_q = params.d_fn(pr), params.d_fn(qr)
    afrak_p = a_frak_values(params.a_fn(pr), d_p, q_p_eta, q_p_eta_plus)
    afrak_q = a_frak_values(params.a_fn(qr), d_q, q_q_eta, q_q_eta_plus)
    line1 = alpha * em / sinh((u - eta) / 2) - 1 / s_half
    line2 = beta * em * afrak_p * (alpha * em / s_half - 1 / sinh((u + eta) / 2))
    cross = (d_p / d_q[:, None]) \
        * (q_q_eta[:, None] / (q_p_eta * half_period_values(pr, pr + IPI))) \
        * (1 - alpha * beta * cmath.exp(-eta) * afrak_q)[:, None] \
        * np.exp(u / 2) * 2 * _p_ipi_over_sinh(s_half, c_half)
    return line1 + line2 + cross, cross, float(np.max(np.abs(line1) + np.abs(line2)))


def sp_product_check(pair: PairContext, alpha: complex, beta: complex):
    """Both sides of the two-parameter product identity and their deviation,
    on a 1 x 1 grid.

    The constant in front of the determinant ratio was calibrated numerically
    against the product of the two one-parameter representations (exact to
    1e-12 at N = 1, 2, 3); it carries no 2^{-N(N-1)} factor.
    """
    params, p, q = pair.params, *(t.take(0) for t in pair.tables)
    lhs = (sp_slavnov(pair, alpha) * sp_slavnov(pair, beta))[0, 0]
    mat, _, _ = product_matrix(params, p.roots, q.roots, alpha, beta)
    den = 1 / sinh((pair.pr[0, 0][None, :] - pair.qr[0, 0][:, None] - params.eta) / 2)
    pref = (-1.0) ** params.n * cmath.exp(sum(params.xi) - sum(p.roots)) \
        * np.prod(q.x / q.x_eta)
    mat_det, den_det = det_lu([mat, den]).tolist()
    rhs = pref * mat_det / den_det
    dev = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, dev


# ---------------------------------------------------------------------------
# the equal-function scalar product


def sp_same_q(params: ModelParams, qr, alpha: complex):
    """Equal-function scalar product of the Q-function with the roots ``qr``:
    (twisted-Izergin form, compact N x N form)."""
    _require_roots_off_nodes(params, qr)
    qr = np.asarray(qr, dtype=np.complex128)
    izergin_form = izergin_ratio(params.xi, qr, [alpha] * params.n, params.eta)
    s_eta = sinh(qr[:, None] - qr[None, :] + params.eta)  # at (k, l): q_k - q_l + eta
    prod = s_eta.prod(axis=1) / node_denominators(qr)
    ratio = params.d_fn(qr) / params.a_fn(qr)
    # entry (j, k) subtracts ratio_k prod_k alpha / sinh(q_k - q_j + eta)
    compact_form = det_lu(np.eye(params.n) - ratio * prod * alpha / s_eta.T)
    return izergin_form, compact_form


# ---------------------------------------------------------------------------
# generic-argument matrix elements of B and D


def _sell_mu_column(pair: PairContext, alpha: complex, mu: complex) -> np.ndarray:
    """Replacement column for the generic-argument matrix element formulas on
    a 1 x 1 grid: the scalar-product matrix entry with its column argument at
    mu, less its i*pi-shifted partner."""
    params, p, q = pair.params, *(t.take(0) for t in pair.tables)
    pr, qr, eta = p.roots, q.roots, params.eta
    q_mu_eta, q_mu_eta_ipi = half_period_values(qr, [mu - eta, mu - eta + IPI])
    p_mu, p_mu_ipi = half_period_values(pr, [mu, mu + IPI])
    factor = (q_mu_eta_ipi * p_mu) / (q_mu_eta * p_mu_ipi)
    u = mu - qr
    cross = -2 * alpha * (params.d_fn(mu) * q.r_eta_plus * half_period_values(pr, qr + IPI)
                          / (q.a_r * q_mu_eta * p_mu_ipi)) / sinh(u)
    afrak, afrak_ipi = (a_frak_values(params.a_fn(x), params.d_fn(x),
                                      *half_period_values(qr, [x - eta, x + eta]))
                        for x in (mu, mu + IPI))
    entry = coth((u - eta) / 2) + alpha * afrak * coth(u / 2) + cross
    return entry - factor * (coth((u - eta + IPI) / 2) + alpha * afrak_ipi * coth((u + IPI) / 2))


def matel_b(pair: PairContext, kappa: complex, kappa2: complex, mu: complex) -> complex:
    """Matrix element of B(mu) between normalized separate eigenstates, the
    bra at twist kappa and the ket at kappa2, on a 1 x 1 grid.  Its bracket,
    ratio det(S) - sum_l w_l det(S with column l replaced by the mu column c)
    = ratio det(S) - w^T adj(S) c, is the bordered determinant
    det [[S, c], [w^T, ratio]] (``_bordered``)."""
    params, p, q = pair.params, *(t.take(0) for t in pair.tables)
    alpha, eta = kappa2 / kappa, params.eta
    p_mu, p_mu_eta, p_mu_ipi, p_mu_eta_ipi = half_period_values(
        p.roots, [mu, mu - eta, mu + IPI, mu - eta + IPI])
    weights = (p.r_eta / p_mu) * (half_period_values(q.roots, [mu - eta])[0]
                                  / pair.q_at_p[0][0, 0])
    bracket = _bordered(slavnov_matrix(*pair.halves, alpha)[0, 0],
                        _sell_mu_column(pair, alpha, mu), weights,
                        p_mu_eta / p_mu - p_mu_eta_ipi / p_mu_ipi)
    return -kappa * params.a_fn(mu) / 2 * bracket / pair.cauchy_det[0, 0]


def matel_d(pair: PairContext, mu: complex) -> complex:
    """Matrix element of D(mu) between same-twist normalized eigenstates, on
    a 1 x 1 grid: the bordered determinant det [[S, c], [v^T, corner]]
    (``_bordered``) of S = S(e^{-eta}), the scaled mu column c, the
    spin-flip row v and a(mu) d(mu) / P(mu) in the corner."""
    params, p, q = pair.params, *(t.take(0) for t in pair.tables)
    eta, alpha = params.eta, cmath.exp(-params.eta)
    p_mu = sinh_prod(mu - p.roots)
    a_mu = params.a_fn(mu)
    col_scale = cmath.exp(-mu) * a_mu * half_period_values(q.roots, [mu - eta])[0] \
        * half_period_values(p.roots, [mu + IPI])[0] / p_mu
    det = _bordered(slavnov_matrix(*pair.halves, alpha)[0, 0],
                    col_scale * _sell_mu_column(pair, alpha, mu),
                    p.exp_r * p.d_r / (pair.q_at_p[0][0, 0] * p.r_ipi),
                    a_mu * params.d_fn(mu) / p_mu)
    pref = cmath.exp(-(sum(p.roots) - sum(params.xi)))
    return pref * det / pair.cauchy_det[0, 0]


# ---------------------------------------------------------------------------
# the a/d-ratio form of the unnormalized ket


def separate_ket_qdet_form(basis: SovBasis, table: QTable, kappa: complex) -> SovState:
    """Unnormalized kets, one per record of ``table``, in the equivalent form
    that trades the Vandermonde flip for explicit a/d ratios: coefficients
    prod_n [(-kappa)^{-h_n} (a(xi_n)/d(xi_n-eta))^{h_n} P(xi_n^{(h_n)})] V(xi^{(h)}).
    """
    params = basis.params
    ratio = params.a_xi / params.d_fn(np.asarray(params.xi) - params.eta)
    site = np.where(basis.labels, table.x_eta[:, None, :] * ratio / -kappa,
                    table.x[:, None, :])
    coeffs = site.prod(axis=-1) * basis.v_h
    return SovState(coefficients=coeffs, embedded=(coeffs[:, None] @ basis.kets)[:, 0])
