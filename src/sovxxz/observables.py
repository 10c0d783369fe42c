"""Determinant representations of scalar products and form factors.

Implements the dressed-Vandermonde form, the weighted Izergin form, the
Slavnov-like form with rows/columns labelled by the roots of the two
Q-functions, the representations written directly in terms of
transfer-matrix eigenvalues, the sigma^z and spin-flip form factors in both
root- and eigenvalue-labelled forms, and the numerical test bench for the
underlying determinant identities.  These are the forms the commands
evaluate; the paper's intermediate forms that only the tests check live in
``tests/paper_forms.py``.

Every matrix is formed at once from broadcast arrays of root and point
differences (rows first, columns second), for every pair of a (P, Q) grid
(``PairContext``); one pair is a 1 x 1 grid.  Matrix entries that develop
0/0 patterns when the two root sets are paired (equal or shifted by i*pi)
are evaluated through algebraically equivalent product forms, or as their
analytic limits, so every representation stays finite on all eigen pairs.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager
from functools import cached_property

import numpy as np

from .errors import ParameterError, SingularEvaluationError, SovxxzError, names_refusals
from .linalg import det_lu
from .model import (
    IPI,
    ModelParams,
    QTable,
    VandermondeRows,
    a_frak_values,
    canonical_roots,
    coth,
    dist_mod_2ipi,
    dist_mod_ipi,
    f_tilde_values,
    first_index,
    half_period_values,
    node_denominators,
    products_except,
    sinh,
    sinh_cosh,
    sinh_prod,
    vandermonde,
    vandermonde_rows,
)
from .spectrum import tau_hat, tau_hat_deriv

_COLLISION_TOL = 1e-9
# the largest relative defect of the i*pi compatibility condition on (PQ) at
# which the root-labelled form applies (``sp_slavnov``)
_COND_TOL = 1e-7


# ---------------------------------------------------------------------------
# generic determinant functionals


def _det_expanded(mat: np.ndarray, rows: list[int]):
    """Determinant with Laplace expansion forced along the listed rows, of
    one matrix or of each matrix of a stack.

    Rows whose entries span a huge dynamic range destroy the accuracy of a
    plain LU determinant; expanding along them keeps every minor well scaled.
    The minors of the first listed row are formed as one stack and expanded
    along the remaining listed rows the same way, so one ``det_lu`` call
    takes every determinant.  The terms are summed in column order, one
    column at a time: numpy's array product of complex values can round
    differently from its scalar product, and this way one matrix's
    determinant rounds exactly as a term-by-term expansion rounds it.
    """
    if not rows:
        return det_lu(mat)
    r, size = rows[0], mat.shape[-1]
    # column k of minor j: column k of mat, or k + 1 from column j on
    cols = np.arange(size - 1) + (np.arange(size - 1) >= np.arange(size)[:, None])
    minors = np.moveaxis(np.delete(mat, r, axis=-2)[..., cols], -2, -3)
    dets = _det_expanded(minors, [k - 1 if k > r else k for k in rows[1:]])
    row = mat[..., r, :]
    signed = np.where((r + np.arange(size)) % 2 == 1, -row, row)  # (-1)^(r+j) entry_j
    total = 0.0 + 0.0j
    for entry, det in zip(np.moveaxis(signed, -1, 0), np.moveaxis(dets, -1, 0)):
        total = total + entry * det
    return total


def a_functional(xs, f_vals, eta: complex) -> complex:
    """Dressed-Vandermonde functional: det over the exponential column basis of
    [e^{(2j-M-1)x_i} (1 - f(x_i) e^{-(2j-M-1)eta}) / 2^{j-1}] divided by V(x).

    Nodes far from the bulk (used by the determinant-extension checks) are
    handled by expanding the determinant along their rows.
    """
    return _dressed_vandermonde(vandermonde_rows(xs, eta), f_vals)


def _dressed_vandermonde(rows: VandermondeRows, f_vals):
    """``a_functional`` from the ``VandermondeRows`` of its points, for f
    on the last axis of ``f_vals`` (a stack of f gives a stack of values)."""
    f = np.asarray(f_vals, dtype=np.complex128)[..., :, None]
    mat = (rows.at_x - f * rows.at_x_eta) / 2.0 ** np.arange(len(rows.at_x))
    return _det_expanded(mat, rows.wide) / rows.v


def izergin_ratio(xs, zs, f_vals, eta: complex) -> complex:
    """det[1/sinh(x_i - z_k) - f(x_i)/sinh(x_i - z_k - eta)] over the plain
    Cauchy determinant det[1/sinh(x_i - z_k)]."""
    kernels = _izergin_kernels(xs, zs, eta)
    num_det, den_det = det_lu([_izergin_matrix(kernels, f_vals), kernels[0]]).tolist()
    return num_det / den_det


def _izergin_kernels(xs, zs, eta: complex) -> tuple[np.ndarray, np.ndarray]:
    """1/sinh(x_i - z_k) and 1/sinh(x_i - z_k - eta) at (..., i, k), for the
    points on the last axes of ``xs`` and ``zs``; refused where a sinh
    vanishes."""
    diff = np.asarray(xs, dtype=np.complex128)[..., :, None] \
        - np.asarray(zs, dtype=np.complex128)[..., None, :]
    # one kernel call for both, since its fixed cost is most of it at small N
    s0, s1 = sinh(np.stack([diff, diff - eta]))
    near = (abs(s0) < 1e-13) | (abs(s1) < 1e-13)
    if near.any():
        at = first_index(near)
        raise SingularEvaluationError(
            f"Izergin node collision at x_{at[-2] + 1}, z_{at[-1] + 1}", at=at)
    return 1 / s0, 1 / s1


def _izergin_matrix(kernels, f_vals) -> np.ndarray:
    """[1/sinh(x_i - z_k) - f(x_i)/sinh(x_i - z_k - eta)] from the
    ``_izergin_kernels`` and f (on the last axis of ``f_vals``)."""
    cauchy, shifted = kernels
    return cauchy - np.asarray(f_vals, dtype=np.complex128)[..., :, None] * shifted


def e_weight(zs, eta: complex, u):
    """prod_l sinh(u - z_l - eta) / sinh(u - z_l) at every point of ``u``
    (a scalar gives a scalar)."""
    w = np.asarray(u, dtype=np.complex128)[..., None] - np.asarray(zs, dtype=np.complex128)
    return np.prod(sinh(w - eta) / sinh(w), axis=-1)


# ---------------------------------------------------------------------------
# the pair context: every pair of a (P, Q) grid


# a formula of a ``PairContext`` prefixes a refusal raised inside it with the
# report key of its pair (``P3_Q5: ...``): the first two axes of its index
_names_pair = names_refusals(lambda at: f"P{at[0]}_Q{at[1]}" if len(at) >= 2 else None)


@contextmanager
def _entries_of(pairs):
    """Give a refusal raised inside, on an array whose first axis runs over
    gathered entries, the pair of its entry e: (pairs[0][e], pairs[1][e])."""
    try:
        yield
    except SovxxzError as exc:
        if exc.at:
            exc.at = tuple(int(axis[exc.at[0]]) for axis in pairs)
        raise


class PairContext:
    """The site-independent pieces of the determinant formulas of every pair
    of a (P, Q) grid at once.

    ``p`` and ``q`` are each a ``model.q_table``, and every pair of a P
    record of ``p`` and a Q record of ``q`` is evaluated; one pair is a 1 x 1
    grid.  Every array carries leading (P, Q) axes, a value of one record
    alone is held once per record (length one on the other axis), every
    formula returns a (P, Q[, site]) array (a form factor one per form,
    stacked), and a refusal names the first pair, in (P, Q) row-major order,
    that holds it by its report key (``P3_Q5: ...``).  ``tables`` holds the
    two tables as given; ``p``/``q`` hold them with every array a view on its
    pair axis (``field[:, None]`` for P, ``field[None]`` for Q), ``pr``/``qr``
    their roots.  What needs both polynomials but no alpha, or one record's
    roots and the nodes, is built on first use and kept; building lazily
    keeps each error in the call that raised it before.

    The eigenvalue-labelled forms need both tables to carry eigenvalues;
    ``z`` (default: the Q-roots) labels the rows of those forms: N points,
    pairwise more than 1e-10 apart modulo i*pi, checked here.
    """

    @_names_pair
    def __init__(self, params: ModelParams, p: QTable, q: QTable, z=None):
        self.params = params
        self.tables = (p, q)
        self.lead = (len(p), len(q))
        self.p, self.q = p.take(np.s_[:, None]), q.take(np.s_[None])
        self.pr, self.qr = self.p.roots, self.q.roots
        n = params.n
        if self.pr.shape[-1] != n or self.qr.shape[-1] != n:
            raise ParameterError("polynomials must carry N roots each")
        if z is None:
            self.z = self.qr
        else:
            self.z = np.asarray(z, dtype=np.complex128)
            if self.z.shape != (n,):
                raise ParameterError("z must provide N points")
            self.z = np.broadcast_to(self.z, self.qr.shape)
        # each point lies at distance 0 from itself; one entry more is a close pair
        close = dist_mod_ipi(self.z[..., :, None], self.z[..., None, :]) <= 1e-10
        crowded = np.count_nonzero(close, axis=(-2, -1)) > n
        if crowded.any():
            raise ParameterError("z points must be pairwise more than 1e-10 apart modulo i*pi",
                                 at=first_index(crowded))
        # pairs whose roots are equal bit for bit: Q's table holds Q at the P-roots
        self.diagonal = (self.pr.view(np.uint64) == self.qr.view(np.uint64)).all(axis=-1)

    @cached_property
    def tau_values(self) -> tuple[np.ndarray, np.ndarray]:
        """tau_P(xi_k) and tau_Q(xi_k), per record; refused where a table
        carries no eigenvalue."""
        if self.p.tau is None or self.q.tau is None:
            raise ParameterError("eigenvalue-labelled forms need both eigen records", at=(0, 0))
        return self.p.tau, self.q.tau

    @cached_property
    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        """The alpha-free halves (base, rest) of ``slavnov_matrix``
        (``slavnov_halves``)."""
        return slavnov_halves(self)

    @cached_property
    def cauchy_det(self):
        """det of the coth Cauchy matrix, the base of the halves."""
        return det_lu(self.halves[0])

    @cached_property
    def q_at_p(self) -> tuple[np.ndarray, np.ndarray]:
        """Q(p_k - eta) and Q(p_k + eta): the Slavnov halves, and the first
        the rank-one columns.  One batch evaluates them on the pairs whose
        roots differ; the diagonal pairs read them from Q's table."""
        eta, shape = self.params.eta, self.lead + (2, self.params.n)
        values = np.empty(shape, dtype=np.complex128)
        values[...] = np.stack([self.q.r_eta, self.q.r_eta_plus], axis=-2)
        off = ~self.diagonal
        points = np.broadcast_to(self.pr[..., None, :] + np.array([[-eta], [eta]]), shape)
        roots = np.broadcast_to(self.qr[..., None, :], self.lead + (1, self.params.n))
        values[off] = half_period_values(roots[off], points[off])
        return values[..., 0, :], values[..., 1, :]

    @cached_property
    def izergin_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``_izergin_kernels`` of the nodes against the P-roots, per P
        record, shared by the two Izergin forms (``sp_izergin`` and
        ``sp_tau``)."""
        return _izergin_kernels(self.params.xi, self.pr, self.params.eta)

    @cached_property
    def izergin_det(self):
        """det of the Cauchy matrix [1/sinh(xi_i - p_k)] per P record, the
        denominator of both Izergin forms."""
        return det_lu(self.izergin_kernels[0])

    @cached_property
    def node_kernels(self) -> tuple[np.ndarray, np.ndarray]:
        """coth(x) and coth(x + i*pi/2) = tanh(x) at x = (xi_s - q_j - eta)/2,
        row s, column j, per Q record: the rows of the roots-form rank-one
        terms."""
        xi = np.asarray(self.params.xi, dtype=np.complex128)
        half = (xi[:, None] - self.qr[..., None, :] - self.params.eta) / 2
        s, c = sinh_cosh(half)
        pole = s * c == 0
        if pole.any():
            raise SingularEvaluationError("coth evaluated at a pole", at=first_index(pole))
        return c / s, s / c

    @cached_property
    def z_xi_sinh(self) -> np.ndarray:
        """sinh(z_i - xi_s), row i, column s, per Q record."""
        return sinh(self.z[..., :, None] - np.asarray(self.params.xi))

    @cached_property
    def tau_dq(self) -> tuple[np.ndarray, np.ndarray]:
        """The alpha-free halves of ``tau_matrix`` (``tau_halves``)."""
        return tau_halves(self)

    @cached_property
    def tau_prefactor(self):
        """prod sinh(z_i - xi_j) sinh(xi_j - p_i) over
        (e^{sum xi} prod tau_Q(xi_j) prod_{i<j} sinh(z_j - z_i) sinh(p_i - p_j))."""
        tq = _nonvanishing_tau_q(self)
        num = self.z_xi_sinh.prod(axis=(-2, -1)) * self.p.sinh_x.prod(axis=-1)
        den = cmath.exp(sum(self.params.xi)) * tq.prod(axis=-1) \
            * vandermonde(self.z) * vandermonde(self.pr[..., ::-1])
        return num / den

    @cached_property
    def tau_node_products(self) -> tuple[np.ndarray, np.ndarray]:
        """prod_{k <= s} tau_P(xi_k) and prod_{k <= s} tau_Q(xi_k) for
        s = 0..N (the empty product first), on the last axis."""
        return tuple(np.concatenate([np.ones(v.shape[:-1] + (1,)), v], axis=-1).cumprod(axis=-1)
                     for v in self.tau_values)


def _owners(pair: PairContext, blocks) -> list:
    """The (P, Q) index of the first pair holding each entry of the raveled,
    concatenated ``blocks`` (arrays on the pair axes)."""
    return list(np.concatenate(
        [np.broadcast_to(np.indices(b.shape[:2])[..., None], (2,) + b.shape).reshape(2, -1)
         for b in blocks], axis=1))


def tau_halves(pair: PairContext) -> tuple[np.ndarray, np.ndarray]:
    """The alpha-free halves of tau_matrix:
    [tau_hat_Q(z_i) - tau_hat_Q(p_k)] and [tau_hat_P(z_i) - tau_hat_P(p_k + eta)],
    each over sinh(z_i - w_k), with their removable limits.

    tau_hat is i*pi-periodic, so z - w near any i*m*pi is a removable point
    with limit (-1)^m tau_hat'(w), filled in on every pair at once.  One
    batch evaluates every eigenvalue of the context at every z_i, p_k and
    p_k + eta; each pair reads tau_hat_P(z_i) and tau_hat_Q(p_k) from it,
    each record tau_hat at its own z_i or p_k + eta."""
    params, n, eta = pair.params, pair.params.n, pair.params.eta
    n_p, n_q = pair.lead
    taus = np.concatenate([t.reshape(-1, n) for t in pair.tau_values])  # P's, then Q's
    w = pair.pr[..., None, :] + np.array([[0.0], [eta]])  # rows p_k and p_k + eta
    # d at z from the z - xi rows; d(p_k) and d(p_k + eta) = a(p_k) from P's table
    points = [(pair.z, pair.z_xi_sinh.prod(axis=-1)), (pair.pr, pair.p.d_r),
              (w[..., 1, :], pair.p.a_r)]
    with _entries_of(_owners(pair, [lam for lam, _ in points])):
        hat = tau_hat(params, taus, np.concatenate([np.ravel(lam) for lam, _ in points]),
                      np.concatenate([np.ravel(d) for _, d in points]))
    cols = [n_q * n, (n_q + n_p) * n]  # z | p_k | p_k + eta

    def own(block):  # each record's row at its own points
        return np.diagonal(block.reshape(len(block), len(block), n)).T

    p_z, _, p_w = np.split(hat[:n_p], cols, axis=1)
    q_z, q_p, _ = np.split(hat[n_p:], cols, axis=1)
    # rows: tau_hat_Q, tau_hat_P at z, and tau_hat_Q(p_k), tau_hat_P(p_k + eta)
    at_z = np.stack(np.broadcast_arrays(own(q_z)[None], p_z.reshape(n_p, n_q, n)), axis=-2)
    at_w = np.stack(np.broadcast_arrays(q_p.reshape(n_q, n_p, n).swapaxes(0, 1),
                                        own(p_w)[:, None]), axis=-2)
    u = pair.z[..., None, :, None] - w[..., :, None, :]  # z_i - w_k, at (h, i, k)
    m = np.rint(u.imag / np.pi)
    limit = abs(u - 1j * np.pi * m) < _COLLISION_TOL
    u[limit] = 1.0  # the removable points, filled in below
    dq = (at_z[..., :, None] - at_w[..., None, :]) / sinh(u)
    if limit.any():
        *pairs, h, _, k = np.nonzero(limit)
        ip, iq = pairs
        # tau_hat_Q' (h = 0) or tau_hat_P' (h = 1) of each limit's pair, at its w
        row = np.where(h == 0, n_p + iq, ip)
        lam = np.broadcast_to(w, pair.lead + (2, n))[(*pairs, h, k)]
        with _entries_of(pairs):
            deriv = tau_hat_deriv(params, taus, lam)[row, np.arange(len(h))]
        dq[limit] = (-1.0) ** m[limit] * deriv
    return dq[..., 0, :, :], dq[..., 1, :, :]


def _nonvanishing_tau_q(pair: PairContext, upto: int | None = None) -> np.ndarray:
    """tau_Q(xi_k) at every node, refused where it vanishes among the first
    ``upto`` nodes (default: all)."""
    tq = pair.tau_values[1]
    vanishing = np.abs(tq[..., :upto]) < 1e-12
    if vanishing.any():
        at = first_index(vanishing)
        raise SingularEvaluationError(f"tau_Q vanishes at xi_{at[-1] + 1}", at=at)
    return tq


# ---------------------------------------------------------------------------
# scalar products


@_names_pair
def sp_direct(pair: PairContext, alpha: complex):
    """Scalar product as the ratio of dressed generalized Vandermonde dets."""
    params, p, q = pair.params, pair.p, pair.q
    den = p.x_eta * q.x_eta
    vanishing = np.abs(den) < 1e-13
    if vanishing.any():
        at = first_index(vanishing)
        raise SingularEvaluationError(f"(PQ)(xi - eta) vanishes at xi = {params.xi[at[-1]]}",
                                      at=at)
    return _dressed_vandermonde(params.node_rows, -alpha * (p.x * q.x) / den)


def _require_roots_off_nodes(params: ModelParams, roots):
    """Refuse roots (on the last axis of ``roots``) that collide with an
    inhomogeneity shift set {xi_k, xi_k - eta} modulo i*pi."""
    roots = np.asarray(roots, dtype=np.complex128)
    near = (dist_mod_ipi(roots[..., None], params.forbidden_points()) < 1e-8).any(axis=-1)
    if near.any():
        at = first_index(near)
        raise SingularEvaluationError(
            f"root {complex(roots[at])} collides with an inhomogeneity shift set", at=at)


@_names_pair
def sp_izergin(pair: PairContext, alpha: complex):
    """Scalar product as a weighted Izergin determinant with columns labelled
    by the roots of P."""
    params, p, q = pair.params, pair.p, pair.q
    _require_roots_off_nodes(params, pair.pr)
    f_vals = -alpha * f_tilde_values(p.x_eta_ipi, q.x, p.x_ipi, q.x_eta)
    return det_lu(_izergin_matrix(pair.izergin_kernels, f_vals)) / pair.izergin_det


def cond_pq_residual(pair: PairContext):
    """Relative defect of the i*pi compatibility condition on (PQ) at the
    nodes, per pair."""
    p, q = pair.p, pair.q
    r1 = p.x_eta * q.x_eta / (p.x * q.x)
    r2 = p.x_eta_ipi * q.x_eta_ipi / (p.x_ipi * q.x_ipi)
    return (abs(r1 - r2) / np.maximum(abs(r1) + abs(r2), 1e-30)).max(axis=-1)


def _p_ipi_over_sinh(sinh_half: np.ndarray, cosh_half: np.ndarray) -> np.ndarray:
    """P(q_j + i*pi) / sinh(p_k - q_j) at (j, k), in product form, from the
    sinh and cosh of the half differences (p_k - q_j)/2 at (j, k).

    sinh((q_j + i*pi - p_l)/2) = i cosh((p_l - q_j)/2), so the ratio equals
    i^N prod_{l != k} cosh((p_l - q_j)/2) / (2 sinh((p_k - q_j)/2)), which
    stays finite when p_k approaches q_j + i*pi (the factor of P that
    vanishes is cancelled against the sinh in the denominator).
    """
    return 1j ** cosh_half.shape[-1] / 2 * products_except(cosh_half) / sinh_half


@_names_pair
def slavnov_halves(pair: PairContext) -> tuple[np.ndarray, np.ndarray]:
    """The alpha-free halves (base, rest) of ``slavnov_matrix``: everything
    in the root-labelled matrix that does not depend on alpha.  ``base`` is
    the coth Cauchy matrix; ``rest`` holds the Bethe-ratio kernel plus the
    cross term, or their same-roots limit.

    Rows follow Q-roots, columns P-roots.  Entries combine coth
    kernels with the Bethe ratio of Q and a cross term written in a
    collision-safe product form.  When P and Q carry identical root sets the
    diagonal entries take their analytic limits, which need the logarithmic
    derivatives of Q and a.
    """
    p, q, pr, qr, eta = pair.p, pair.q, pair.pr, pair.qr, pair.params.eta
    u = pr[..., None, :] - qr[..., :, None]  # p_k - q_j at (j, k)
    limit = dist_mod_2ipi(u) < _COLLISION_TOL
    distinct = limit & ~np.all(np.abs(pr - qr) < _COLLISION_TOL, axis=-1)[..., None, None]
    if distinct.any():
        at = first_index(distinct)
        raise SingularEvaluationError(
            f"coincident roots p_{at[-1] + 1} = q_{at[-2] + 1} for distinct functions", at=at)
    # one kernel call for both, as in _izergin_kernels
    (sinh_eta, sinh_u), (cosh_eta, cosh_u) = sinh_cosh(np.stack([(u - eta) / 2, u / 2]))
    sinh_u[limit] = 1.0  # sinh(u/2) vanishes at the limit entries, filled in below
    pole = sinh_eta == 0
    if pole.any():
        raise SingularEvaluationError("coth evaluated at a pole", at=first_index(pole))
    base, kern = cosh_eta / sinh_eta, cosh_u / sinh_u
    q_p_eta, q_p_eta_plus = pair.q_at_p
    afrak_p = a_frak_values(p.a_r, p.d_r, q_p_eta, q_p_eta_plus)
    ratio = q.r_eta_plus[..., :, None] * p.d_r[..., None, :] \
        / (q.a_r[..., :, None] * q_p_eta[..., None, :] * p.r_ipi[..., None, :])
    rest = afrak_p[..., None, :] * kern - 2 * ratio * _p_ipi_over_sinh(sinh_u, cosh_u)
    if limit.any():
        rest[limit] = _same_roots_limits(pair, limit)
    return base, rest


def _same_roots_limits(pair: PairContext, limit: np.ndarray):
    """The ``rest`` entries of ``slavnov_halves`` at the True entries of
    ``limit`` (p_k = q_j), in row-major order: 2 a_frak_Q(q_j) times
    (log Q)'(q_j + eta) + (log Q)'(q_j + i*pi) - (log a)'(q_j)."""
    params, q, n, eta = pair.params, pair.q, pair.params.n, pair.params.eta
    *pairs, j, _ = np.nonzero(limit)
    rows = limit.shape[:-1]

    def at_row(values):  # each entry's value at its q_j
        return np.broadcast_to(values, rows)[(*pairs, j)]

    roots = np.broadcast_to(pair.qr[..., None, :], rows + (n,))[(*pairs, j)]  # Q's roots
    qj = at_row(pair.qr)
    with _entries_of(pairs):
        log_sum = 0.5 * coth(((qj + eta)[:, None] - roots) / 2).sum(axis=-1) \
            + 0.5 * coth(((qj + IPI)[:, None] - roots) / 2).sum(axis=-1) \
            - params.a_log_deriv(qj)
        afrak_q = a_frak_values(at_row(q.a_r), at_row(q.d_r), at_row(q.r_eta),
                                at_row(q.r_eta_plus))
    return 2 * afrak_q * log_sum


def slavnov_matrix(base, rest, alpha: complex) -> np.ndarray:
    """Root-labelled scalar-product matrix base + alpha * rest, from the two
    halves in ``PairContext.halves`` (rows follow Q-roots, columns P-roots)."""
    return base + alpha * rest


def coth_cauchy_closed_form(params: ModelParams, pr, qr) -> complex:
    """Closed form of det[coth((p_k - q_j - eta)/2)] for the roots ``pr`` of
    P and ``qr`` of Q: a hyperbolic Cauchy determinant with a cosh of the
    root-sum mismatch."""
    pr = np.asarray(pr, dtype=np.complex128)
    qr = np.asarray(qr, dtype=np.complex128)
    n = params.n
    # prod_{i<j} sinh((p_i - p_j)/2) sinh((q_j - q_i)/2); root sums in order
    num = sinh_cosh((sum(pr) - sum(qr) - n * params.eta) / 2)[1] \
        * vandermonde(pr[::-1] / 2) * vandermonde(qr / 2)
    den = sinh_prod(np.ravel((pr[:, None] - qr[None, :] - params.eta) / 2))
    return complex(num / den)


@_names_pair
def sp_slavnov(pair: PairContext, alpha: complex):
    """Scalar product as the root-labelled determinant ratio.

    Only valid when the i*pi compatibility condition on (PQ) holds at the
    inhomogeneities; the residual is checked up front.
    """
    res = cond_pq_residual(pair)
    violated = ~(res <= _COND_TOL)
    if violated.any():
        at = first_index(violated)
        raise ParameterError(
            f"compatibility condition violated (residual {res[at]:.3e}); "
            "the root-labelled representation does not apply", at=at)
    return det_lu(slavnov_matrix(*pair.halves, alpha)) / pair.cauchy_det


def tau_matrix(dq, dp, alpha: complex) -> np.ndarray:
    """Eigenvalue-labelled matrix dq - alpha * dp, from the two halves in
    ``PairContext.tau_dq`` (rows at the z-points, columns at P-roots)."""
    return dq - alpha * dp


@_names_pair
def sp_tau(pair: PairContext, alpha: complex):
    """Scalar product written through the eigenvalue functions, at
    alpha = kappa'/kappa as the other representations take it.

    Returns (izergin_form, slavnov_form); the rows of the second form sit at
    the context's ``z``, which may be any N points pairwise apart modulo
    i*pi and away from the tau_hat poles.
    """
    tp, _ = pair.tau_values
    # det[tau_Q(xi_i)/sinh(xi_i - p_k) - alpha tau_P(xi_i)/sinh(xi_i - p_k - eta)]
    # over det[tau_Q(xi_i)/sinh(xi_i - p_k)]: the row factors tau_Q(xi_i) cancel
    num = _izergin_matrix(pair.izergin_kernels, alpha * tp / _nonvanishing_tau_q(pair))
    num_det, mat_det = det_lu(np.stack(np.broadcast_arrays(
        num, tau_matrix(*pair.tau_dq, alpha))))
    return num_det / pair.izergin_det, pair.tau_prefactor * mat_det


# ---------------------------------------------------------------------------
# form factors


def _tau_prod_ratios(pair: PairContext, sites, shift: int) -> np.ndarray:
    """prod_{k <= s - shift} tau_P(xi_k) / prod_{k <= s} tau_Q(xi_k) for each
    site s (1-based) in ``sites``, on the last axis, from the values at the
    nodes."""
    for site in sites:
        if not 1 <= site <= pair.params.n:
            raise ParameterError(f"site {site} outside 1..{pair.params.n}")
    _nonvanishing_tau_q(pair, max(sites, default=0))
    tp_prod, tq_prod = pair.tau_node_products
    s = np.asarray(sites, dtype=int)
    return tp_prod[..., s - shift] / tq_prod[..., s]


def _bordered(mat, col, row, corner):
    """det [[mat, col], [row, corner]] = corner det(mat) - row adj(mat) col
    (the rank-one lemma of Kitanine, Maillet and Terras) of each matrix of a
    broadcast stack, from one ``det_lu`` call: det(mat - col row^T) at corner
    1, and det(mat - col row^T) - det(mat) at corner 0, with no subtraction
    and no inverse of ``mat``."""
    n = mat.shape[-1]
    lead = np.broadcast_shapes(mat.shape[:-2], np.shape(col)[:-1], np.shape(row)[:-1])
    big = np.empty(lead + (n + 1, n + 1), dtype=np.complex128)
    big[..., :n, :n], big[..., :n, n], big[..., n, :n], big[..., n, n] = mat, col, row, corner
    return det_lu(big)


def _bordered_sites(mat, pref, u, v, ratios, at, corner):
    """One form of a form factor, as a (P, Q, site) array: pref * ratios *
    det [[mat, u_s], [v^T, corner]] (``_bordered``) at each site s, u_s
    being the rows ``at`` (the 0-based sites) of ``u``."""
    det = _bordered(mat[..., None, :, :], u[..., at, :], v, corner)
    return np.expand_dims(pref, -1) * ratios * det


def _rank1_sigma_z(pair: PairContext) -> tuple[np.ndarray, np.ndarray]:
    """The roots-form sigma^z rank-one terms u_s v^T of every site s: u_s,
    stacked on the second-to-last axis, is
    r0 coth((xi_s - q_j - eta)/2) + r1 coth((xi_s + i*pi - q_j - eta)/2)
    at row j, with r0, r1 = Q/P at xi_s - eta and its i*pi shift; v is
    P(p_k - eta)/Q(p_k - eta) at column k."""
    p, q = pair.p, pair.q
    coth_x, tanh_x = pair.node_kernels
    u = (q.x_eta / p.x_eta)[..., :, None] * coth_x \
        + (q.x_eta_ipi / p.x_eta_ipi)[..., :, None] * tanh_x
    return u, (p.r_eta / pair.q_at_p[0])[..., None, :]


def _rank1_sigma_minus(pair: PairContext) -> tuple[np.ndarray, np.ndarray]:
    """The roots-form spin-flip rank-one terms u_s v^T of every site s, as
    ``_rank1_sigma_z`` gives them."""
    params, p, q = pair.params, pair.p, pair.q
    coth_x, tanh_x = pair.node_kernels
    u = ((q.x_eta / p.x)[..., :, None] * coth_x
         - (q.x_eta_ipi / p.x_ipi)[..., :, None] * tanh_x) \
        * (np.exp(-np.asarray(params.xi)) * params.a_xi)[:, None]
    v = p.exp_r * p.d_r / ((-2j) ** params.n * pair.q_at_p[0] * p.r_ipi)
    return u, v[..., None, :]


def _tau_rank1(pair: PairContext, site_factor: np.ndarray, col) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalue-form rank-one terms u_s v^T of every site s, as
    ``_rank1_sigma_z`` gives them: u_s = -site_factor_s tau_Q(xi_s) /
    sinh(z_i - xi_s) at row i, v = ``col``."""
    u = -(site_factor * pair.tau_values[1])[..., None, :] / pair.z_xi_sinh
    return np.swapaxes(u, -1, -2), col[..., None, :]


@_names_pair
def ff_sigma_z(pair: PairContext, sites):
    """sigma^z form factors between same-twist eigenstates, one per site
    (1-based) in ``sites``, as a (form, P, Q, site) array: the root-labelled
    form first, then the eigenvalue-labelled one.  Each site's value is
    det(M - u_s v^T) = det [[M, u_s], [v^T, 1]] (``_bordered_sites``), with
    M the root-labelled S(1) or the eigenvalue-labelled matrix at 1."""
    params, p = pair.params, pair.p
    ratios = _tau_prod_ratios(pair, sites, 0)
    at = np.asarray(sites, dtype=int) - 1
    roots = _bordered_sites(slavnov_matrix(*pair.halves, 1.0), -1 / pair.cauchy_det,
                            *_rank1_sigma_z(pair), ratios, at, 1)
    tau = _bordered_sites(tau_matrix(*pair.tau_dq, 1.0), -pair.tau_prefactor,
                          *_tau_rank1(pair, np.exp(np.asarray(params.xi)) / (p.x_eta * p.x_ipi),
                                      p.r_eta * p.r_ipi / p.d_r), ratios, at, 1)
    return np.stack([roots, tau])


@_names_pair
def ff_sigma_pm(pair: PairContext, sites):
    """Spin-flip form factors between eigenstates of the twist
    ``params.kappa``, one per site (1-based) in ``sites``, as a
    (form, P, Q, site) array: the root-labelled form first, then the
    eigenvalue-labelled one.

    Evaluates the single determinant representation; it reproduces the matrix
    element of the lowering entry E^{21} (spin up at ``site`` flipped down) in
    the convention where C annihilates the all-up reference state.  Each
    site's value is det(M - u_s v^T) - det(M) = det [[M, u_s], [v^T, 0]]
    (``_bordered_sites``, no subtraction), with M the root-labelled
    S(e^{-eta}) or the eigenvalue-labelled matrix at e^{-eta}.
    """
    params, p = pair.params, pair.p
    ratios = _tau_prod_ratios(pair, sites, 1)
    alpha = cmath.exp(-params.eta)
    pref = params.kappa * np.exp(-(pair.pr.sum(axis=-1) - sum(params.xi)))
    at = np.asarray(sites, dtype=int) - 1
    roots = _bordered_sites(slavnov_matrix(*pair.halves, alpha), pref / pair.cauchy_det,
                            *_rank1_sigma_minus(pair), ratios, at, 0)
    tau = _bordered_sites(tau_matrix(*pair.tau_dq, alpha), pref * pair.tau_prefactor,
                          *_tau_rank1(pair, params.a_xi / p.sinh_x, p.exp_r), ratios, at, 0)
    return np.stack([roots, tau])


# ---------------------------------------------------------------------------
# identity test bench


def x_contraction_check(params: ModelParams, pr, qr, beta: complex) -> float:
    """Entrywise defect of the kernel-matrix contraction against its three-term
    closed form (the residue evaluation used to relabel rows by Q-roots), for
    the roots ``pr`` of P and ``qr`` of Q."""
    eta = params.eta
    xi = np.asarray(params.xi, dtype=np.complex128)
    pr = np.asarray(pr, dtype=np.complex128)
    qr = np.asarray(qr, dtype=np.complex128)
    p_x, p_x_ipi, p_x_eta_ipi = half_period_values(pr, xi + np.array([[0], [IPI], [IPI - eta]]))
    q_x, q_x_eta, q_x_eta_ipi = half_period_values(qr, xi + np.array([[0], [-eta], [IPI - eta]]))
    ft = f_tilde_values(p_x_eta_ipi, q_x, p_x_ipi, q_x_eta)
    v = xi[None, :] - qr[:, None] - eta  # xi_b - q_a - eta at (a, b)
    xmat = (q_x_eta * p_x_ipi * coth(v / 2)
            - q_x_eta_ipi * p_x * coth((v + IPI) / 2)) / node_denominators(xi)
    w = xi[:, None] - pr[None, :]  # xi_b - p_k at (b, k)
    mmat = 1 / sinh(w) + beta * ft[:, None] / sinh(w - eta)
    direct = xmat @ mmat
    u = pr[None, :] - qr[:, None]  # p_k - q_j at (j, k)
    a_q, a_p, d_p = params.a_fn(qr), params.a_fn(pr), params.d_fn(pr)
    p_ipi = half_period_values(pr, pr + IPI)
    sinh_half, cosh_half = sinh_cosh(u / 2)
    if (abs(sinh_half) < 1e-13).any():
        raise SingularEvaluationError("coincident roots p_k = q_j")
    closed = (2 * beta * half_period_values(qr, qr + eta) / a_q)[:, None] \
        * _p_ipi_over_sinh(sinh_half, cosh_half) \
        - half_period_values(qr, pr - eta) * p_ipi / d_p * coth((u - eta) / 2) \
        - beta * half_period_values(qr, pr + eta) * p_ipi / a_p * cosh_half / sinh_half
    scale = np.maximum(np.maximum(np.abs(direct), np.abs(closed)), 1e-30)
    return float(np.max(np.abs(direct - closed) / scale))


def half_period_split_check(pair: PairContext, alpha: complex):
    """Deviations of the two double-period intermediate determinant forms from
    the weighted Izergin value, plus the entrywise defect between the two
    printed variants of the Q-labelled kernel, on a 1 x 1 grid."""
    params, p, q = pair.params, *(t.take(0) for t in pair.tables)
    n, eta = params.n, params.eta
    xi = np.asarray(params.xi, dtype=np.complex128)
    pr, qr = p.roots, q.roots
    ref = sp_izergin(pair, alpha)[0, 0]
    # f_tilde at xi and at xi + i*pi, where P(lam + 2 i pi) = (-1)^N P(lam) cancels
    ft = f_tilde_values(p.x_eta_ipi, q.x, p.x_ipi, q.x_eta)
    ft_ipi = f_tilde_values(p.x_eta, q.x_ipi, p.x, q.x_eta_ipi)
    fac1 = 1j * (p.x * q.x_ipi) / (p.x_ipi * q.x)
    fac2 = 1j * (p.x * q.x_eta_ipi) / (p.x_ipi * q.x_eta)
    em = cmath.exp(-eta / 2)
    w = xi[:, None] - pr[None, :]  # xi_i - p_k at (i, k)
    den = 1 / sinh(w)
    m1 = (1 / sinh(w / 2) - 1j / sinh((w + IPI) / 2)
          + alpha * em * (ft[:, None] / sinh((w - eta) / 2)
                          - 1j * ft_ipi[:, None] / sinh((w - eta + IPI) / 2)))
    v = xi[:, None] - qr[None, :]  # xi_i - q_k at (i, k)

    def core(shift):
        return 1 / sinh((v + shift) / 2) - alpha * em / sinh((v - eta + shift) / 2)

    m2a = core(0) - fac1[:, None] * core(IPI)
    m2b = core(0) + fac2[:, None] * core(IPI)
    den_det, m1_det, m2a_det = det_lu([den, m1, m2a]).tolist()
    pref = cmath.exp(sum(params.xi[i] - pr[i] for i in range(n)) / 2) / 2**n
    val_p = pref * m1_det / den_det
    pref_q = pref * np.prod(q.x / p.x) * vandermonde(pr / 2) / vandermonde(qr / 2)
    val_q = pref_q * m2a_det / den_det
    scale = max(abs(ref), 1e-30)
    kernel_dev = float(np.max(np.abs(m2a - m2b)) / max(np.max(np.abs(m2a)), 1e-30))
    return abs(val_p - ref) / scale, abs(val_q - ref) / scale, kernel_dev


def extension_limit_check(params: ModelParams, f, f_inf: complex) -> float:
    """Finite-argument check of the determinant-size extension rule:
    appending one node at x_large multiplies the functional by
    (1 - f_inf e^{-L eta}) after an e^eta reweighting of f, with L the
    original number of nodes.  ``f`` takes an array of points."""
    xs = list(params.xi)
    x_large = 30.0
    f_vals = f(np.array(xs + [x_large], dtype=np.complex128)).tolist()
    big = a_functional(xs + [x_large], f_vals, params.eta)
    small = _dressed_vandermonde(params.node_rows, [cmath.exp(params.eta) * v for v in f_vals[:-1]])
    target = (1 - f_inf * cmath.exp(-len(xs) * params.eta)) * small
    return abs(big - target) / max(abs(big), abs(target), 1e-30)


def identity_bench(params: ModelParams, table: QTable, seed: int) -> dict:
    """Numerical residuals for the determinant identities behind the scalar
    product transformations, on the first two records of the certified
    ``table``.  Returns a name -> residual map; everything is a relative
    deviation."""
    rng = np.random.default_rng(seed)
    n = params.n
    out: dict[str, float] = {}

    # reduction of the dressed-Vandermonde functional to the weighted Izergin form
    xs = params.xi
    zero = abs(_dressed_vandermonde(params.node_rows, [0.0] * n) - 1.0)
    zs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    out["functional_reduction_zero"] = float(zero + abs(
        izergin_ratio(xs, zs, [0.0] * n, params.eta) - 1.0))
    worst = 0.0
    for _ in range(3):
        f_vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        zs = []
        while len(zs) < n:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if dist_mod_2ipi(z, xs).min() > params.delta_min \
                    and all(abs(z - w) > params.delta_min for w in zs):
                zs.append(z)
        lhs = _dressed_vandermonde(params.node_rows, f_vals)
        weights = e_weight(zs, params.eta, xs).tolist()
        rhs = izergin_ratio(xs, zs, [f * w for f, w in zip(f_vals, weights)], params.eta)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    out["functional_reduction"] = float(worst)

    pr, qr = table.roots[:2]
    beta = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    out["kernel_contraction"] = float(x_contraction_check(params, pr, qr, beta))
    synth = canonical_roots([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])
    out["kernel_contraction_shifted"] = float(
        x_contraction_check(params, canonical_roots(synth + IPI), synth, beta))

    alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    pair = PairContext(params, table.take([0]), table.take([1]))
    slav = sp_slavnov(pair, alpha)[0, 0]
    ize = sp_izergin(pair, alpha)[0, 0]
    out["root_relabel"] = float(abs(slav - ize) / max(abs(ize), 1e-30))
    dev_p, dev_q, kernel_dev = half_period_split_check(pair, alpha)
    out["half_period_split_p"] = float(dev_p)
    out["half_period_split_q"] = float(dev_q)
    out["half_period_kernel_forms"] = float(kernel_dev)

    denom_closed = coth_cauchy_closed_form(params, pr, qr)
    denom_det = pair.cauchy_det[0, 0]
    out["cauchy_closed_form"] = float(
        abs(denom_closed - denom_det) / max(abs(denom_det), 1e-30))

    f_const = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    out["extension_limit_const"] = float(
        extension_limit_check(params, lambda u: np.full(np.shape(u), f_const), f_const))
    zw = [complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)) for _ in range(2)]
    out["extension_limit_rational"] = float(extension_limit_check(
        params, lambda u: e_weight(zw, params.eta, u), cmath.exp(-2 * params.eta)))
    return out
