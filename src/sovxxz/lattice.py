"""Exact operator realization on the 2^N spin space.

Builds the trigonometric R-matrix, the monodromy blocks A, B, C, D by
sequential contraction over the two-dimensional auxiliary space, the twisted
transfer matrix kappa^{-1} B + kappa C, the brute-force spectrum oracle and
the transfer-matrix dressing that reconstructs local operators.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    DimensionError,
    InversionError,
    ParameterError,
    ParityError,
    refuse,
)
from .linalg import MAX_SITES
from .model import ModelParams

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)   # |up><down|
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |down><up|

# the oracle's and the reference's gates: no two eigenvalues closer than
# GAP_FACTOR times the spectral radius, and each eigenpair's residual within
# EIGENPAIR_TOL times the norms of the matrix and the vector
GAP_FACTOR = 1e-6
EIGENPAIR_TOL = 1e-9


def r_matrix(lam: complex, eta: complex) -> np.ndarray:
    """4x4 trigonometric R-matrix on (auxiliary) x (site)."""
    sl = cmath.sinh(lam)
    se = cmath.sinh(eta)
    sle = cmath.sinh(lam + eta)
    return np.array(
        [[sle, 0, 0, 0],
         [0, sl, se, 0],
         [0, se, sl, 0],
         [0, 0, 0, sle]],
        dtype=np.complex128,
    )


def twist_matrix(kappa: complex) -> np.ndarray:
    """K = diag(kappa, 1/kappa) . sigma^x."""
    if kappa == 0:
        raise ParameterError("twist must be nonzero")
    return np.array([[0, kappa], [1 / kappa, 0]], dtype=np.complex128)


def local_op(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a 2x2 operator at ``site`` (1-based) in the chain of n sites:
    (1 x op) x 1, broadcast over (left, spin, right) row and column axes.
    These are the products two ``np.kron`` calls form, so every bit of their
    result is kept, the signs of its zeros included, without their per-call
    overhead."""
    if not 1 <= site <= n:
        raise DimensionError(f"site {site} outside 1..{n}")
    left = np.eye(2**(site - 1), dtype=np.complex128)
    right = np.eye(2**(n - site), dtype=np.complex128)
    out = (left[:, None, None, :, None, None] * np.asarray(op)[None, :, None, None, :, None]) \
        * right[None, None, :, None, None, :]
    return out.reshape(2**n, 2**n)


def elementary_matrix(i: int, j: int) -> np.ndarray:
    """E^{ij} with a single 1 in row i, column j (1-based, basis up/down)."""
    e = np.zeros((2, 2), dtype=np.complex128)
    e[i - 1, j - 1] = 1.0
    return e


def reference_state(n: int) -> np.ndarray:
    """All-spins-up vector."""
    v = np.zeros(2**n, dtype=np.complex128)
    v[0] = 1.0
    return v


@dataclass(eq=False, repr=False)
class FlipBlocks:
    """The B and C blocks of the monodromy at one point, which flip one spin
    each: all that the SoV basis, its ket and bra recursion, the spectrum
    oracle and the twisted transfer matrix read."""

    b: np.ndarray
    c: np.ndarray

    def transfer(self, kappa: complex) -> np.ndarray:
        """Twisted transfer matrix kappa^{-1} B + kappa C at these blocks' point."""
        if kappa == 0:
            raise ParameterError("twist must be nonzero")
        return self.b / kappa + kappa * self.c


@dataclass(eq=False, repr=False)
class MonodromyBlocks(FlipBlocks):
    """All four blocks of the monodromy at one point."""

    a: np.ndarray
    d: np.ndarray

    def flips(self) -> FlipBlocks:
        """B and C alone, shared rather than copied."""
        return FlipBlocks(b=self.b, c=self.c)


def monodromy_entries(params: ModelParams, lam: complex) -> MonodromyBlocks:
    """Quantum-space blocks of T_0(lam) = R_{0N}(lam - xi_N) ... R_{01}(lam - xi_1).

    The product is accumulated over sites with the auxiliary 2x2 structure kept
    explicit, so only 2^n x 2^n blocks are ever materialized.
    """
    n = params.n
    if n > MAX_SITES:
        raise DimensionError(f"chain length {n} exceeds dense cap {MAX_SITES}")
    # t[i, k] acts on sites 1..m after m contraction steps
    t = np.eye(2, dtype=np.complex128).reshape(2, 2, 1, 1)
    for m in range(1, n + 1):
        r = r_matrix(lam - params.xi[m - 1], params.eta)
        sle, sl, se = r[0, 0], r[1, 1], r[1, 2]
        # aux-space product (R . T); site m joins as the innermost tensor factor:
        # t'[i, k, (a, c), (b, d)] = sum_l t[l, k, a, b] r[2i + c, 2l + d].  R has
        # six nonzero entries, so each block of t' is one scaled block of t (or
        # zero); the products round like np.kron's.
        dim = t.shape[2]
        new = np.zeros((2, 2, dim, 2, dim, 2), dtype=np.complex128)
        new[0, :, :, 0, :, 0] = t[0] * sle
        new[0, :, :, 1, :, 0] = t[1] * se
        new[0, :, :, 1, :, 1] = t[0] * sl
        new[1, :, :, 0, :, 0] = t[1] * sl
        new[1, :, :, 0, :, 1] = t[0] * se
        new[1, :, :, 1, :, 1] = t[1] * sle
        t = new.reshape(2, 2, 2 * dim, 2 * dim)
    # separate copies, so that a caller keeping one block does not keep all four
    return MonodromyBlocks(a=t[0, 0].copy(), b=t[0, 1].copy(), c=t[1, 0].copy(),
                           d=t[1, 1].copy())


def transfer_k(params: ModelParams, lam: complex) -> np.ndarray:
    """Twisted transfer matrix kappa^{-1} B(lam) + kappa C(lam) at the twist
    ``params.kappa``."""
    return monodromy_entries(params, lam).transfer(params.kappa)


def _require_gaps(vals: np.ndarray) -> None:
    """Refuse a spectrum ``vals`` with two eigenvalues closer than
    ``GAP_FACTOR`` times its spectral radius."""
    radius = float(np.max(np.abs(vals)))
    gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(len(vals)) * (10 * radius)
    if gaps.min() < GAP_FACTOR * radius:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {gaps.min():.3e} below {GAP_FACTOR:.1e} * radius; re-seed parameters"
        )


def parity_blocks(at_xi: list[FlipBlocks], kappa: complex) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y): the (len(at_xi), 2^{N-1}, 2^{N-1}) stacks of the blocks
    X_j = T_K(xi_j)[even, odd] and Y_j = T_K(xi_j)[odd, even] of the twisted
    transfer matrices at the points of ``at_xi``, rows and columns grouped by
    the S^z parity of the basis state (the number of down spins, mod 2), each
    block combined from the same blocks of B and C, so no full transfer
    matrix is formed.

    B and C flip one spin each, so T_K maps each parity sector to the other
    and its same-parity blocks vanish; a B or C with a nonzero entry there is
    refused by name.
    """
    if kappa == 0:
        raise ParameterError("twist must be nonzero")
    n = len(at_xi[0].b).bit_length() - 1
    half = 2**(n - 1)
    # the even states, then the odd ones, each in increasing order
    order = np.argsort(np.bitwise_count(np.arange(2**n)) & 1, kind="stable")
    x, y = [], []
    for j, t in enumerate(at_xi, start=1):
        # one reordered copy of each block, read as four views, takes less
        # time at N = 8 than four np.ix_ slices of it
        b, c = (m.take(order, axis=0).take(order, axis=1) for m in (t.b, t.c))
        for name, m in (("B", b), ("C", c)):
            if m[:half, :half].any() or m[half:, half:].any():
                raise ParityError(f"{name}(xi_{j}) has a nonzero entry between states of "
                                  "equal S^z parity")
        x.append(b[:half, half:] / kappa + kappa * c[:half, half:])
        y.append(b[half:, :half] / kappa + kappa * c[half:, :half])
    return np.stack(x), np.stack(y)


def spectrum_oracle(params: ModelParams,
                    at_xi: list[FlipBlocks]) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force eigenpairs of the transfer matrix at the chain's twist
    ``params.kappa``, as ``(taus, vectors)``: ``taus`` is the read-only (2^N, len(at_xi)) array
    whose row r holds tau(xi_1..xi_M) of eigenvalue r, the rows sorted by
    tau(xi_1); ``at_xi`` holds the monodromy blocks at the first M nodes
    xi_1..xi_M.  With all N of them, each eigenvalue is closed to tau(lam) by
    interpolation through ``ModelParams.node_basis``.  ``vectors`` is the
    read-only (2^N, 2^N) array whose row r is the eigenvector of row r, in
    the natural basis of the spin space.

    T_K(xi_1) maps each S^z-parity sector to the other (``parity_blocks``),
    so its eigenpairs come from one eigensolve of X_1 Y_1 on the even sector:
    each eigenpair (mu, u) of it gives the two eigenvalues tau = +-sqrt(mu) of
    T_K(xi_1), with eigenvectors (u, +-w), w = Y_1 u / sqrt(mu).  Each pair
    must satisfy ||(X_1 w - tau u, Y_1 u - tau w)|| <= EIGENPAIR_TOL * ||T|| * ||v||
    on the full matrix, and no two of the 2^N eigenvalues may lie closer than
    ``GAP_FACTOR`` times the spectral radius.  Rayleigh quotients against
    T_K(xi_j), formed from its blocks, read off tau(xi_j) for every
    eigenvector (the family commutes, so each vector is a joint eigenvector);
    those of (u, -w) are the negated ones of (u, w), so the spectrum is
    closed under negation by construction.
    """
    x, y = parity_blocks(at_xi, params.kappa)
    try:
        mu, u = np.linalg.eig(x[0] @ y[0])
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    root = np.sqrt(mu)
    # before the division by root: a zero root is a degenerate pair +-0
    _require_gaps(np.concatenate([root, -root]))
    yu = y @ u  # column c of yu[j]: Y_j u_c
    w = yu[0] / root
    xw = x @ w
    norm = np.linalg.norm
    resid = np.hypot(norm(xw[0] - root * u, axis=0), norm(yu[0] - root * w, axis=0))
    v_norm = np.hypot(norm(u, axis=0), norm(w, axis=0))
    bad = resid > EIGENPAIR_TOL * max(np.hypot(norm(x[0]), norm(y[0])), 1.0) * v_norm
    refuse(bad, ConvergenceError,
           lambda at: f"eigenpair +-sqrt(mu_{at[0]}) residual {resid[at]:.3e} exceeds "
                      f"{EIGENPAIR_TOL:.1e} * ||T|| * ||v||")
    # (u^H X_j w + w^H Y_j u) / (u^H u + w^H w) of every vector and node
    plus = ((u.conj() * xw).sum(axis=1) + (w.conj() * yu).sum(axis=1)) / v_norm**2
    tau_xi = np.concatenate([plus, -plus], axis=1).T
    order = np.lexsort((tau_xi[:, 0].imag, tau_xi[:, 0].real))
    # (u, w) in the natural basis, then (u, -w): the odd entries negated
    odd = np.bitwise_count(np.arange(2 * len(u))) & 1
    plus_vecs = np.empty((len(u), 2 * len(u)), dtype=np.complex128)
    plus_vecs[:, odd == 0], plus_vecs[:, odd == 1] = u.T, w.T
    vectors = np.concatenate([plus_vecs, plus_vecs * np.where(odd, -1.0, 1.0)])[order]
    taus = tau_xi[order]
    taus.flags.writeable = vectors.flags.writeable = False
    return taus, vectors


def transfer_eigenvalues(t: FlipBlocks, kappa: complex, witnesses: np.ndarray,
                         witness_tau: np.ndarray, witness_kappa: complex) -> np.ndarray:
    """Eigenvalues of the full twisted transfer matrix M = T_kappa at the
    point of ``t``, sorted by (real, imag), from one ``np.linalg.eigvals``
    and under the oracle's degeneracy guard: a reference that shares no step
    with ``spectrum_oracle`` and is not closed under negation by construction.

    Each eigenvalue lam_k is gated by
    ||M z - lam_k z|| <= EIGENPAIR_TOL * max(||M||_F, 1) * ||z||, on a
    witness z taken from outside the solve: the row of ``witnesses``
    (eigenvectors of the transfer matrix at ``witness_kappa`` at the same
    point, such as the oracle's, one row per entry of their eigenvalues
    ``witness_tau``) whose eigenvalue is nearest lam_k, mapped to twist ``kappa`` by the twist
    similarity D = diag(c^{popcount(s)}), c = witness_kappa / kappa: B and C
    each move the number of down spins by one, so T_kappa = D T_witness D^{-1}
    exactly.  The first eigenvalue over the gate is named by its index.

    The gate is not independent of the witnesses' eigenvalues: where M and
    the oracle agree, z is an eigenvector of M with eigenvalue tau_j, and the
    residual reads |lam_k - tau_j| ||z||.  A disagreement over the gate is
    refused here, before any tolerance of the caller's is read; only one
    under it, or one that keeps the eigenvectors (a scaled M), reaches them.
    """
    m = t.transfer(kappa)
    try:
        vals = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    vals = vals[np.lexsort((vals.imag, vals.real))]
    _require_gaps(vals)
    nearest = np.argmin(np.abs(vals[:, None] - witness_tau[None, :]), axis=1)
    z = witnesses[nearest] * (witness_kappa / kappa) ** np.bitwise_count(np.arange(len(m)))
    resid = np.linalg.norm(z @ m.T - vals[:, None] * z, axis=1)
    bad = resid > EIGENPAIR_TOL * max(np.linalg.norm(m), 1.0) * np.linalg.norm(z, axis=1)
    refuse(bad, ConvergenceError,
           lambda at: f"eigenpair {at[0]} residual {resid[at]:.3e} exceeds "
                      f"{EIGENPAIR_TOL:.1e} * ||M|| * ||v||")
    return vals


def _twisted(t: MonodromyBlocks, kappa: complex, row: int, col: int) -> np.ndarray:
    """Entry (row, col), 1-based, of K T = [[kappa C, kappa D], [A/kappa, B/kappa]]."""
    if row == 1:
        return kappa * (t.c if col == 1 else t.d)
    return (t.a if col == 1 else t.b) / kappa


class NodeFactors:
    """What ``dress_local_operator`` combines, for the sites 1..len(``at_xi``)
    whose monodromy blocks ``at_xi`` holds, built once: those blocks,
    shared rather than copied (``at_xi``), the monodromy at xi_m - eta
    (``shift``), the quantum determinant q_m = a(xi_m) d(xi_m - eta)
    (``qdet``), the prefix products P_s = T_K(xi_1) ... T_K(xi_s),
    s = 0..len(``at_xi``) (``prefix``, P_0 the identity), and their inverses
    (``prefix_inv``).

    No matrix is inverted numerically.  At a node the fusion identity
    T_K(xi_m) T_K(xi_m - eta) = -q_m 1 holds as a matrix identity, so
    T_K(xi_m)^{-1} = T_K(xi_m - eta) / (-q_m), and
    P_s^{-1} = (T_K(xi_s - eta) / (-q_s)) P_{s-1}^{-1}: one product per
    site.  A factor is refused as numerically singular, by node, where
    |q_m| < 1e-12 ||T_K(xi_m)||_F ||T_K(xi_m - eta)||_F; the right side over
    |q_m| bounds cond_2 T_K(xi_m) from above, so every factor whose
    condition number exceeds 1e12 is refused.  At N = 8, seed 3,
    kappa = 0.8 - 0.3i, this takes about 60 ms where one SVD per factor and
    one ``np.linalg.inv`` per prefix product took about 165 ms, and the
    ``validate`` inverse-problem residual stays within 0.9-1.1 times
    theirs over seeds 1-8.
    """

    def __init__(self, params: ModelParams, at_xi: list[MonodromyBlocks]):
        self.kappa = params.kappa
        self.at_xi = at_xi
        xi = np.asarray(params.xi[:len(at_xi)])
        self.qdet = params.a_fn(xi) * params.d_fn(xi - params.eta)
        self.shift = [monodromy_entries(params, x - params.eta) for x in xi]
        self.prefix = [np.eye(2**params.n, dtype=np.complex128)]
        self.prefix_inv = [self.prefix[0]]
        for m, (t, s, q) in enumerate(zip(at_xi, self.shift, self.qdet), start=1):
            f, f_shift = t.transfer(self.kappa), s.transfer(self.kappa)
            bound = 1e-12 * np.linalg.norm(f) * np.linalg.norm(f_shift)
            if not abs(q) >= bound:  # a NaN is refused too
                raise InversionError(
                    f"transfer-matrix factor T_K(xi_{m}) is numerically singular: "
                    f"|a(xi_{m}) d(xi_{m} - eta)| = {abs(q):.3e} is below "
                    f"1e-12 * ||T_K(xi_{m})|| * ||T_K(xi_{m} - eta)|| = {bound:.3e}")
            self.prefix.append(self.prefix[-1] @ f)
            self.prefix_inv.append((f_shift / -q) @ self.prefix_inv[-1])


def dress_local_operator(nodes: NodeFactors, site: int, i: int,
                         j: int) -> tuple[np.ndarray, np.ndarray]:
    """Local elementary matrix E_site^{ij} rebuilt from dressed monodromy
    entries in its two variants, (variant 1, variant 2), each as
    (left . core) . right^{-1}, two products with the inverse ``nodes`` holds
    (one at site 1, where P_0, the identity, is left out).

    Variant 1 uses the core [K T(xi_site)]_{ji} between left = P_{site-1} and
    right = P_site; variant 2 uses the quantum-determinant inverse with
    [K T(xi_site - eta)]_{3-i,3-j} between left = P_site and
    right = P_{site-1}, P_s being the prefix products of ``nodes``.  Each
    reproduces the direct Kronecker embedding up to rounding; callers
    compare them with it at their own tolerance.
    """
    prefix, prefix_inv = nodes.prefix, nodes.prefix_inv
    if not 1 <= site < len(prefix):
        raise DimensionError(f"site {site} outside 1..{len(prefix) - 1}")
    if i not in (1, 2) or j not in (1, 2):
        raise DimensionError("operator indices must be 1 or 2")
    k = site - 1
    # at site 1, P_0 is the identity: variant 1's left, variant 2's right
    core = _twisted(nodes.at_xi[k], nodes.kappa, j, i)
    first = core @ prefix_inv[1] if site == 1 else (prefix[k] @ core) @ prefix_inv[site]
    core = -((-1.0) ** (i + j)) * _twisted(nodes.shift[k], nodes.kappa, 3 - i, 3 - j) \
        / nodes.qdet[k]
    second = prefix[1] @ core if site == 1 else (prefix[site] @ core) @ prefix_inv[k]
    return first, second
