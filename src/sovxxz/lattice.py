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

from .errors import DegenerateSpectrumError, DimensionError, InversionError, ParameterError
from .linalg import eig_dense
from .model import ModelParams

MAX_SITES = 8

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)   # |up><down|
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |down><up|


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
    """Embed a 2x2 operator at ``site`` (1-based) in the chain of n sites."""
    if not 1 <= site <= n:
        raise DimensionError(f"site {site} outside 1..{n}")
    return np.kron(np.kron(np.eye(2**(site - 1), dtype=np.complex128), op),
                   np.eye(2**(n - site), dtype=np.complex128))


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


@dataclass(frozen=True)
class MonodromyBlocks:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def transfer(self, kappa: complex) -> np.ndarray:
        """Twisted transfer matrix kappa^{-1} B + kappa C at these blocks' point."""
        if kappa == 0:
            raise ParameterError("twist must be nonzero")
        return self.b / kappa + kappa * self.c


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
        # rl[l, i, c, d] = r[2i + c, 2l + d]: auxiliary indices i, l, site indices c, d
        rl = r.reshape(2, 2, 2, 2).transpose(2, 0, 1, 3)
        # aux-space product (R . T); site m joins as the innermost tensor factor:
        # t'[i, k, (a, c), (b, d)] = sum_l t[l, k, a, b] rl[l, i, c, d].  Broadcast
        # products round like np.kron; np.einsum rounds some entries differently.
        new = t[0, None, :, :, None, :, None] * rl[0, :, None, None, :, None, :]
        new += t[1, None, :, :, None, :, None] * rl[1, :, None, None, :, None, :]
        dim = 2 * t.shape[2]
        t = new.reshape(2, 2, dim, dim)
    # separate copies, so that a caller keeping one block does not keep all four
    return MonodromyBlocks(a=t[0, 0].copy(), b=t[0, 1].copy(), c=t[1, 0].copy(),
                           d=t[1, 1].copy())


def transfer_k(params: ModelParams, lam: complex, kappa: complex | None = None) -> np.ndarray:
    """Twisted transfer matrix kappa^{-1} B(lam) + kappa C(lam)."""
    return monodromy_entries(params, lam).transfer(params.kappa if kappa is None else kappa)


def spectrum_oracle(params: ModelParams, at_xi: list[MonodromyBlocks],
                    kappa: complex | None = None,
                    gap_factor: float = 1e-6) -> np.ndarray:
    """Brute-force eigenvalues of the twisted transfer matrix, as the
    read-only (2^N, len(at_xi)) array whose row r holds tau(xi_1..xi_M) of
    eigenvalue r, the rows sorted by tau(xi_1); ``at_xi`` holds the monodromy
    blocks at the first M nodes xi_1..xi_M.  With all N of them, each
    eigenvalue is closed to tau(lam) by interpolation through
    ``ModelParams.node_basis``.

    Diagonalizes T_K(xi_1) once and takes Rayleigh quotients against T_K(xi_j)
    to read off tau(xi_j) for every eigenvector (the family commutes, so each
    vector is a joint eigenvector).
    """
    k = params.kappa if kappa is None else kappa
    mats = [t.transfer(k) for t in at_xi]
    vals, vecs = eig_dense(mats[0])
    radius = float(np.max(np.abs(vals)))
    gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(len(vals)) * (10 * radius)
    if gaps.min() < gap_factor * radius:
        raise DegenerateSpectrumError(
            f"eigenvalue gap {gaps.min():.3e} below {gap_factor:.1e} * radius; re-seed parameters"
        )
    # row r of vecs is eigenvector r; (v^H M v) / (v^H v) of every vector and
    # node matrix M as one stacked product per matrix, each rounded as one
    # vector's alone
    vecs = np.ascontiguousarray(vecs.T)
    conj = vecs.conj()[:, None, :]
    nv = (conj @ vecs[:, :, None])[:, 0, 0]
    tau_xi = np.stack([(conj @ (m @ vecs[:, :, None]))[:, 0, 0] for m in mats], axis=1) \
        / nv[:, None]
    taus = tau_xi[np.lexsort((tau_xi[:, 0].imag, tau_xi[:, 0].real))]
    taus.flags.writeable = False
    return taus


def _twisted(t: MonodromyBlocks, kappa: complex, row: int, col: int) -> np.ndarray:
    """Entry (row, col), 1-based, of K T = [[kappa C, kappa D], [A/kappa, B/kappa]]."""
    if row == 1:
        return kappa * (t.c if col == 1 else t.d)
    return (t.a if col == 1 else t.b) / kappa


class NodeFactors:
    """What ``dress_local_operator`` combines, for the sites 1..len(``at_xi``)
    whose monodromy blocks ``at_xi`` holds, built once: those blocks,
    shared rather than copied (``at_xi``), the monodromy at xi_m - eta
    (``shift``), the quantum determinant a(xi_m) d(xi_m - eta) (``qdet``) and
    the prefix products P_s = T_K(xi_1) ... T_K(xi_s), s = 0..len(``at_xi``)
    (``prefix``, P_0 the identity), each factor T_K(xi_m) checked once with
    one SVD to be invertible, and their inverses P_s^{-1} (``prefix_inv``),
    each inverted whole, which at N = 8 rounds closer than the product
    T_s^{-1} P_{s-1}^{-1} of the factors' inverses.
    """

    def __init__(self, params: ModelParams, at_xi: list[MonodromyBlocks]):
        self.kappa = params.kappa
        self.at_xi = at_xi
        xi = np.asarray(params.xi[:len(at_xi)])
        self.qdet = params.a_fn(xi) * params.d_fn(xi - params.eta)
        self.shift = [monodromy_entries(params, x - params.eta) for x in xi]
        self.prefix = [np.eye(2**params.n, dtype=np.complex128)]
        for t in at_xi:
            f = t.transfer(self.kappa)
            svals = np.linalg.svd(f, compute_uv=False)  # descending: [0] is the 2-norm
            if svals[-1] < 1e-12 * svals[0]:
                raise InversionError("transfer-matrix factor is numerically singular")
            self.prefix.append(self.prefix[-1] @ f)
        self.prefix_inv = [self.prefix[0]] + [np.linalg.inv(p) for p in self.prefix[1:]]


def dress_local_operator(nodes: NodeFactors, site: int, i: int, j: int,
                         variant: int = 1) -> np.ndarray:
    """Local elementary matrix E_site^{ij} rebuilt from dressed monodromy entries,
    as (left . core) . right^{-1}, two products with the inverse ``nodes`` holds.

    variant=1 uses the core [K T(xi_site)]_{ji} between left = P_{site-1} and
    right = P_site; variant=2 uses the quantum-determinant inverse with
    [K T(xi_site - eta)]_{3-i,3-j} between left = P_site and
    right = P_{site-1}, P_s being the prefix products of ``nodes``.  The
    result reproduces the direct Kronecker embedding up to rounding; callers
    compare the two at their own tolerance.
    """
    prefix, prefix_inv = nodes.prefix, nodes.prefix_inv
    if not 1 <= site < len(prefix):
        raise DimensionError(f"site {site} outside 1..{len(prefix) - 1}")
    if i not in (1, 2) or j not in (1, 2):
        raise DimensionError("operator indices must be 1 or 2")
    if variant == 1:
        core = _twisted(nodes.at_xi[site - 1], nodes.kappa, j, i)
        left, right_inv = prefix[site - 1], prefix_inv[site]
    elif variant == 2:
        core = -((-1.0) ** (i + j)) * _twisted(nodes.shift[site - 1], nodes.kappa, 3 - i, 3 - j) \
            / nodes.qdet[site - 1]
        left, right_inv = prefix[site], prefix_inv[site - 1]
    else:
        raise ParameterError("variant must be 1 or 2")
    return (left @ core) @ right_inv
