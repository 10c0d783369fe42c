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
from .model import InterpolationBasis, ModelParams, TrigInterpolation

MAX_SITES = 8

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=np.complex128)   # |up><down|
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=np.complex128)  # |down><up|
ID2 = np.eye(2, dtype=np.complex128)


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
    out = np.eye(1, dtype=np.complex128)
    for m in range(1, n + 1):
        out = np.kron(out, op if m == site else ID2)
    return out


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
                    gap_factor: float = 1e-6) -> list[TrigInterpolation]:
    """Brute-force eigenvalues of the twisted transfer matrix, each as the
    interpolation of its tau(xi_k); ``at_xi`` holds the monodromy blocks at
    xi_1..xi_N.

    Diagonalizes T_K(xi_1) once, takes Rayleigh quotients against T_K(xi_j) to
    read off tau(xi_j) for every eigenvector (the family commutes, so each
    vector is a joint eigenvector), then closes tau(lam) by quasi-periodic
    interpolation through one shared basis.
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
    basis = InterpolationBasis(params.xi)
    order = np.lexsort((tau_xi[:, 0].imag, tau_xi[:, 0].real))
    return [TrigInterpolation(basis, tau_xi[i]) for i in order]


class NodeFactors:
    """The node matrices that ``dress_local_operator`` combines, for the sites
    1..len(``at_xi``) whose monodromy blocks ``at_xi`` holds, built once: the
    blocks [[kappa C, kappa D], [A/kappa, B/kappa]] of K T(xi_m) and
    K T(xi_m - eta) (``twisted``, ``twisted_shift``), the
    quantum determinant a(xi_m) d(xi_m - eta) (``qdet``) and the transfer
    matrix T_K(xi_m) (``transfer``), each checked once to be invertible.
    """

    def __init__(self, params: ModelParams, at_xi: list[MonodromyBlocks]):
        k = params.kappa
        xi = np.asarray(params.xi[:len(at_xi)])
        self.qdet = params.a_fn(xi) * params.d_fn(xi - params.eta)
        self.twisted, self.twisted_shift, self.transfer = [], [], []
        for xs, t in zip(params.xi, at_xi):
            ts = monodromy_entries(params, xs - params.eta)
            self.twisted.append([[k * t.c, k * t.d], [t.a / k, t.b / k]])
            self.twisted_shift.append([[k * ts.c, k * ts.d], [ts.a / k, ts.b / k]])
            f = t.transfer(k)
            svals = np.linalg.svd(f, compute_uv=False)  # descending: [0] is the 2-norm
            if svals[-1] < 1e-12 * svals[0]:
                raise InversionError("transfer-matrix factor is numerically singular")
            self.transfer.append(f)


def dress_local_operator(nodes: NodeFactors, site: int, i: int, j: int,
                         variant: int = 1) -> np.ndarray:
    """Local elementary matrix E_site^{ij} rebuilt from dressed monodromy entries.

    variant=1 uses [K T(xi_site)]_{ji} sandwiched between transfer matrices at
    xi_1..xi_{site-1} and the inverses at xi_1..xi_site; variant=2 uses the
    quantum-determinant inverse with [K T(xi_site - eta)]_{3-i,3-j}.  The
    result reproduces the direct Kronecker embedding up to rounding; callers
    compare the two at their own tolerance.
    """
    transfer = nodes.transfer
    if not 1 <= site <= len(transfer):
        raise DimensionError(f"site {site} outside 1..{len(transfer)}")
    if i not in (1, 2) or j not in (1, 2):
        raise DimensionError("operator indices must be 1 or 2")
    if variant == 1:
        core = nodes.twisted[site - 1][j - 1][i - 1]
        left = transfer[: site - 1]
        right = transfer[:site]
    elif variant == 2:
        core = -((-1.0) ** (i + j)) * nodes.twisted_shift[site - 1][2 - i][2 - j] \
            / nodes.qdet[site - 1]
        left = transfer[:site]
        right = transfer[: site - 1]
    else:
        raise ParameterError("variant must be 1 or 2")
    out = np.eye(len(core), dtype=np.complex128)
    for f in left:
        out = out @ f
    out = out @ core
    # out . (prod right)^{-1}, one solve per factor from the right
    for f in reversed(right):
        out = np.linalg.solve(f.T, out.T).T
    return out
