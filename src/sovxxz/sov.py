"""SoV basis vectors and separate states on the 2^N spin space.

The basis kets are generated from the all-up reference state by B-operators
evaluated at the inhomogeneities, the bras by C-operators acting on the
left; D is diagonal on both.  Separate states are linear combinations whose
coefficients factorize over sites as [x P(xi_n)/P(xi_n - eta)]^{1-h_n} times
a ratio of hyperbolic Vandermonde factors.

Bras are stored as plain coefficient vectors paired with kets through the
bilinear (transpose, no conjugation) pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import SingularEvaluationError, names_record, refuse
from .lattice import MonodromyBlocks, monodromy_entries, reference_state
from .model import ModelParams, QTable, dist_mod_2ipi, vandermonde


# A normalized state divides by P(xi_k - eta): a root of P closer than this to
# xi_k - eta is refused as a true zero.  It is the bound refine_bethe keeps
# between two Bethe roots; xi separation (delta_min) plays no part here.
SHIFTED_NODE_GUARD = 1e-6


def all_h(n: int):
    """All SoV labels h in {0,1}^n, in binary order."""
    return [tuple(bits) for bits in product((0, 1), repeat=n)]


class SovBasis:
    """All 2^N SoV basis kets and bras of one chain, in the binary order of
    their labels h (``all_h``), with the B and C blocks of the monodromy at
    xi_1..xi_N they are built from (``at_xi``, one ``FlipBlocks`` per node).
    ``kets`` and ``bras`` are (2^N, 2^N) arrays whose row i is the vector of
    label i; ``labels`` is the (2^N, N) boolean mask whose row i is h.

    Nothing the basis serves reads A or D, so each node's monodromy is built
    and cut to B and C before the next is built.  A caller that reads A and D
    at the nodes as well builds the monodromies itself and passes them as
    ``at_xi``; the basis then shares their B and C rather than copying them.
    """

    def __init__(self, params: ModelParams, at_xi: list[MonodromyBlocks] | None = None):
        self.params = params
        n = params.n
        if at_xi is None:
            # each full monodromy is a temporary, freed once flips() returns
            self.at_xi = [monodromy_entries(params, x).flips() for x in params.xi]
        else:
            self.at_xi = [t.flips() for t in at_xi]
        xi = np.asarray(params.xi)
        d_shift_vals = params.d_fn(xi - params.eta)
        self.labels = np.array(all_h(n), dtype=bool)
        # V(xi^(h)) for every label h, in binary order; v_h[0] = V(xi)
        self.v_h = vandermonde(xi - self.labels * params.eta)
        self.kets = np.empty((2**n, 2**n), dtype=np.complex128)
        self.bras = np.empty((2**n, 2**n), dtype=np.complex128)
        self.kets[0] = reference_state(n)
        self.bras[0] = reference_state(n) / self.v_h[0]
        for a in range(n - 1, -1, -1):
            # the labels whose first set bit is h_a, rows [lo, 2 lo), each
            # built from its parent label with that bit cleared, row idx - lo;
            # one stacked product that rounds each row as ``matrix @ row``
            lo = 2**(n - 1 - a)
            self.kets[lo:2 * lo] = -(self.at_xi[a].b @ self.kets[:lo, :, None])[..., 0] \
                / params.a_xi[a]
            self.bras[lo:2 * lo] = (self.at_xi[a].c.T @ self.bras[:lo, :, None])[..., 0] \
                / d_shift_vals[a]


@dataclass
class SovState:
    """Separate states, one row per record of the table they were built from:
    (R, 2^N) coefficients over the SoV basis and their (R, 2^N) embedding."""

    coefficients: np.ndarray
    embedded: np.ndarray


@names_record
def separate_state(basis: SovBasis, table: QTable, kappa: complex,
                   side: str, normalized: bool = True) -> SovState:
    """Build the separate state on ``basis`` labelled by the polynomial P of
    each record of ``table`` (a ``model.q_table``) with twist kappa, every
    record's state in one product.  The paper's sign label eps enters only as
    eps kappa, so the eps = -1 state is the state at -kappa.

    Normalized states carry site factors [kappa^{+-1} P(xi_n)/P(xi_n-eta)]^{1-h_n}
    and refuse a root of P within ``SHIFTED_NODE_GUARD`` of some xi_n - eta,
    naming the lowest such record; unnormalized states use the raw
    P(xi_n^{(h_n)}) values instead.
    """
    if side not in ("bra", "ket"):
        raise ValueError(f"side must be 'ket' or 'bra', got {side!r}")
    params = basis.params
    # (record, label, site)
    x, x_eta = table.x[:, None, :], table.x_eta[:, None, :]
    # the ket's Vandermonde factor is V(xi^(h')) of the complement label h'
    v_shift = basis.v_h[::-1] if side == "ket" else basis.v_h
    if normalized:
        # distance from xi_k - eta to the nearest root of P, per record and site k
        dist = dist_mod_2ipi(table.roots[:, :, None],
                             np.asarray(params.xi) - params.eta).min(axis=1)
        refuse((dist < SHIFTED_NODE_GUARD).any(axis=1), SingularEvaluationError,
               lambda at: f"P has a root {dist[at].min():.3e} from "
                          f"xi_{dist[at].argmin() + 1} - eta, within {SHIFTED_NODE_GUARD:g}; "
                          "build the unnormalized state instead")
        base = kappa if side == "ket" else 1 / kappa
        site = np.where(basis.labels, 1.0, base * (x / x_eta))
        v_part = v_shift / basis.v_h[0] if side == "ket" else v_shift
    else:
        flip = kappa if side == "bra" else 1 / kappa
        site = np.where(basis.labels, x_eta * flip, x)
        v_part = v_shift
    coeffs = site.prod(axis=-1) * v_part
    # one stacked product that rounds each row as ``row @ vectors`` alone
    vectors = basis.kets if side == "ket" else basis.bras
    return SovState(coefficients=coeffs, embedded=(coeffs[:, None] @ vectors)[:, 0])


def matrix_element(bra: SovState, op: np.ndarray, ket: SovState) -> np.ndarray:
    """Bilinear matrix element <bra| op |ket> on the spin space of every bra
    state with every ket state: entry (i, j) for bra i and ket j."""
    return bra.embedded @ (op @ ket.embedded.T)
