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

from .errors import SingularEvaluationError
from .lattice import monodromy_entries, reference_state
from .model import ModelParams, QTable, dist_mod_2ipi, vandermonde


def all_h(n: int):
    """All SoV labels h in {0,1}^n, in binary order."""
    return [tuple(bits) for bits in product((0, 1), repeat=n)]


def h_to_index(h: tuple[int, ...]) -> int:
    idx = 0
    for bit in h:
        idx = (idx << 1) | bit
    return idx


def xi_shifted(params: ModelParams, h) -> list[complex]:
    """The shifted nodes xi_n - h_n * eta."""
    return [params.xi[m] - h[m] * params.eta for m in range(params.n)]


class SovBasis:
    """All 2^N SoV basis kets and bras of one chain, in ``h_to_index`` order,
    with the monodromy blocks at xi_1..xi_N they are built from (``at_xi``).
    ``kets`` and ``bras`` are (2^N, 2^N) arrays whose row i is the vector of
    label i; ``labels`` is the (2^N, N) boolean mask whose row i is h."""

    def __init__(self, params: ModelParams):
        self.params = params
        n = params.n
        self.at_xi = [monodromy_entries(params, x) for x in params.xi]
        xi = np.asarray(params.xi)
        d_shift_vals = params.d_fn(xi - params.eta)
        self.labels = np.array(all_h(n), dtype=bool)
        # V(xi^(h)) for every label h, in h_to_index order; v_h[0] = V(xi)
        self.v_h = vandermonde(xi - self.labels * params.eta)
        self.kets = np.empty((2**n, 2**n), dtype=np.complex128)
        self.bras = np.empty((2**n, 2**n), dtype=np.complex128)
        self.kets[0] = reference_state(n)
        self.bras[0] = reference_state(n) / self.v_h[0]
        for idx in range(1, 2**n):
            # the parent label clears h's first set bit h_a, the highest bit of idx
            a = n - idx.bit_length()
            parent = idx ^ (1 << (n - 1 - a))
            self.kets[idx] = -(self.at_xi[a].b @ self.kets[parent]) / params.a_xi[a]
            self.bras[idx] = (self.at_xi[a].c.T @ self.bras[parent]) / d_shift_vals[a]

    def ket(self, h) -> np.ndarray:
        return self.kets[h_to_index(tuple(h))]

    def bra(self, h) -> np.ndarray:
        return self.bras[h_to_index(tuple(h))]

    def measure(self, h) -> complex:
        """<h|h> = 1 / V(xi^(h))."""
        return 1.0 / self.v_h[h_to_index(tuple(h))]


@dataclass
class SovState:
    """A separate state: coefficients over the SoV basis plus its embedding."""

    side: str
    coefficients: np.ndarray
    embedded: np.ndarray

    def norm2(self) -> float:
        return float(np.linalg.norm(self.embedded))


def separate_state(basis: SovBasis, table: QTable, kappa: complex,
                   eps: int, side: str, normalized: bool = True) -> SovState:
    """Build a separate state on ``basis`` labelled by the polynomial P of
    ``table`` (its ``model.q_table``) with twist/sign (kappa, eps).

    Normalized states carry site factors [eps kappa^{+-1} P(xi_n)/P(xi_n-eta)]^{1-h_n}
    and require P(xi_n - eta) away from zero; unnormalized states use the raw
    P(xi_n^{(h_n)}) values instead.
    """
    if side not in ("bra", "ket"):
        raise ValueError(f"side must be 'ket' or 'bra', got {side!r}")
    params = basis.params
    x, x_eta = table.x, table.x_eta
    # the ket's Vandermonde factor is V(xi^(h')) of the complement label h'
    v_shift = basis.v_h[::-1] if side == "ket" else basis.v_h
    if normalized:
        near = dist_mod_2ipi(np.array(table.roots)[:, None],
                             np.asarray(params.xi) - params.eta) < params.delta_min
        if near.any():
            raise SingularEvaluationError(
                f"P has a root within delta_min of xi_{np.argmax(near.any(axis=0)) + 1} - eta; "
                "build the unnormalized state instead"
            )
        base = eps * kappa if side == "ket" else eps / kappa
        site = np.where(basis.labels, 1.0, base * (x / x_eta))
        v_part = v_shift / basis.v_h[0] if side == "ket" else v_shift
    else:
        flip = (eps * kappa) if side == "bra" else 1.0 / (eps * kappa)
        site = np.where(basis.labels, x_eta * flip, x)
        v_part = v_shift
    coeffs = site.prod(axis=1) * v_part
    return SovState(side=side, coefficients=coeffs,
                    embedded=coeffs @ (basis.kets if side == "ket" else basis.bras))


def separate_ket_qdet_form(basis: SovBasis, table: QTable,
                           kappa: complex, eps: int) -> SovState:
    """Unnormalized ket in the equivalent form that trades the Vandermonde flip
    for explicit a/d ratios: coefficients
    prod_n [(-eps kappa)^{-h_n} (a(xi_n)/d(xi_n-eta))^{h_n} P(xi_n^{(h_n)})] V(xi^{(h)}).
    """
    params = basis.params
    ratio = params.a_xi / params.d_fn(np.asarray(params.xi) - params.eta)
    site = np.where(basis.labels, table.x_eta * ratio / (-eps * kappa), table.x)
    coeffs = site.prod(axis=1) * basis.v_h
    return SovState(side="ket", coefficients=coeffs, embedded=coeffs @ basis.kets)


def overlap(bra: SovState, ket: SovState) -> complex:
    """Bilinear pairing of a bra state with a ket state."""
    if bra.side != "bra" or ket.side != "ket":
        raise ValueError("overlap expects (bra, ket)")
    return complex(bra.embedded @ ket.embedded)


def matrix_element(bra: SovState, op: np.ndarray, ket: SovState) -> complex:
    """Bilinear matrix element <bra| op |ket> on the spin space."""
    return complex(bra.embedded @ (op @ ket.embedded))
