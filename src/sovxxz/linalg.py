"""Dense complex linear-algebra kernels: determinants, polynomial roots and
eigendecompositions.

Everything works on plain ``numpy`` arrays in complex double precision; the
heavy factorizations are delegated to LAPACK through numpy (LU with partial
pivoting for determinants, Hessenberg + shifted QR for eigenpairs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError

MAX_EIG_DIM = 2**8  # dense cap: chains up to N = 8 sites


def as_square_stack(m) -> np.ndarray:
    """Validate and return ``m`` as a complex array of square matrices with
    finite entries: one (n, n) matrix, or a (..., n, n) stack of them."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DimensionError("matrix entries must be finite")
    return a


def as_square_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex matrix with finite entries."""
    a = as_square_stack(m)
    if a.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def det_lu(m) -> complex | np.ndarray:
    """Determinant of a square complex matrix (LU with partial pivoting); for
    a (..., n, n) stack, the (...) array of its determinants from one LAPACK
    call, each equal to the determinant of that matrix alone."""
    a = as_square_stack(m)
    dets = np.linalg.det(a)
    return complex(dets) if a.ndim == 2 else dets


def sort_complex(values) -> np.ndarray:
    """Sort complex values lexicographically by (real, imag) for reproducibility."""
    v = np.asarray(values, dtype=np.complex128)
    order = np.lexsort((v.imag, v.real))
    return v[order]


@dataclass(frozen=True)
class MonicPoly:
    """Monic polynomial W^N + c_{N-1} W^{N-1} + ... + c_0.

    ``coeffs`` holds (c_0, ..., c_{N-1}); the leading coefficient is fixed to 1.
    """

    coeffs: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def __call__(self, w: complex) -> complex:
        acc = 1.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * w + c
        return complex(acc)

    @staticmethod
    def from_roots(roots) -> "MonicPoly":
        coeffs = np.array([1.0 + 0.0j])
        for r in roots:
            coeffs = np.convolve(coeffs, np.array([1.0, -complex(r)]))
        # np.convolve gives descending powers with leading 1
        return MonicPoly(tuple(complex(c) for c in coeffs[1:][::-1]))


def roots_monic(poly: MonicPoly, tol: float = 1e-10) -> np.ndarray:
    """All roots of a monic polynomial via its companion matrix.

    Roots are returned sorted by (real, imag).  Each root is checked to have
    residual |p(w)| < tol * (1 + max|c_k|); a larger residual raises.
    """
    n = poly.degree
    if n == 0:
        return np.zeros(0, dtype=np.complex128)
    comp = np.zeros((n, n), dtype=np.complex128)
    comp[1:, :-1] = np.eye(n - 1)
    comp[:, -1] = [-c for c in poly.coeffs]
    roots = sort_complex(np.linalg.eigvals(comp))
    scale = 1.0 + max(abs(c) for c in poly.coeffs)
    worst = max(abs(poly(w)) for w in roots)
    if worst > tol * scale:
        raise ConvergenceError(
            f"polynomial root residual {worst:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    return roots


def eig_dense(m, tol: float = 1e-9, max_dim: int = MAX_EIG_DIM):
    """Full eigendecomposition of a general complex matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvectors in columns,
    pairs sorted by (real, imag) of the eigenvalue.  Each eigenvector is
    normalized to unit length with its largest-magnitude component rotated to
    the positive real axis, which makes the output reproducible.

    Each pair must satisfy ||M v - lam v|| <= tol * ||M|| * ||v||; the first
    offending index is reported otherwise.
    """
    a = as_square_matrix(m)
    n = a.shape[0]
    if n > max_dim:
        raise DimensionError(f"matrix dimension {n} exceeds dense cap {max_dim}")
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(n):
        v = vecs[:, k]
        pivot = int(np.argmax(np.abs(v)))
        phase = v[pivot] / abs(v[pivot])
        vecs[:, k] = v / (phase * np.linalg.norm(v))
    norm_a = np.linalg.norm(a)
    for k in range(n):
        resid = np.linalg.norm(a @ vecs[:, k] - vals[k] * vecs[:, k])
        if resid > tol * max(norm_a, 1.0):
            raise ConvergenceError(
                f"eigenpair {k} residual {resid:.3e} exceeds {tol:.1e} * ||M||"
            )
    return vals, vecs
