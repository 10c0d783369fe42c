"""Dense complex linear-algebra kernels: determinants, polynomial roots and
eigendecompositions.

Everything works on plain ``numpy`` arrays in complex double precision; the
heavy factorizations are delegated to LAPACK through numpy (LU with partial
pivoting for determinants, Hessenberg + shifted QR for eigenpairs).
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionError

MAX_SITES = 8  # the dense cap, for every module: chains up to N = 8 sites
MAX_EIG_DIM = 2**MAX_SITES
# roots_monic refuses a root whose residual exceeds this times 1 + max|c_k|
ROOT_RESIDUAL_TOL = 1e-10


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


def roots_monic(coeffs) -> np.ndarray:
    """All roots of W^N + c_{N-1} W^{N-1} + ... + c_0 for each row
    (c_0, ..., c_{N-1}) of the (..., N) array ``coeffs``, as (..., N) roots,
    from one stacked eigensolve of the companion matrices.

    Each polynomial's roots are sorted by (real, imag).  Each root is checked
    to have residual |p(w)| < ROOT_RESIDUAL_TOL * (1 + max|c_k|); a larger
    residual raises, naming the first offending polynomial of a stack
    (``at``).
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    n = c.shape[-1]
    if n == 0:
        return np.zeros(c.shape, dtype=np.complex128)
    comp = np.zeros(c.shape[:-1] + (n, n), dtype=np.complex128)
    comp[..., 1:, :-1] = np.eye(n - 1)
    comp[..., -1] = -c
    w = np.linalg.eigvals(comp)
    roots = np.take_along_axis(w, np.lexsort((w.imag, w.real), axis=-1), axis=-1)
    value = np.ones_like(roots)  # Horner from the leading coefficient 1
    for k in range(n - 1, -1, -1):
        value = value * roots + c[..., k, None]
    worst = np.abs(value).max(axis=-1)
    scale = 1.0 + np.abs(c).max(axis=-1)
    bad = worst > ROOT_RESIDUAL_TOL * scale
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise ConvergenceError(
            f"polynomial root residual {worst[at]:.3e} exceeds {ROOT_RESIDUAL_TOL:.1e} * "
            f"{scale[at]:.3e}",
            at=at)
    return roots


def modulus(z) -> np.ndarray:
    """|z| elementwise, rounded as ``abs`` of each complex scalar rounds it
    (``np.abs`` of a complex array takes a path that can differ in the last
    bit)."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def row_norms(x) -> np.ndarray:
    """The 2-norm of each row (last axis) of ``x``, each rounded as
    ``np.linalg.norm`` rounds that row alone: sqrt(re . re + im . im), every
    dot product of the stack in one product call."""
    x = np.asarray(x)
    re, im = x.real[..., None, :], x.imag[..., None, :]
    return np.sqrt((re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0])


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
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(n)]
    vecs /= pivot / modulus(pivot) * row_norms(vecs.T)
    resid = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    bad = resid > tol * max(np.linalg.norm(a), 1.0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ConvergenceError(
            f"eigenpair {k} residual {resid[k]:.3e} exceeds {tol:.1e} * ||M||"
        )
    return vals, vecs
