"""Dense complex linear-algebra kernels: determinants, polynomial roots and
row norms, on plain ``numpy`` arrays in complex double precision.  LAPACK does
the factorizations through numpy: LU with partial pivoting for determinants,
one stacked eigensolve of companion matrices for roots.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, DimensionError, refuse

MAX_SITES = 8  # the dense cap, for every module: chains up to N = 8 sites
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
    refuse(worst > ROOT_RESIDUAL_TOL * scale, ConvergenceError,
           lambda at: f"polynomial root residual {worst[at]:.3e} exceeds "
                      f"{ROOT_RESIDUAL_TOL:.1e} * {scale[at]:.3e}")
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
