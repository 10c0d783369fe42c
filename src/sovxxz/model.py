"""Model parameters and the trigonometric function layer.

Holds the chain data (length, anisotropy, inhomogeneities, twists), the
half-period polynomials Q(lam) = prod_j sinh((lam - q_j)/2) used to label
separate states and the table of their one-polynomial values, the model
functions a(lam), d(lam), the scalar ratio functions consumed by every
determinant formula, and the structural diagnostics (quantum Wronskian, root
sum rule) of a Q-function.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError, SingularEvaluationError
from .linalg import sort_complex

PI = np.pi
IPI = 1j * np.pi

DELTA_MIN_DEFAULT = 0.05
ETA_COMMENSURATE_TOL = 0.01


def wrap_to_strip(z: complex) -> complex:
    """Shift z by a multiple of 2*pi*i so that Im(z) lies in (-pi, pi]."""
    z = complex(z)
    im = z.imag
    k = np.floor((PI - im) / (2 * PI))
    return complex(z.real, im + 2 * PI * k)


def _dist_mod(z, w, period: float):
    # scalars keep Python's complex abs: numpy's rounds the last bit
    # differently for about a third of arguments and costs ~13x per call
    if isinstance(z, np.ndarray) or isinstance(w, np.ndarray):
        u = np.subtract(z, w)
        return np.abs(u - 1j * period * np.rint(u.imag / period))
    u = complex(z) - complex(w)
    return abs(u - 1j * period * round(u.imag / period))


def dist_mod_ipi(z, w=0.0):
    """Distance between z and w modulo i*pi shifts; elementwise on arrays."""
    return _dist_mod(z, w, PI)


def dist_mod_2ipi(z, w=0.0):
    """Distance between z and w modulo 2*pi*i shifts; elementwise on arrays."""
    return _dist_mod(z, w, 2 * PI)


def coth(z: complex) -> complex:
    s = cmath.sinh(z)
    if s == 0:
        raise SingularEvaluationError(f"coth evaluated at a pole (argument {z})")
    return cmath.cosh(z) / s


def sinh_prod(args) -> complex:
    """prod_m sinh(z_m) over the arguments, multiplied in their order."""
    out = 1.0 + 0.0j
    for z in args:
        out *= cmath.sinh(z)
    return out


def products_except(s: np.ndarray) -> np.ndarray:
    """out[..., m] = prod_{l != m} s[..., l] along the last axis, from prefix
    and suffix products, without division, so it stays exact at zeros."""
    # row 0: 1, s_0, ..., s_{M-2}; row 1: 1, s_{M-1}, ..., s_1; one running product
    ext = np.empty(s.shape[:-1] + (2, s.shape[-1]), dtype=s.dtype)
    ext[..., 0] = 1
    ext[..., 0, 1:] = s[..., :-1]
    ext[..., 1, 1:] = s[..., :0:-1]
    acc = ext.cumprod(axis=-1)
    return acc[..., 0, :] * acc[..., 1, ::-1]


def sinh_rows(points, shifts) -> np.ndarray:
    """sinh(lam_i - s_k) for every point lam_i (row) and shift s_k (column)."""
    return np.sinh(np.asarray(points, dtype=np.complex128)[:, None]
                   - np.asarray(shifts, dtype=np.complex128)[None, :])


def sinh_prod_deriv(args) -> complex:
    """sum_m cosh(z_m) prod_{k != m} sinh(z_k), the derivative of sinh_prod when
    every argument moves with unit speed; product rule, no division, so it
    stays finite at the zeros of the product."""
    zs = list(args)
    s = [cmath.sinh(z) for z in zs]
    out = 0.0 + 0.0j
    for m, z in enumerate(zs):
        term = cmath.cosh(z)
        for k, v in enumerate(s):
            if k != m:
                term *= v
        out += term
    return out


def point_key(lam: complex):
    """Dict key of the point lam: its complex value where neither component is
    zero, else its ``repr``, so that 0.0 and -0.0 (equal under ``==``, told
    apart by sinh) stay apart."""
    z = complex(lam)
    return z if z.real and z.imag else repr(z)


def vandermonde(xs) -> complex:
    """Hyperbolic Vandermonde product V(x_1..x_n) = prod_{i<j} sinh(x_j - x_i).

    Empty input and a single point both give 1 (empty product).
    """
    x = list(xs)
    return sinh_prod(x[j] - x[i] for i in range(len(x)) for j in range(i + 1, len(x)))


@dataclass(frozen=True)
class VandermondeRows:
    """The rows of V(x) = det[e^{(2j-M-1) x_i} / 2^{j-1}] before the 2^{j-1}
    scaling, at the M points x (``at_x``) and at x - eta (``at_x_eta``); V(x)
    itself (``v``); and the rows whose Re x_i lies more than 4 from the median
    (``wide``), along which a determinant built from them is expanded."""

    at_x: np.ndarray
    at_x_eta: np.ndarray
    wide: list[int]
    v: complex


def vandermonde_rows(xs, eta: complex) -> VandermondeRows:
    """The ``VandermondeRows`` of the points ``xs``."""
    x = np.asarray(xs, dtype=np.complex128)
    m = len(x)
    at_x = np.zeros((m, m), dtype=np.complex128)
    at_x_eta = np.zeros((m, m), dtype=np.complex128)
    for i in range(m):
        for j in range(1, m + 1):
            p = 2 * j - m - 1
            at_x[i, j - 1] = np.exp(p * x[i])
            at_x_eta[i, j - 1] = np.exp(p * (x[i] - eta))
    center = np.median(x.real)
    wide = [i for i in range(m) if abs(x[i].real - center) > 4.0]
    return VandermondeRows(at_x, at_x_eta, wide, vandermonde(x))


def eta_is_generic(eta: complex, tol: float = ETA_COMMENSURATE_TOL, max_den: int = 8) -> bool:
    """True if eta stays at least ``tol`` away from every i*pi*k/m with m <= max_den."""
    x, y = complex(eta).real, complex(eta).imag
    for m in range(1, max_den + 1):
        k = round(y * m / PI)
        if np.hypot(x, y - k * PI / m) < tol:
            return False
    return True


@dataclass(frozen=True)
class ModelParams:
    """Chain data: length N, anisotropy eta, inhomogeneities xi and the twist.

    ``kappa`` is the default twist of the spectrum; every other twist and
    sign label is passed explicitly to the function that uses it.
    """

    n: int
    eta: complex
    xi: tuple[complex, ...]
    kappa: complex = 1.0 + 0.0j
    delta_min: float = DELTA_MIN_DEFAULT

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError("chain length must be >= 1")
        if len(self.xi) != self.n:
            raise ParameterError(f"expected {self.n} inhomogeneities, got {len(self.xi)}")
        if self.kappa == 0:
            raise ParameterError("twists must be nonzero")
        if not eta_is_generic(self.eta):
            raise ParameterError(f"eta={self.eta} is too close to a rational multiple of i*pi")
        sep = self.min_xi_separation()
        if sep < self.delta_min:
            raise ParameterError(
                f"inhomogeneity shift sets are only {sep:.4f} apart mod i*pi "
                f"(need >= {self.delta_min})"
            )

    def min_xi_separation(self) -> float:
        """Smallest distance mod i*pi between the shift sets {xi_i, xi_i - eta}."""
        best = np.inf
        pts = [(i, s) for i in range(self.n) for s in (self.xi[i], self.xi[i] - self.eta)]
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                if pts[a][0] == pts[b][0]:
                    continue
                best = min(best, dist_mod_ipi(pts[a][1], pts[b][1]))
        return float(best) if self.n > 1 else np.inf

    def a_fn(self, lam: complex) -> complex:
        return sinh_prod(lam - x + self.eta for x in self.xi)

    def d_fn(self, lam: complex) -> complex:
        return sinh_prod(lam - x for x in self.xi)

    def a_log_deriv(self, lam: complex) -> complex:
        return sum(coth(lam - x + self.eta) for x in self.xi)

    def d_prime(self, lam: complex) -> complex:
        """Derivative of d; safe at the zeros of d."""
        return sinh_prod_deriv(lam - x for x in self.xi)

    def forbidden_points(self) -> list[complex]:
        """Representatives (mod i*pi) of the excluded sets {xi_i, xi_i - eta}."""
        return [s for x in self.xi for s in (x, x - self.eta)]

    @cached_property
    def a_xi(self) -> tuple[complex, ...]:
        """a(xi_k) at every node, built on first use."""
        return tuple(self.a_fn(x) for x in self.xi)

    @cached_property
    def node_rows(self) -> VandermondeRows:
        """``vandermonde_rows`` at the inhomogeneities, built on first use."""
        return vandermonde_rows(self.xi, self.eta)


@dataclass(frozen=True)
class HalfPeriodTrigPoly:
    """Product prod_j sinh((lam - q_j)/2), stored by its roots.

    The sinh half-argument doubles the period compared to a(lam), d(lam):
    eval(lam + 2*pi*i) = (-1)^N eval(lam).  Roots are normalized to the strip
    Im in (-pi, pi] and sorted; the overall sign lost by wrapping a root is
    irrelevant because every downstream formula uses ratios of values.
    """

    roots: tuple[complex, ...] = field(default_factory=tuple)

    @staticmethod
    def from_roots(roots) -> "HalfPeriodTrigPoly":
        wrapped = sort_complex([wrap_to_strip(r) for r in roots])
        return HalfPeriodTrigPoly(tuple(complex(r) for r in wrapped))

    def __call__(self, lam: complex) -> complex:
        return sinh_prod((lam - q) / 2 for q in self.roots)

    def values(self, points) -> np.ndarray:
        """The polynomial at every point of ``points``, as one row product."""
        return sinh_rows(np.asarray(points) / 2, np.asarray(self.roots) / 2).prod(axis=1)

    def log_deriv(self, lam: complex) -> complex:
        return sum(0.5 * coth((lam - q) / 2) for q in self.roots)

    def shifted_ipi(self) -> "HalfPeriodTrigPoly":
        """The companion polynomial with every root shifted by i*pi (re-wrapped)."""
        return HalfPeriodTrigPoly.from_roots([q + IPI for q in self.roots])


def a_frak(params: ModelParams, q_poly: HalfPeriodTrigPoly, u: complex) -> complex:
    """Bethe-equation ratio d(u) Q(u+eta) / (a(u) Q(u-eta))."""
    return a_frak_values(params.a_fn(u), params.d_fn(u), q_poly(u - params.eta),
                         q_poly(u + params.eta))


def a_frak_values(a_u: complex, d_u: complex, q_eta: complex, q_eta_plus: complex) -> complex:
    """``a_frak`` from a(u), d(u), Q(u-eta) and Q(u+eta)."""
    _require_nonzero(a_u, "a(u)")
    _require_nonzero(q_eta, "Q(u-eta)")
    return d_u * q_eta_plus / (a_u * q_eta)


def f_tilde(params: ModelParams, p_poly: HalfPeriodTrigPoly,
            q_poly: HalfPeriodTrigPoly, u: complex) -> complex:
    """Izergin weight P(u-eta+i*pi) Q(u) / (P(u+i*pi) Q(u-eta))."""
    return f_tilde_values(p_poly(u - params.eta + IPI), q_poly(u),
                          p_poly(u + IPI), q_poly(u - params.eta))


def f_tilde_values(p_eta_ipi: complex, q_u: complex, p_ipi: complex,
                   q_eta: complex) -> complex:
    """``f_tilde`` from P(u-eta+i*pi), Q(u), P(u+i*pi) and Q(u-eta)."""
    _require_nonzero(p_ipi, "P(u+i*pi)")
    _require_nonzero(q_eta, "Q(u-eta)")
    return p_eta_ipi * q_u / (p_ipi * q_eta)


def _require_nonzero(value: complex, name: str, floor: float = 1e-13):
    if abs(value) < floor:
        raise SingularEvaluationError(f"{name} = {value} is below the evaluation floor")


def residual_grid(params: ModelParams) -> list[tuple[complex, complex, complex]]:
    """4N+5 seeded sample points (lam, a(lam), d(lam)) for functional residuals,
    lam kept delta_min away from every zero of a, d and their i*pi translates.
    They depend on the chain only, so one grid serves every record of a spectrum."""
    count = 4 * params.n + 5
    rng = np.random.default_rng(20240)
    avoid = params.forbidden_points()
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.45 * PI, 0.45 * PI))
        if all(dist_mod_ipi(z, p) >= params.delta_min for p in avoid):
            pts.append(z)
    return [(lam, params.a_fn(lam), params.d_fn(lam))
            for lam in np.array(pts, dtype=np.complex128)]


@dataclass(frozen=True)
class QTable:
    """Every value of one Q-function that depends on it alone, built once by
    ``q_table``; the record residuals, separate states and pair formulas read
    them and evaluate none again.  Q at xi_k, xi_k - eta, xi_k + i*pi and
    xi_k - eta + i*pi: ``x``, ``x_eta``, ``x_ipi``, ``x_eta_ipi`` (row h in
    (0, 1) is Q(xi_k - h * eta)).  At the roots q_j: a, d, exp in ``a_r``,
    ``d_r``, ``exp_r``; Q(q_j - eta), Q(q_j + eta), Q(q_j + i*pi) in ``r_eta``,
    ``r_eta_plus``, ``r_ipi``.  prod_l sinh(xi_k - q_l) per node in
    ``sinh_x``.  ``hat`` is the i*pi-shifted partner.  An eigen record's table
    also holds its eigenvalue ``tau`` (whose ``values`` are tau(xi_k)) and,
    per residual-grid point lam, the row (Q(lam), Q(lam - eta), Q(lam + eta),
    Qhat(lam), Qhat(lam - eta)) in ``grid``.
    """

    poly: HalfPeriodTrigPoly
    roots: tuple[complex, ...]
    hat: HalfPeriodTrigPoly
    tau: TrigInterpolation | None
    x: tuple[complex, ...]
    x_eta: tuple[complex, ...]
    x_ipi: tuple[complex, ...]
    x_eta_ipi: tuple[complex, ...]
    a_r: tuple[complex, ...]
    d_r: tuple[complex, ...]
    exp_r: tuple[complex, ...]
    r_eta: tuple[complex, ...]
    r_eta_plus: tuple[complex, ...]
    r_ipi: tuple[complex, ...]
    sinh_x: tuple[complex, ...]
    grid: tuple[tuple[complex, ...], ...]


def q_table(params: ModelParams, poly: HalfPeriodTrigPoly, tau, grid) -> QTable:
    """The ``QTable`` of ``poly``; ``tau`` is the record's eigenvalue (None for
    a bare polynomial) and ``grid`` the ``residual_grid`` the record is
    certified on (empty for none)."""
    eta = params.eta
    hat = poly.shifted_ipi()
    xi = np.asarray(params.xi, dtype=np.complex128)
    r = np.asarray(poly.roots, dtype=np.complex128)
    lam = np.array([g[0] for g in grid], dtype=np.complex128)
    sizes = np.cumsum([len(xi)] * 4 + [len(r)] * 3 + [len(lam)] * 2)  # split points
    values = [tuple(v.tolist()) for v in np.split(poly.values(np.concatenate(
        [xi, xi - eta, xi + IPI, xi - eta + IPI, r - eta, r + eta, r + IPI,
         lam, lam - eta, lam + eta])), sizes)]
    hat0, hat_eta = np.split(hat.values(np.concatenate([lam, lam - eta])), 2)
    # a and d at the roots: the row products of sinh(q_j - xi_k + eta), sinh(q_j - xi_k)
    u = r[:, None] - xi[None, :]
    sinh_u = np.sinh(np.stack([u + eta, u]))
    a_r, d_r = np.prod(sinh_u, axis=2)
    return QTable(
        poly=poly, roots=poly.roots, hat=hat, tau=tau,
        x=values[0], x_eta=values[1], x_ipi=values[2], x_eta_ipi=values[3],
        a_r=tuple(a_r.tolist()), d_r=tuple(d_r.tolist()),
        exp_r=tuple(np.exp(r).tolist()),
        r_eta=values[4], r_eta_plus=values[5], r_ipi=values[6],
        sinh_x=tuple(np.prod(-sinh_u[1], axis=0).tolist()),
        grid=tuple(zip(*values[7:], hat0.tolist(), hat_eta.tolist())),
    )


@dataclass(frozen=True)
class QStructureReport:
    wronskian_residual: float
    wronskian_sign: int
    sum_rule_defect: float
    sum_rule_k: int


def q_structure_residuals(table: QTable, params: ModelParams, grid: list) -> QStructureReport:
    """Structural diagnostics of a candidate Q-function.

    Checks, on ``grid`` (the one ``table`` was built on), the quantum
    Wronskian pairing of Q with its i*pi-shift (sign reported, not assumed)
    and the root sum rule modulo i*k*pi.
    """
    signs = (1, -1)
    q0, q_eta, _, hat0, hat_eta = np.array(table.grid, dtype=np.complex128).reshape(-1, 5).T
    d = np.array([g[2] for g in grid], dtype=np.complex128)
    w = 0.5 * (q0 * hat_eta + hat0 * q_eta)
    # row s: the right-hand side at Wronskian sign signs[s], per grid point
    rhs = (np.array(signs)[:, None] * (0.5j) ** params.n) * d
    num = np.abs(w - rhs).max(axis=1, initial=0.0)
    scale = (np.abs(w) + np.abs(rhs)).max(axis=1, initial=0.0)
    rel = np.divide(num, scale, out=num.copy(), where=scale > 0)
    best = int(np.argmin(rel))  # the first sign on a tie
    w_res, w_sign = rel[best], signs[best]

    s = sum(table.roots) - sum(x - params.eta / 2 for x in params.xi)
    k = round(s.imag / PI)
    defect = abs(s - 1j * PI * k)

    return QStructureReport(
        wronskian_residual=float(w_res),
        wronskian_sign=w_sign,
        sum_rule_defect=float(defect),
        sum_rule_k=int(k),
    )


class InterpolationBasis:
    """The node-only factors of interpolation through the nodes xi: the
    denominators prod_{k != j} sinh(xi_j - xi_k) in ``den`` and the numerators
    prod_{k != j} sinh(lam - xi_k) per point lam, built on first use.  One
    basis serves every eigenvalue of a spectrum.  Points are keyed by
    ``point_key``, which keeps -0.0 and 0.0 apart.
    """

    def __init__(self, xi):
        self.xi = np.asarray(xi, dtype=np.complex128)
        self.den = np.array([sinh_prod(self.shifted_except(x, j))
                             for j, x in enumerate(self.xi)], dtype=np.complex128)
        self._numerators: dict[complex | str, list[complex]] = {}

    def shifted_except(self, lam: complex, j: int) -> list[complex]:
        """lam - xi_k for every node k != j."""
        return [lam - x for k, x in enumerate(self.xi) if k != j]

    def weights(self, points) -> np.ndarray:
        """Row i holds the interpolation weights numerators(lam_i) / den at the
        point lam_i of ``points``: f(lam_i) = weights[i] @ f_values."""
        return products_except(sinh_rows(points, self.xi)) / self.den

    def numerators(self, lam: complex) -> list[complex]:
        key = point_key(lam)
        if key not in self._numerators:
            self._numerators[key] = self._node_products(lam)
        return self._numerators[key]

    def _node_products(self, lam: complex) -> list[complex]:
        return [sinh_prod(self.shifted_except(lam, j)) for j in range(len(self.xi))]


class TrigInterpolation:
    """Quasi-periodic interpolation through values at the nodes of ``basis``.

    f(lam) = sum_j f_j prod_{k != j} sinh(lam - xi_k) / sinh(xi_j - xi_k);
    this reproduces any function in the span of {e^{(N-1)lam}, ..., e^{-(N-1)lam}}
    with parity (-1)^{N-1} under lam -> lam + i*pi, which contains the twisted
    transfer-matrix eigenvalues.
    """

    def __init__(self, basis: InterpolationBasis, values):
        self.basis = basis
        self.values = np.asarray(values, dtype=np.complex128)
        if basis.xi.shape != self.values.shape:
            raise ParameterError("interpolation nodes/values length mismatch")

    def __call__(self, lam: complex) -> complex:
        out = 0.0 + 0.0j
        for v, num, den in zip(self.values, self.basis.numerators(lam), self.basis.den):
            out += v * num / den
        return complex(out)

    def deriv(self, lam: complex) -> complex:
        out = 0.0 + 0.0j
        for j, den in enumerate(self.basis.den):
            acc = sinh_prod_deriv(self.basis.shifted_except(lam, j))
            out += self.values[j] * acc / den
        return complex(out)
