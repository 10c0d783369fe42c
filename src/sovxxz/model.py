"""Model parameters and the trigonometric function layer.

Holds the chain data (length, anisotropy, inhomogeneities, twists), the
half-period polynomials Q(lam) = prod_j sinh((lam - q_j)/2) used to label
separate states and the table of their one-polynomial values, the model
functions a(lam), d(lam), the ratio functions consumed by every determinant
formula, the interpolation of eigenvalues through the nodes, and the
structural diagnostics (quantum Wronskian, root sum rule) of a Q-function.

This is the one place that evaluates a model function.  Each is one numpy
function of sinh products (``sinh_prod``, ``sinh_prod_deriv``, ``coth``,
``vandermonde``, ``node_denominators``) that takes a scalar or an array of
points and acts elementwise on the points (products run along the last
axis), so callers evaluate every point, root or label of a batch in one call.
"""

from __future__ import annotations

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


def _less(points, centers) -> np.ndarray:
    """points - centers with the centers along a new last axis: entry
    [..., k] is the point less center k."""
    return np.asarray(points, dtype=np.complex128)[..., None] - np.asarray(centers)


def coth(z):
    """coth, elementwise on arrays; refuses a pole."""
    s = np.sinh(z)
    if (s == 0).any():
        raise SingularEvaluationError("coth evaluated at a pole")
    return np.cosh(z) / s


def sinh_prod(args):
    """prod_m sinh(z_m) along the last axis."""
    return np.sinh(np.asarray(args, dtype=np.complex128)).prod(axis=-1)


def products_except(s: np.ndarray) -> np.ndarray:
    """out[..., m] = prod_{l != m} s[..., l] along the last axis, from prefix
    and suffix products, without division, so it stays exact at zeros."""
    # row 0: 1, s_0, ..., s_{M-2}; row 1: 1, s_{M-1}, ..., s_1; one running product
    ext = np.empty(s.shape[:-1] + (2, s.shape[-1]), dtype=s.dtype)
    ext[..., :1] = 1  # a slice: an empty last axis gives an empty result
    ext[..., 0, 1:] = s[..., :-1]
    ext[..., 1, 1:] = s[..., :0:-1]
    acc = ext.cumprod(axis=-1)
    return acc[..., 0, :] * acc[..., 1, ::-1]


def sinh_prod_deriv(args):
    """sum_m cosh(z_m) prod_{k != m} sinh(z_k) along the last axis, the
    derivative of sinh_prod when every argument moves with unit speed; product
    rule, no division, so it stays finite at the zeros of the product."""
    z = np.asarray(args, dtype=np.complex128)
    return (np.cosh(z) * products_except(np.sinh(z))).sum(axis=-1)


def node_denominators(xs):
    """prod_{k != j} sinh(x_j - x_k) for every point x_j along the last axis
    of ``xs`` (a stack of point sets gives a stack of rows)."""
    x = np.asarray(xs, dtype=np.complex128)
    diff = np.sinh(x[..., :, None] - x[..., None, :])
    return np.diagonal(products_except(diff), axis1=-2, axis2=-1)


def vandermonde(xs):
    """Hyperbolic Vandermonde product V(x_1..x_n) = prod_{i<j} sinh(x_j - x_i)
    along the last axis (a stack of point sets gives a stack of products).

    Empty input and a single point both give 1 (empty product).
    """
    x = np.asarray(xs, dtype=np.complex128)
    order = np.arange(x.shape[-1])
    i, j = np.nonzero(order[:, None] < order)  # the pairs i < j, row by row
    return sinh_prod(x[..., j] - x[..., i])


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
        if self.n == 1:
            return np.inf
        xi = np.asarray(self.xi, dtype=np.complex128)
        sets = np.stack([xi, xi - self.eta], axis=1)
        # dist[i, j, s, t]: shift s of xi_i against shift t of xi_j
        dist = dist_mod_ipi(sets[:, None, :, None], sets[None, :, None, :])
        return float(dist[~np.eye(self.n, dtype=bool)].min())

    def a_fn(self, lam):
        """a(lam) = prod_k sinh(lam - xi_k + eta), elementwise on arrays."""
        return sinh_prod(_less(lam, self.xi) + self.eta)

    def d_fn(self, lam):
        """d(lam) = prod_k sinh(lam - xi_k), elementwise on arrays."""
        return sinh_prod(_less(lam, self.xi))

    def a_log_deriv(self, lam):
        return coth(_less(lam, self.xi) + self.eta).sum(axis=-1)

    def d_prime(self, lam):
        """Derivative of d; safe at the zeros of d."""
        return sinh_prod_deriv(_less(lam, self.xi))

    def forbidden_points(self) -> list[complex]:
        """Representatives (mod i*pi) of the excluded sets {xi_i, xi_i - eta}."""
        return [s for x in self.xi for s in (x, x - self.eta)]

    @cached_property
    def a_xi(self) -> np.ndarray:
        """a(xi_k) at every node, built on first use."""
        return self.a_fn(self.xi)

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

    def __call__(self, lam):
        """The polynomial at lam, elementwise on arrays."""
        return sinh_prod(_less(lam, self.roots) / 2)

    def log_deriv(self, lam):
        return 0.5 * coth(_less(lam, self.roots) / 2).sum(axis=-1)

    def shifted_ipi(self) -> "HalfPeriodTrigPoly":
        """The companion polynomial with every root shifted by i*pi (re-wrapped)."""
        return HalfPeriodTrigPoly.from_roots([q + IPI for q in self.roots])


def a_frak(params: ModelParams, q_poly: HalfPeriodTrigPoly, u):
    """Bethe-equation ratio d(u) Q(u+eta) / (a(u) Q(u-eta)), elementwise on arrays."""
    return a_frak_values(params.a_fn(u), params.d_fn(u), q_poly(u - params.eta),
                         q_poly(u + params.eta))


def a_frak_values(a_u, d_u, q_eta, q_eta_plus):
    """``a_frak`` from a(u), d(u), Q(u-eta) and Q(u+eta), elementwise on arrays."""
    _require_nonzero(a_u, "a(u)")
    _require_nonzero(q_eta, "Q(u-eta)")
    return d_u * q_eta_plus / (a_u * q_eta)


def f_tilde(params: ModelParams, p_poly: HalfPeriodTrigPoly,
            q_poly: HalfPeriodTrigPoly, u):
    """Izergin weight P(u-eta+i*pi) Q(u) / (P(u+i*pi) Q(u-eta)), elementwise on arrays."""
    return f_tilde_values(p_poly(u - params.eta + IPI), q_poly(u),
                          p_poly(u + IPI), q_poly(u - params.eta))


def f_tilde_values(p_eta_ipi, q_u, p_ipi, q_eta):
    """``f_tilde`` from P(u-eta+i*pi), Q(u), P(u+i*pi) and Q(u-eta),
    elementwise on arrays."""
    _require_nonzero(p_ipi, "P(u+i*pi)")
    _require_nonzero(q_eta, "Q(u-eta)")
    return p_eta_ipi * q_u / (p_ipi * q_eta)


def _require_nonzero(value, name: str, floor: float = 1e-13):
    """Refuse ``value`` (or its first entry) below ``floor`` in modulus."""
    small = np.abs(value) < floor
    if small.any():
        bad = complex(np.ravel(value)[np.argmax(small)])
        raise SingularEvaluationError(f"{name} = {bad} is below the evaluation floor")


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values``, flagged read-only."""
    values.flags.writeable = False
    return values


def residual_grid(params: ModelParams) -> np.ndarray:
    """4N+5 seeded sample points lam for functional residuals, kept delta_min
    away from every zero of a, d and their i*pi translates, as one read-only
    (3, 4N+5) array with rows lam, a(lam) and d(lam).  They depend on the
    chain only, so one grid serves every record of a spectrum."""
    count = 4 * params.n + 5
    rng = np.random.default_rng(20240)
    avoid = params.forbidden_points()
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.45 * PI, 0.45 * PI))
        if all(dist_mod_ipi(z, p) >= params.delta_min for p in avoid):
            pts.append(z)
    lam = np.array(pts, dtype=np.complex128)
    return _read_only(np.stack([lam, params.a_fn(lam), params.d_fn(lam)]))


@dataclass(frozen=True, eq=False)
class QTable:
    """Every value of one Q-function that depends on it alone, built once by
    ``q_table``; the record residuals, separate states and pair formulas read
    them and evaluate none again.  Every numeric field is a read-only
    complex128 array.  Q at xi_k, xi_k - eta, xi_k + i*pi and
    xi_k - eta + i*pi: ``x``, ``x_eta``, ``x_ipi``, ``x_eta_ipi`` (row h in
    (0, 1) is Q(xi_k - h * eta)).  At the roots q_j: a, d, exp in ``a_r``,
    ``d_r``, ``exp_r``; Q(q_j - eta), Q(q_j + eta), Q(q_j + i*pi) in ``r_eta``,
    ``r_eta_plus``, ``r_ipi``.  prod_l sinh(xi_k - q_l) per node in
    ``sinh_x``.  ``hat`` is the i*pi-shifted partner.  An eigen record's table
    also holds its eigenvalue ``tau`` (whose ``values`` are tau(xi_k)) and,
    per residual-grid point lam, the row (Q(lam), Q(lam - eta), Q(lam + eta),
    Qhat(lam), Qhat(lam - eta)) of the (G, 5) array ``grid``.
    """

    poly: HalfPeriodTrigPoly
    roots: tuple[complex, ...]
    hat: HalfPeriodTrigPoly
    tau: TrigInterpolation | None
    x: np.ndarray
    x_eta: np.ndarray
    x_ipi: np.ndarray
    x_eta_ipi: np.ndarray
    a_r: np.ndarray
    d_r: np.ndarray
    exp_r: np.ndarray
    r_eta: np.ndarray
    r_eta_plus: np.ndarray
    r_ipi: np.ndarray
    sinh_x: np.ndarray
    grid: np.ndarray


def q_table(params: ModelParams, poly: HalfPeriodTrigPoly, tau, grid) -> QTable:
    """The ``QTable`` of ``poly``; ``tau`` is the record's eigenvalue (None for
    a bare polynomial) and ``grid`` the ``residual_grid`` the record is
    certified on (empty for none)."""
    eta = params.eta
    hat = poly.shifted_ipi()
    xi = np.asarray(params.xi, dtype=np.complex128)
    r = np.asarray(poly.roots, dtype=np.complex128)
    lam = np.reshape(grid, (3, -1))[0]
    sizes = np.cumsum([len(xi)] * 4 + [len(r)] * 3 + [len(lam)] * 2)  # split points
    x, x_eta, x_ipi, x_eta_ipi, r_eta, r_eta_plus, r_ipi, *at_lam = map(_read_only, np.split(
        poly(np.concatenate([xi, xi - eta, xi + IPI, xi - eta + IPI, r - eta, r + eta, r + IPI,
                             lam, lam - eta, lam + eta])), sizes))
    return QTable(
        poly=poly, roots=poly.roots, hat=hat, tau=tau,
        x=x, x_eta=x_eta, x_ipi=x_ipi, x_eta_ipi=x_eta_ipi,
        a_r=_read_only(params.a_fn(r)), d_r=_read_only(params.d_fn(r)),
        exp_r=_read_only(np.exp(r)), r_eta=r_eta, r_eta_plus=r_eta_plus, r_ipi=r_ipi,
        sinh_x=_read_only(sinh_prod(xi[:, None] - r)),
        grid=_read_only(np.stack(
            [*at_lam, *np.split(hat(np.concatenate([lam, lam - eta])), 2)], axis=1)),
    )


@dataclass(frozen=True)
class QStructureReport:
    wronskian_residual: float
    wronskian_sign: int
    sum_rule_defect: float
    sum_rule_k: int


def q_structure_residuals(table: QTable, params: ModelParams,
                          grid: np.ndarray) -> QStructureReport:
    """Structural diagnostics of a candidate Q-function.

    Checks, on ``grid`` (the one ``table`` was built on), the quantum
    Wronskian pairing of Q with its i*pi-shift (sign reported, not assumed)
    and the root sum rule modulo i*k*pi.
    """
    signs = (1, -1)
    q0, q_eta, _, hat0, hat_eta = table.grid.T
    d = grid[2]
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
    """Lagrange weights of interpolation through the nodes ``xi``: the weight
    of node j at lam is prod_{k != j} sinh(lam - xi_k) over the node
    denominator prod_{k != j} sinh(xi_j - xi_k) (``den``, one
    ``node_denominators`` row).  One basis serves every eigenvalue of a
    spectrum.  ``xi`` may also be a stack of node sets (last axis: nodes),
    whose weights at one point are a stack of rows.
    """

    def __init__(self, xi):
        self.xi = np.asarray(xi, dtype=np.complex128)
        self.den = node_denominators(self.xi)

    def weights(self, points) -> np.ndarray:
        """The weights at every point of ``points`` (last axis: nodes):
        f(lam) = weights(lam) @ f_values."""
        return products_except(np.sinh(_less(points, self.xi))) / self.den

    def weight_derivs(self, points) -> np.ndarray:
        """The lam-derivatives of ``weights`` at every point of ``points``."""
        n = self.xi.shape[-1]
        # others[j] lists the nodes k != j
        others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
        return sinh_prod_deriv(_less(points, self.xi)[..., others]) / self.den


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

    def __call__(self, lam):
        """f(lam), elementwise on arrays."""
        return self.basis.weights(lam) @ self.values

    def deriv(self, lam):
        """f'(lam), elementwise on arrays."""
        return self.basis.weight_derivs(lam) @ self.values
