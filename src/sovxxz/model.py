"""Model parameters and the trigonometric function layer.

Holds the chain data (length, anisotropy, inhomogeneities, twists), the
half-period polynomials Q(lam) = prod_j sinh((lam - q_j)/2) used to label
separate states, each held as its array of roots q_j and evaluated by
``half_period_values``, and the table of their one-polynomial values
(``QTable``), the model functions a(lam), d(lam), the ratio functions
consumed by every determinant formula, the interpolation of eigenvalues
through the nodes, and the structural diagnostics (quantum Wronskian, root
sum rule) of a Q-function.

This is the one place that evaluates a model function.  Each is one numpy
function of sinh products (``sinh_prod``, ``sinh_prod_deriv``, ``coth``,
``vandermonde``, ``node_denominators``) that takes a scalar or an array of
points and acts elementwise on the points (products run along the last
axis), so callers evaluate every point, root or label of a batch in one
call.  ``prod_and_deriv`` is the product rule of a sinh product, for a
caller that took the sinh and cosh of its arguments together with others.
Every array sinh and cosh of the package goes through one kernel,
``sinh_cosh`` (and its sinh half, ``sinh``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ParameterError, SingularEvaluationError
from .linalg import modulus

PI = np.pi
IPI = 1j * np.pi

DELTA_MIN_DEFAULT = 0.05
ETA_COMMENSURATE_TOL = 0.01


def wrap_to_strip(z) -> np.ndarray:
    """Shift z by a multiple of 2*pi*i so that Im(z) lies in (-pi, pi];
    elementwise on arrays, into a copy, with Re(z) untouched (signed zeros
    included)."""
    z = np.array(z, dtype=np.complex128)
    z.imag += 2 * PI * np.floor((PI - z.imag) / (2 * PI))
    return z


def canonical_roots(roots) -> np.ndarray:
    """The canonical form of each root set on the last axis of ``roots``:
    every root wrapped to the strip, the set sorted by (real, imag)."""
    z = wrap_to_strip(roots)
    return np.take_along_axis(z, np.lexsort((z.imag, z.real), axis=-1), axis=-1)


def _dist_mod(z, w, period: float):
    u = np.subtract(z, w)
    return np.abs(u - 1j * period * np.rint(u.imag / period))


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


def first_index(flags) -> tuple[int, ...]:
    """Index of the first entry of ``flags`` that holds, in row-major order."""
    flags = np.asarray(flags)
    return np.unravel_index(np.argmax(flags), flags.shape)


def sinh_cosh(z):
    """(sinh z, cosh z) of a complex scalar or array, elementwise, from real
    ufuncs of x = Re z and y = Im z, the formula of glibc's csinh and ccosh:

        sinh z = sinh x cos y + i cosh x sin y,
        cosh z = cosh x cos y + i sinh x sin y.

    Each part is one product of two real values, so it adds no cancellation;
    it stays within about 1e-15 of numpy's complex sinh and cosh relative to
    the modulus, and is exactly 0 at z = 0.  This and ``sinh`` are the one
    home of array sinh and cosh in the package: numpy's complex sinh and
    cosh run through scalar code that, on an AVX-512 Xeon with numpy's
    OpenBLAS, ran about 10 times slower right after any complex matrix
    product (about 90 -> 1000 ns per element), while the real ufuncs did
    not slow down."""
    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    sx, cx, sy, cy = np.sinh(x), np.cosh(x), np.sin(y), np.cos(y)
    s, c = np.empty_like(z), np.empty_like(z)
    np.multiply(sx, cy, out=s.real)
    np.multiply(cx, sy, out=s.imag)
    np.multiply(cx, cy, out=c.real)
    np.multiply(sx, sy, out=c.imag)
    return s[()], c[()]  # [()]: a scalar for a scalar z, an array otherwise


def sinh(z):
    """sinh z of a complex scalar or array, elementwise: the sinh half of
    ``sinh_cosh``."""
    z = np.asarray(z, dtype=np.complex128)
    s = np.empty_like(z)
    np.multiply(np.sinh(z.real), np.cos(z.imag), out=s.real)
    np.multiply(np.cosh(z.real), np.sin(z.imag), out=s.imag)
    return s[()]


def coth(z):
    """coth, elementwise on arrays; refuses a pole."""
    s, c = sinh_cosh(z)
    pole = s == 0
    if pole.any():
        raise SingularEvaluationError("coth evaluated at a pole", at=first_index(pole))
    return c / s


def sinh_prod(args):
    """prod_m sinh(z_m) along the last axis."""
    return sinh(args).prod(axis=-1)


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


def prod_and_deriv(s: np.ndarray, c: np.ndarray):
    """(prod_m s_m, sum_m c_m prod_{k != m} s_k) along the last axis: a sinh
    product and its derivative from the sinh ``s`` and cosh ``c`` of its
    arguments, for a caller that took them together with others."""
    return s.prod(axis=-1), (c * products_except(s)).sum(axis=-1)


def sinh_prod_deriv(args):
    """sum_m cosh(z_m) prod_{k != m} sinh(z_k) along the last axis, the
    derivative of sinh_prod when every argument moves with unit speed; product
    rule, no division, so it stays finite at the zeros of the product."""
    return prod_and_deriv(*sinh_cosh(args))[1]


def node_denominators(xs):
    """prod_{k != j} sinh(x_j - x_k) for every point x_j along the last axis
    of ``xs`` (a stack of point sets gives a stack of rows)."""
    x = np.asarray(xs, dtype=np.complex128)
    diff = sinh(x[..., :, None] - x[..., None, :])
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
    p = np.arange(1 - m, m, 2)  # 2j - m - 1, j = 1..m
    at_x = np.exp(p * x[:, None])
    at_x_eta = np.exp(p * (x[:, None] - eta))
    # the median of at most 8 reals, as np.median takes it (the middle one,
    # or the mean of the middle two), without the numpy.ma import it costs
    reals = sorted(x.real.tolist())
    center = (reals[(m - 1) // 2] + reals[m // 2]) / 2
    wide = [i for i in range(m) if abs(x[i].real - center) > 4.0]
    return VandermondeRows(at_x, at_x_eta, wide, vandermonde(x))


def eta_is_generic(eta: complex) -> bool:
    """True if eta stays at least ``ETA_COMMENSURATE_TOL`` away from every
    i*pi*k/m with m <= 8."""
    x, y = complex(eta).real, complex(eta).imag
    for m in range(1, 9):
        k = round(y * m / PI)
        if np.hypot(x, y - k * PI / m) < ETA_COMMENSURATE_TOL:
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

    @cached_property
    def node_basis(self) -> InterpolationBasis:
        """The ``InterpolationBasis`` through the inhomogeneities, built on
        first use: every eigenvalue of the chain interpolates through it."""
        return InterpolationBasis(self.xi)


def half_period_values(roots, lam):
    """Q(lam) = prod_j sinh((lam - q_j)/2) at every point on the last axis of
    ``lam``, for the roots q_j on the last axis of ``roots``, over their
    common leading axes (a stack of root sets gives a stack of rows).

    A Q-function is its root array, kept in ``canonical_roots`` form.  The
    sinh half-argument doubles the period compared to a(lam), d(lam):
    Q(lam + 2*pi*i) = (-1)^N Q(lam).  Wrapping a root to the strip changes
    only the overall sign of Q, which every formula cancels in a ratio."""
    diff = np.asarray(lam, dtype=np.complex128)[..., :, None] - np.asarray(roots)[..., None, :]
    return sinh_prod(diff / 2)


def a_frak_values(a_u, d_u, q_eta, q_eta_plus):
    """Bethe-equation ratio a_frak(u) = d(u) Q(u+eta) / (a(u) Q(u-eta)) from
    a(u), d(u), Q(u-eta) and Q(u+eta), elementwise on arrays."""
    _require_nonzero(a_u, "a(u)")
    _require_nonzero(q_eta, "Q(u-eta)")
    return d_u * q_eta_plus / (a_u * q_eta)


def f_tilde_values(p_eta_ipi, q_u, p_ipi, q_eta):
    """Izergin weight f_tilde(u) = P(u-eta+i*pi) Q(u) / (P(u+i*pi) Q(u-eta))
    from P(u-eta+i*pi), Q(u), P(u+i*pi) and Q(u-eta), elementwise on arrays."""
    _require_nonzero(p_ipi, "P(u+i*pi)")
    _require_nonzero(q_eta, "Q(u-eta)")
    return p_eta_ipi * q_u / (p_ipi * q_eta)


def _require_nonzero(value, name: str):
    """Refuse ``value`` (or its first entry) below 1e-13 in modulus."""
    small = np.abs(value) < 1e-13
    if small.any():
        bad = complex(np.ravel(value)[np.argmax(small)])
        raise SingularEvaluationError(f"{name} = {bad} is below the evaluation floor",
                                      at=first_index(small))


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values``, flagged read-only."""
    values.flags.writeable = False
    return values


def residual_grid(params: ModelParams) -> np.ndarray:
    """4N+5 seeded sample points lam for functional residuals, kept delta_min
    away from every zero of a, d and their i*pi translates, as one read-only
    (3, 4N+5) array with rows lam, a(lam) and d(lam).  They depend on the
    chain only, so one grid serves every record of a spectrum.

    Candidates are drawn ``count`` at a time as (real, imag) pairs, the same
    stream as one pair per candidate, and accepted in order."""
    count = 4 * params.n + 5
    rng = np.random.default_rng(20240)
    avoid = np.array(params.forbidden_points(), dtype=np.complex128)
    pts = np.empty(0, dtype=np.complex128)
    while len(pts) < count:
        pairs = rng.uniform([-1.5, -0.45 * PI], [1.5, 0.45 * PI], size=(count, 2))
        z = pairs.view(np.complex128)[:, 0]
        pts = np.concatenate([pts, z[dist_mod_ipi(z[:, None], avoid).min(axis=1)
                                     >= params.delta_min]])
    lam = pts[:count]
    return _read_only(np.stack([lam, params.a_fn(lam), params.d_fn(lam)]))


@dataclass(frozen=True, eq=False)
class QTable:
    """Every value of a stack of Q-functions that depends on them alone,
    built once by ``q_table``; the record residuals, separate states and pair
    formulas read them and evaluate none again.  Every numeric field is a
    read-only complex128 array whose first axis runs over the 2R records
    (row i is record i): R given ones, then their i*pi-shifted partners in
    reverse order, so record 2R-1-i is record i's partner and each record's
    Qhat is its partner's row (``roots[::-1]``, ``grid[::-1]``).  The fields
    of one value per node or root, all but ``roots``, are views of one
    array.  ``roots`` holds each record's roots in ``canonical_roots`` form
    and ``tau`` each record's eigenvalue at the nodes, tau(xi_k) (None for
    bare polynomials).  Q at xi_k, xi_k - eta, xi_k + i*pi and
    xi_k - eta + i*pi: ``x``, ``x_eta``, ``x_ipi``, ``x_eta_ipi``.  At the
    roots q_j: a, d, exp in ``a_r``, ``d_r``, ``exp_r``; Q(q_j - eta),
    Q(q_j + eta), Q(q_j + i*pi) in ``r_eta``, ``r_eta_plus``, ``r_ipi``.
    prod_l sinh(xi_k - q_l) per node in ``sinh_x``.  Per residual-grid point
    lam, the row (Q(lam), Q(lam - eta), Q(lam + eta)) of the (2R, G, 3)
    array ``grid``.
    """

    roots: np.ndarray
    tau: np.ndarray | None
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

    def __len__(self) -> int:
        return len(self.roots)

    def take(self, rows) -> QTable:
        """This table with every field indexed by ``rows`` as numpy indexes
        its record axis: a list or slice picks records, an integer gives the
        fields of one record, ``np.s_[None]`` adds a leading axis.  A pick
        that does not keep each record with its partner leaves rows whose
        Qhat the table no longer holds."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return QTable(**{name: v if v is None else _read_only(v[rows]) for name, v in values})


# q_table evaluates at most as many records at once as keep their
# (records, points, roots) half differences within this many bytes.  Built
# for all 2^N records at once, those and their sinh and cosh temporaries were
# the peak of a spectrum op: about 16 MB over what the op held at N = 8.
Q_TABLE_BLOCK_BYTES = 1 << 18

# the QTable fields of one value per node or root, in the order of the one
# array they are views of: Q at the nodes and at the shifted roots, a, d and
# exp at the roots, and the sinh products at the nodes
_ROW_FIELDS = ("x", "x_eta", "x_ipi", "x_eta_ipi", "r_eta", "r_eta_plus", "r_ipi",
               "a_r", "d_r", "exp_r", "sinh_x")


def q_table(params: ModelParams, roots, taus, grid) -> QTable:
    """The ``QTable`` of the R root sets of the (R, M) array ``roots``, each
    row already in ``canonical_roots`` form, and of their i*pi-shifted
    partners: 2R records, record 2R-1-i the partner of record i, with the
    roots ``canonical_roots(roots[i] + i*pi)``.  ``taus`` is the (2R, N)
    array of the records' tau(xi_k), row 2R-1-i the eigenvalue of record i's
    partner (-tau of record i's in a spectrum), or None for bare
    polynomials, kept as it is; ``grid`` is the ``residual_grid`` the
    records are certified on (empty for none).

    The R given records come from one broadcast evaluation per block of
    records, each block holding as many as keep its half differences within
    ``Q_TABLE_BLOCK_BYTES``; every value depends on its own record alone, so
    the table does not depend on the blocks.  Qhat at the grid points comes
    from the cosh of Q's own half differences there, taken in the one
    sinh/cosh pass that gives Q there.  Every other value of a partner is
    its twin's under an exact sign, with no evaluation of Q.

    With w_j = 1 where q_j + i*pi wrapped down by 2*pi*i and
    c = (-1)^(M + sum_j w_j), Qhat(lam) = c Q(lam + i*pi); so Qhat at xi and
    xi - eta is c Q there plus i*pi, Qhat plus i*pi is c (-1)^M Q,
    Qhat(qhat_j -+ eta) and Qhat(qhat_j + i*pi) are c (-1)^(M (1 - w_j))
    times Q(q_j -+ eta) and Q(q_j + i*pi), a and d at qhat_j are (-1)^N
    times theirs at q_j for N nodes, e^qhat_j is -e^q_j and
    prod_l sinh(xi_k - qhat_l) is (-1)^M prod_l sinh(xi_k - q_l).  The
    partner's fields are signed in three groups, each one stacked array
    under one sign rule: at the nodes, at the roots and ``sinh_x``."""
    r = np.array(roots, dtype=np.complex128)
    count, m = r.shape
    n = len(params.xi)
    lam = np.reshape(grid, (3, -1))[0]
    shifted = r + IPI
    wrapped = wrap_to_strip(shifted)
    moved = wrapped.imag < shifted.imag  # w_j, in the roots' order
    record_bytes = (4 * n + 3 * m + 3 * len(lam)) * m * np.dtype(np.complex128).itemsize
    step = max(1, Q_TABLE_BLOCK_BYTES // max(record_bytes, 1))
    blocks = [_q_fields(params, r[i:i + step], moved[i:i + step], lam)
              for i in range(0, count, step)]
    values, q_grid, hat_grid = (np.concatenate(parts) for parts in zip(*blocks))

    rows = np.arange(count)[:, None]
    sort = np.lexsort((wrapped.imag, wrapped.real), axis=-1)
    hat, w = wrapped[rows, sort], moved[rows, sort]  # the partners' roots and w_j
    odd_c = (m + w.sum(axis=-1)) % 2 == 1  # c = -1
    odd_m, odd_n = m % 2 == 1, n % 2 == 1
    at_nodes, at_roots, sinh_x = _column_blocks(values, [4 * n, 6 * m, n])
    # at the nodes, x, x_eta <- c (x_ipi, x_eta_ipi) and
    # x_ipi, x_eta_ipi <- c (-1)^M (x, x_eta)
    nodes = at_nodes.reshape(-1, 2, 2 * n)[:, ::-1]
    odd_nodes = np.stack([odd_c, odd_c ^ odd_m], axis=-1)[..., None]
    # at the roots, in hat's order: r_eta, r_eta_plus and r_ipi times
    # c (-1)^(M (1 - w_j)), a_r and d_r times (-1)^N, exp_r negated
    at_hat = np.take_along_axis(at_roots.reshape(-1, 6, m), sort[:, None], axis=-1)
    odd_roots = np.where(np.arange(6)[:, None] < 3,
                         (odd_c[:, None] ^ (odd_m & ~w))[:, None],
                         np.array([0, 0, 0, odd_n, odd_n, 1], dtype=bool)[:, None])
    partner = np.concatenate([np.where(odd, -group, group).reshape(count, -1) for group, odd in
                              ((nodes, odd_nodes), (at_hat, odd_roots), (sinh_x, odd_m))],
                             axis=1)
    paired = _read_only(np.concatenate([values, partner[::-1]]))
    return QTable(roots=_read_only(np.concatenate([r, hat[::-1]])), tau=taus,
                  grid=_read_only(np.concatenate([q_grid, hat_grid[::-1]])),
                  **dict(zip(_ROW_FIELDS, _column_blocks(paired, [n] * 4 + [m] * 6 + [n]))))


def _column_blocks(values: np.ndarray, widths: list[int]) -> list[np.ndarray]:
    """The consecutive blocks of ``widths`` columns of ``values``, as views:
    what ``np.split`` gives, without its cost per block."""
    return [values[:, end - width:end] for end, width in zip(accumulate(widths), widths)]


def _q_fields(params: ModelParams, r: np.ndarray, moved: np.ndarray, lam: np.ndarray):
    """(values, Q on the grid, Qhat on the grid) of the records whose roots
    are the rows of ``r``: ``values`` holds their ``_ROW_FIELDS`` side by
    side, and the two (count, G, 3) arrays hold, per residual-grid point of
    ``lam``, the values at lam, lam - eta and lam + eta.  ``moved`` flags
    each root whose q + i*pi wraps down by 2*pi*i.  The sinh and cosh at the
    grid come from one ``sinh_cosh`` call, every other sinh from one
    ``sinh`` call."""
    eta = params.eta
    xi = np.asarray(params.xi, dtype=np.complex128)
    count, m = r.shape
    n = len(xi)

    def shared(*points):  # the same points for every polynomial
        row = np.concatenate(points)
        return np.broadcast_to(row, (count, len(row)))

    at_points = 4 * n + 3 * m  # Q at the nodes and at the shifted roots
    points = np.concatenate([shared(xi, xi - eta, xi + IPI, xi - eta + IPI), r - eta, r + eta,
                             r + IPI, shared(lam + eta, lam, lam - eta)], axis=1)
    half = (points[..., :, None] - r[..., None, :]) / 2
    # Q and Qhat at lam + eta, lam and lam - eta from one sinh/cosh pass over
    # the half differences u = (lam - q)/2: sinh((lam - q -+ i*pi)/2) = -+i cosh(u),
    # -i where q + i*pi stayed in the strip, +i where the wrap moved it down by 2 i pi
    s, c = sinh_cosh(half[:, at_points:])
    phase = np.where(moved, 1j, -1j).prod(axis=-1)
    q = s.prod(axis=-1).reshape(count, 3, -1)  # at lam + eta, lam, lam - eta
    hat = (phase[:, None] * c.prod(axis=-1)).reshape(count, 3, -1)
    # every other sinh product, its factors flattened side by side: the half
    # differences at the nodes and the shifted roots, the factors of a(q)
    # and d(q) (m rows of n each) and those of prod_l sinh(xi_k - q_l)
    d_args = _less(r, xi)
    args = [half[:, :at_points], d_args + eta, d_args, xi[:, None] - r[:, None, :]]
    shapes = [(count, at_points, m), (count, m, n), (count, m, n), (count, n, m)]
    widths = [k * w for _, k, w in shapes]
    factors = sinh(np.concatenate([a.reshape(count, w) for a, w in zip(args, widths)], axis=1))
    q_at, a_r, d_r, sinh_x = (f.reshape(shape).prod(axis=-1) for f, shape in
                              zip(_column_blocks(factors, widths), shapes))
    values = np.concatenate([q_at, a_r, d_r, np.exp(r), sinh_x], axis=1)
    return values, np.stack([q[:, 1], q[:, 2], q[:, 0]], axis=-1), \
        np.stack([hat[:, 1], hat[:, 2], hat[:, 0]], axis=-1)


def q_structure_residuals(table: QTable, params: ModelParams, grid: np.ndarray):
    """Structural diagnostics of candidate Q-functions, of each record of
    ``table``, as one array expression over the records.

    Checks, on ``grid`` (the one the table was built on), the quantum
    Wronskian pairing of Q with its i*pi-shift (sign reported, not assumed)
    and the root sum rule modulo i*k*pi.  Returns four arrays, one entry per
    record: the Wronskian residual, its sign, the sum-rule defect and k.
    """
    signs = np.array([1, -1])
    q0, q_eta, _ = np.moveaxis(table.grid, -1, 0)
    hat0, hat_eta, _ = np.moveaxis(table.grid[::-1], -1, 0)  # each record's partner
    d = grid[2]
    w = 0.5 * (q0 * hat_eta + hat0 * q_eta)
    # row s of each record: the right-hand side at Wronskian sign signs[s], per grid point
    rhs = (signs[:, None] * (0.5j) ** params.n) * d
    num = np.abs(w[:, None] - rhs).max(axis=-1, initial=0.0)
    scale = (np.abs(w)[:, None] + np.abs(rhs)).max(axis=-1, initial=0.0)
    rel = np.divide(num, scale, out=num.copy(), where=scale > 0)
    best = np.argmin(rel, axis=-1)  # the first sign on a tie

    # each record's roots summed in order, as a Python sum of them rounds
    s = np.cumsum(table.roots, axis=-1)[:, -1] \
        - sum(x - params.eta / 2 for x in params.xi)
    k = np.rint(s.imag / PI)
    defect = modulus(s - 1j * PI * k)

    return rel.min(axis=-1), signs[best], defect, k


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
        return products_except(sinh(_less(points, self.xi))) / self.den

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
