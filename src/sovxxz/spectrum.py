"""From oracle eigenvalues to certified Bethe data.

Each transfer-matrix eigenvalue tau is turned into its Q-function by sampling
the functional relation tau(lam) Q(lam) + a(lam) Q(lam-eta) - d(lam) Q(lam+eta) = 0
on the exponential-coefficient ansatz Q = c e^{-N lam/2} P(e^lam), extracting
the one-dimensional nullspace, and polishing the resulting roots with a damped
Newton iteration on the Bethe system.  Of each pair +-tau only one is solved:
the i*pi shift of its Q solves the relation for the other.  A certified
spectrum is one table of every record's tau, Q and i*pi-shifted partner, with
the residual diagnostics of every record.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    AmbiguousNullspaceError,
    CertificationError,
    ConvergenceError,
    DegenerateSpectrumError,
    ParameterError,
    ParityError,
    SingularEvaluationError,
    names_record,
)
from .lattice import spectrum_oracle, transfer_k
from .linalg import modulus, roots_monic, row_norms
from .model import (
    ModelParams,
    QTable,
    canonical_roots,
    dist_mod_2ipi,
    dist_mod_ipi,
    first_index,
    q_structure_residuals,
    q_table,
    prod_and_deriv,
    products_except,
    residual_grid,
    sinh_cosh,
)
from .sov import SovBasis, separate_state

NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class Spectrum:
    """A certified spectrum, built complete by ``certify``: the table of its
    records (tau included), one row per record, record 2^N-1-i the
    i*pi-shifted partner of record i (``model.q_table``), and
    per record each residual (``residuals``, name -> (R,) array), the
    Wronskian sign and the sum-rule k ((R,) integer arrays).  ``vectors``,
    which ``solve_spectrum`` sets, holds the oracle's eigenvectors of
    T_K(xi_1), read-only, row i of record i (``lattice.spectrum_oracle``);
    it is None where ``certify`` was handed eigenvalues alone."""

    table: QTable
    residuals: dict[str, np.ndarray]
    wronskian_sign: np.ndarray
    sum_rule_k: np.ndarray
    vectors: np.ndarray | None = None


def tau_hat(params: ModelParams, taus: np.ndarray, lam, d) -> np.ndarray:
    """e^lam tau(lam) / d(lam), the i*pi-periodic eigenvalue ratio, of each
    eigenvalue of ``taus`` (row: its tau(xi_k)) at every point of the array
    ``lam`` (column), given d there (``d``), as one batch: tau from the weight
    rows of ``params.node_basis``, the basis the eigenvalues interpolate
    through."""
    lam = np.asarray(lam, dtype=np.complex128)
    zero = abs(np.asarray(d)) < 1e-13
    if zero.any():
        raise SingularEvaluationError(
            f"tau_hat evaluated at a zero of d (lam={complex(np.ravel(lam)[zero.argmax()])})",
            at=first_index(zero))
    return np.exp(lam) * (taus @ params.node_basis.weights(lam).T) / d


def tau_hat_deriv(params: ModelParams, taus: np.ndarray, lam) -> np.ndarray:
    """The lam-derivative of ``tau_hat``, of each eigenvalue of ``taus`` (row)
    at every point of the array ``lam`` (column), as one batch:
    tau_hat + (e^lam tau' - tau_hat d') / d, the eigenvalues interpolating
    through ``params.node_basis``."""
    lam = np.asarray(lam, dtype=np.complex128)
    d = params.d_fn(lam)
    hat = tau_hat(params, taus, lam, d)
    tp = taus @ params.node_basis.weight_derivs(lam).T
    return hat + (np.exp(lam) * tp - hat * params.d_prime(lam)) / d


def _tq_sample_points(params: ModelParams, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts: list[complex] = []
    while len(pts) < count:
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.4, 1.4))
        if all(abs(z - p) >= params.delta_min for p in pts):
            pts.append(z)
    return np.array(pts, dtype=np.complex128)


@dataclass(frozen=True)
class ChainValues:
    """What the records of one spectrum read and no eigenvalue changes:
    ``tq`` holds the arrays (w^k, a(lam) e^{(N/2-k) eta}, d(lam) e^{(k-N/2) eta}),
    one row per T-Q sample point lam and one column per k = 0..N, w = e^lam;
    ``char`` holds -a(xi_j) d(xi_j - eta); ``grid`` is the ``residual_grid``
    (rows lam, a(lam), d(lam)), ``probes`` the ``probe_transfers`` and
    ``basis`` the chain's SoV basis, whose ``params.kappa`` is the spectrum's
    twist.  ``weights`` holds the weight rows (``InterpolationBasis.weights``)
    of the basis the eigenvalues interpolate through (``ModelParams.node_basis``),
    at the T-Q points, the grid points, the xi_j - eta and the probe points,
    under "tq", "grid", "char" and "probes": an eigenvalue there is
    ``weights[name] @ tau`` of its row tau of tau(xi_k) values."""

    tq: tuple[np.ndarray, np.ndarray, np.ndarray]
    char: np.ndarray
    grid: np.ndarray
    probes: list
    basis: SovBasis
    weights: dict[str, np.ndarray]


def chain_values(basis: SovBasis, seed: int) -> ChainValues:
    """The ``ChainValues`` of a spectrum on ``basis``'s chain at its twist
    ``params.kappa``; ``seed`` draws the 2N+3 T-Q sample points."""
    params = basis.params
    interp = params.node_basis
    n, eta = params.n, params.eta
    lam = _tq_sample_points(params, 2 * n + 3, seed)
    k = np.arange(n + 1)
    tq = (np.exp(lam)[:, None] ** k, params.a_fn(lam)[:, None] * np.exp((n / 2 - k) * eta),
          params.d_fn(lam)[:, None] * np.exp((k - n / 2) * eta))
    xi = np.asarray(params.xi)
    char = -params.a_fn(xi) * params.d_fn(xi - eta)
    grid, probes = residual_grid(params), probe_transfers(params)
    weights = {"tq": interp.weights(lam), "grid": interp.weights(grid[0]),
               "char": interp.weights(xi - eta),
               "probes": interp.weights([mu for mu, _ in probes])}
    return ChainValues(tq=tq, char=char, grid=grid, probes=probes, basis=basis, weights=weights)


class _FirstRefusal:
    """The lowest refused record of a batch, with the first refusal it met:
    checks come in the order a record meets them, each on the records below
    ``stop``, so no later step needs the records from ``stop`` on."""

    def __init__(self, count: int):
        self.stop, self.error = count, None

    def refuse(self, rows: np.ndarray, error, body) -> None:
        """Refuse the lowest record of ``rows`` below ``stop`` with ``error(body(i))``."""
        rows = rows[rows < self.stop]
        if rows.size:
            self.stop = int(rows.min())
            self.error = error(body(self.stop), at=(self.stop,))


def _tau_at(weights: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Each eigenvalue of ``taus`` (row: its tau(xi_k)) at the points of the
    weight rows ``weights`` (column): one stacked product, each row rounded
    as ``weights @ tau`` alone."""
    return (weights @ taus[..., None])[..., 0]


@names_record
def q_from_tau(params: ModelParams, taus: np.ndarray, chain: ChainValues) -> np.ndarray:
    """Solve the functional relation for Q given each eigenvalue of the
    (R, N) array ``taus`` of tau(xi_k), interpolated through the basis of
    ``chain.weights``, with one stacked SVD and one stacked companion eigensolve;
    returns the (R, N) array of each record's roots in ``canonical_roots`` form.

    Sampling the 2N+3 points of ``chain.tq`` gives a homogeneous linear system
    for the N+1 coefficients of P(W); each record's system must have a
    one-dimensional nullspace (second singular value at least 10x the smallest).
    """
    w_k, a_k, d_k = chain.tq
    t = _tau_at(chain.weights["tq"], taus)
    rows = w_k * ((t[..., None] + a_k) - d_k)
    scale = np.max(np.abs(rows), axis=-1, keepdims=True)
    np.divide(rows, scale, out=rows, where=scale > 0)
    _, svals, vh = np.linalg.svd(rows, full_matrices=False)
    coeffs = vh[:, -1].conj()
    lead = coeffs[:, -1]
    first = _FirstRefusal(len(taus))
    first.refuse(np.flatnonzero(svals[:, -2] < 10 * svals[:, -1]), AmbiguousNullspaceError,
                 lambda i: "nullspace not one-dimensional: singular values "
                           f"{svals[i, -2]:.3e}, {svals[i, -1]:.3e}")
    first.refuse(np.flatnonzero(abs(lead) < 1e-8 * np.max(np.abs(coeffs), axis=-1)),
                 AmbiguousNullspaceError,
                 lambda i: "leading coefficient of the nullspace polynomial vanishes")
    monic = coeffs[:first.stop, :-1] / lead[:first.stop, None]
    try:
        w_roots = roots_monic(monic)
    except ConvergenceError as exc:
        # the lowest record the root residual refuses; those below it go on
        first.stop, first.error = exc.at[0], exc
        w_roots = roots_monic(monic[:first.stop])
    first.refuse(np.flatnonzero(np.any(np.abs(w_roots) < 1e-12, axis=-1)),
                 AmbiguousNullspaceError, lambda i: "nullspace polynomial has a root at W = 0")
    # cmath.log per root: np.log rounds some roots differently
    roots = canonical_roots([[cmath.log(w) for w in row] for row in w_roots[:first.stop].tolist()])
    forbidden = np.array(params.forbidden_points())
    near = dist_mod_ipi(roots[..., None], forbidden).min(axis=-1) < 1e-6
    first.refuse(np.flatnonzero(near.any(axis=-1)), SingularEvaluationError,
                 lambda i: f"extracted root {complex(roots[i, np.argmax(near[i])])} "
                           "lies on an excluded shift set")
    if first.error:
        raise first.error
    return roots


def _bethe_system(params: ModelParams, roots: np.ndarray):
    """Residual F, Jacobian, term scale max_j(|a Q(q_j - eta)| + |d Q(q_j + eta)|),
    floored at 1e-30, and max_j |a_frak(q_j) - 1| = max_j |F_j / (a Q(q_j - eta))|,
    the metric ``certify`` gates, of the root system
    F_j = a(q_j) Q(q_j - eta) - d(q_j) Q(q_j + eta), of each root set on the
    last axis of ``roots``.

    Every factor is an entry of one broadcast array: z[..., 0, j, m] and
    z[..., 1, j, m] are (q_j - eta - q_m)/2 and (q_j + eta - q_m)/2,
    u[..., 0, j, k] and u[..., 1, j, k] are q_j - xi_k + eta and q_j - xi_k."""
    eta = params.eta
    shifts = np.array([-eta, eta])[:, None, None]
    z = (roots[..., None, :, None] + shifts - roots[..., None, None, :]) / 2
    u = roots[..., :, None] - np.asarray(params.xi)
    u = np.stack([u + eta, u], axis=-3)
    # z and u have one shape, as there are as many roots as nodes: one kernel
    # call takes both, since its fixed cost is most of it at small N
    (sz, su), (cz, cu) = sinh_cosh(np.stack([z, u]))
    qm, qp = np.moveaxis(sz.prod(axis=-1), -2, 0)
    # dQ(q_j -+ eta)/dq_m = -0.5 cosh(z_m) prod_{l != m} sinh(z_l)
    dq = -0.5 * cz * products_except(sz)
    (av, dv), (a_prime, d_prime) = (np.moveaxis(x, -2, 0) for x in prod_and_deriv(su, cu))
    f = av * qm - dv * qp
    jac = av[..., :, None] * dq[..., 0, :, :] - dv[..., :, None] * dq[..., 1, :, :]
    # on the diagonal lam = q_j also moves the arguments of every factor l != j
    dqm_lam, dqp_lam = np.moveaxis(np.diagonal(dq, axis1=-2, axis2=-1) - dq.sum(axis=-1), -2, 0)
    diag = np.arange(roots.shape[-1])
    jac[..., diag, diag] = a_prime * qm + av * dqm_lam - d_prime * qp - dv * dqp_lam
    scale = np.max(np.abs(av * qm) + np.abs(dv * qp), axis=-1)
    return f, jac, np.maximum(scale, 1e-30), np.max(np.abs(f / (av * qm)), axis=-1)


@names_record
def refine_bethe(params: ModelParams, roots) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton polish of each root set of the (R, N) array ``roots``,
    given in ``canonical_roots`` form, whose order the rounding of each step
    follows; returns the polished roots in that form and, of each record,
    max_j |a_frak(q_j) - 1| from its last Bethe evaluation, the value
    ``certify`` gates and reports.  A record stops once
    max|F| < 1e-12 times the scale of its two terms at its start.  Then up
    to 3 undamped Newton steps polish
    max_j |a_frak(q_j) - 1|, the metric ``certify`` gates, which the unscaled
    stop can leave large on ill-conditioned roots; the polish ends at the
    first step that does not lower the metric, which it does not keep, and
    not on the size of the metric.  Each round makes one Bethe evaluation and
    one stacked solve for every record still iterating, each at its own step
    length, so each record makes the decisions it makes alone.
    """
    roots = np.array(roots, dtype=np.complex128)
    count, n = roots.shape
    f, jac, scale, gated = _bethe_system(params, roots)
    res = np.max(np.abs(f), axis=-1)
    tol = 1e-12 * scale
    active = ~(res < tol)
    fresh = active.copy()  # moved since its last step
    step, t, steps = np.zeros_like(roots), np.ones(count), np.zeros(count, dtype=int)
    pairs = np.triu_indices(n, 1)
    first = _FirstRefusal(count)
    while True:
        idx = np.flatnonzero(active & (np.arange(count) < first.stop))
        if not idx.size:
            break
        new = idx[fresh[idx]]
        step[new] = np.linalg.solve(jac[new], -f[new][..., None])[..., 0]
        cand = roots[idx] + t[idx, None] * step[idx]
        fc, jc, _, gc = _bethe_system(params, cand)
        rc = np.max(np.abs(fc), axis=-1)
        keep = rc < res[idx]
        took = idx[keep]
        roots[took], f[took], jac[took], res[took], gated[took] = (
            cand[keep], fc[keep], jc[keep], rc[keep], gc[keep])
        fresh[idx], t[took], steps[took] = keep, 1.0, steps[took] + 1
        t[idx[~keep]] /= 2
        first.refuse(idx[~(t[idx] > 1e-4)], ConvergenceError,
                     lambda i: f"Bethe refinement stalled at residual {res[i]:.3e}")
        close = dist_mod_2ipi(roots[took, :, None], roots[took, None, :])[
            :, pairs[0], pairs[1]] < 1e-6
        first.refuse(took[close.any(axis=-1)], DegenerateSpectrumError, lambda i: (
            "Bethe roots {}, {} collided (closer than 1e-6) during refinement".format(
                *(p[close[np.searchsorted(took, i)].argmax()] for p in pairs))))
        first.refuse(took[steps[took] == NEWTON_MAX_ITER], ConvergenceError,
                     lambda i: f"Bethe refinement did not converge in {NEWTON_MAX_ITER} "
                               f"iterations (last residual {res[i]:.3e})")
        active[took[res[took] < tol[took]]] = False
    if first.error:
        raise first.error
    polish = np.ones(count, dtype=bool)
    for _ in range(3):
        idx = np.flatnonzero(polish)
        if not idx.size:
            break
        cand = roots[idx] + np.linalg.solve(jac[idx], -f[idx][..., None])[..., 0]
        fc, jc, _, gc = _bethe_system(params, cand)
        keep = gc < gated[idx]
        took = idx[keep]
        roots[took], f[took], jac[took], gated[took] = cand[keep], fc[keep], jc[keep], gc[keep]
        polish[idx] = keep
    return canonical_roots(roots), gated


def tq_residual(table: QTable, chain: ChainValues) -> np.ndarray:
    """Relative functional residual of the tau/Q relation on ``chain.grid``,
    the one the table was built on, of each record of ``table``."""
    _, a, d = chain.grid
    q0, q_eta, q_eta_plus = np.moveaxis(table.grid, -1, 0)
    t1 = _tau_at(chain.weights["grid"], table.tau) * q0
    t2 = a * q_eta
    t3 = d * q_eta_plus
    scale = np.max(np.abs(t1) + np.abs(t2) + np.abs(t3), axis=-1)
    return np.max(np.abs(t1 + t2 - t3), axis=-1) / np.maximum(scale, 1e-30)


def discrete_char_residual(table: QTable, chain: ChainValues) -> np.ndarray:
    """Relative defect of tau(xi_j) tau(xi_j - eta) = -a(xi_j) d(xi_j - eta),
    of each record of ``table``."""
    lhs = table.tau * _tau_at(chain.weights["char"], table.tau)
    return np.max(np.abs(lhs - chain.char) / np.maximum(np.abs(chain.char), 1e-30), axis=-1)


def probe_transfers(params: ModelParams) -> list[tuple[complex, np.ndarray]]:
    """Three seeded probe points mu with their transfer matrices at the
    twist ``params.kappa``; they do not depend on the record, so one list
    serves a whole spectrum."""
    rng = np.random.default_rng(515)
    probes = []
    for _ in range(3):
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        probes.append((mu, transfer_k(params, mu)))
    return probes


def eigenstate_residual(table: QTable, chain: ChainValues) -> np.ndarray:
    """Relative eigen-residual of each eigen record's separate state of
    ``table`` on ``chain.basis`` at its twist, against the transfer
    matrices at ``chain.probes`` (built at that twist), each applied to all
    the states in one stacked product.  Uses the unnormalized embedding: the
    residual is ray-invariant and the unnormalized coefficients stay finite
    even when a Bethe root approaches one of the shifted nodes xi_n - eta."""
    v = separate_state(chain.basis, table, chain.basis.params.kappa, "ket",
                       normalized=False).embedded
    nv = row_norms(v)
    tau_mu = _tau_at(chain.weights["probes"], table.tau)
    worst = np.zeros(len(table))
    for (_, tk), tau in zip(chain.probes, tau_mu.T):
        tv = (tk @ v[..., None])[..., 0]
        resid = row_norms(tv - tau[:, None] * v)
        worst = np.maximum(worst, resid / np.maximum(np.maximum(modulus(tau) * nv, row_norms(tv)),
                                                     1e-30))
    return worst


# each gated residual with the tolerance key that gates it, in the order a
# refusal lists failures
GATES = {"tq": "tq_residual", "bethe": "bethe_residual", "discrete_char": "discrete_char",
         "eigenstate": "eigenstate_residual", "wronskian": "wronskian",
         "sum_rule_defect": "sum_rule"}


@names_record
def certify(params: ModelParams, taus, roots, bethe, chain: ChainValues,
            tolerances: dict | None = None) -> Spectrum:
    """Compute every residual of the 2R records of the (2R, N) array ``taus``
    of tau(xi_k) values, as one batch, gate it and build the ``Spectrum``
    complete.  Record i < R has the roots ``roots[i]`` (a row of an (R, N)
    array in ``canonical_roots`` form) and the Bethe residual ``bethe[i]``
    that ``refine_bethe`` returned with them; record 2R-1-i is its i*pi-shifted
    partner, with the roots ``canonical_roots(roots[i] + i*pi)`` and record
    i's Bethe residual, as its Bethe ratios are record i's with every sign
    cancelled.  Its table, ``model.q_table`` of the R root sets on
    ``chain.grid``, which holds the partners too, is what every residual,
    separate state and pair formula reads; every other residual of a
    partner is computed from its own row and eigenvalue.  ``chain`` is
    the spectrum's ``ChainValues``, at its twist.  ``tolerances`` overrides
    entries of ``config.DEFAULT_TOLERANCES``.
    Raises CertificationError for the lowest failing record, naming its
    index, its tau(xi_1) and the condition number of the Bethe Jacobian at
    its roots, with each failed check.
    """
    if len(taus) != 2 * len(roots):
        raise ParameterError(f"{len(taus)} eigenvalues for {len(roots)} root sets and "
                             "their partners")
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    table = q_table(params, roots, taus, chain.grid)
    wronskian, signs, defect, ks = q_structure_residuals(table, params, chain.grid)
    side_ok = (np.maximum(abs(table.x), abs(table.x_ipi)) > 1e-10).all(axis=-1)
    bethe = np.asarray(bethe)
    values = {"tq": tq_residual(table, chain), "bethe": np.concatenate([bethe, bethe[::-1]]),
              "discrete_char": discrete_char_residual(table, chain),
              "eigenstate": eigenstate_residual(table, chain),
              "wronskian": wronskian, "sum_rule_defect": defect}
    over = {name: np.greater(values[name], tol[key]) for name, key in GATES.items()}
    failed = ~side_ok | np.any(list(over.values()), axis=0)
    if failed.any():
        i = int(np.argmax(failed))
        failures = ([] if side_ok[i] else ["side condition (Q(xi_j), Q(xi_j + i*pi)) != (0, 0)"]) \
            + [f"{name} residual {values[name][i]:.3e} > {tol[key]:.1e}"
               for name, key in GATES.items() if over[name][i]]
        _, jac, _, _ = _bethe_system(params, table.roots[i])
        raise CertificationError(
            f"record {i} (tau(xi_1) = {table.tau[i, 0]:.6g}, Bethe Jacobian "
            f"condition number {np.linalg.cond(jac):.2e}): {'; '.join(failures)}")
    return Spectrum(table=table, residuals=values, wronskian_sign=signs,
                    sum_rule_k=ks.astype(int))


def solve_spectrum(basis: SovBasis, seed: int = 4242,
                   tolerances: dict | None = None) -> Spectrum:
    """Full pipeline: oracle -> Q extraction -> Newton polish -> certification,
    on the chain of ``basis`` at its twist ``params.kappa``, whose node blocks
    feed the oracle; each phase runs once, over all its records.

    The oracle sorts the spectrum so that record 2^N-1-i holds exactly -tau
    of record i; a spectrum that is not paired so is refused (ParityError).
    Q extraction and the Newton polish run on the 2^(N-1) records i below
    2^(N-1) alone; ``certify``'s one ``model.q_table`` call derives each
    partner 2^N-1-i from record i's i*pi-shifted Q, and it gates all 2^N
    records.

    Returns the certified ``Spectrum`` of all 2^N records, sorted by
    tau(xi_1), with the oracle's eigenvectors.  A refusal names the lowest
    failing record of the first phase that refuses one, by its index in that
    order, so extraction and the polish name a record below 2^(N-1); a
    CertificationError also gives its tau(xi_1) and the condition number of
    the Bethe Jacobian at its roots.
    """
    params = basis.params
    taus, vectors = spectrum_oracle(params, basis.at_xi)
    unpaired = np.any(taus[::-1] != -taus, axis=-1)
    if unpaired.any():
        i = int(np.argmax(unpaired))
        raise ParityError(f"record {i}: tau(xi_k) is not the negation of record "
                          f"{len(taus) - 1 - i}'s, so the oracle's spectrum is not "
                          "paired under negation")
    chain = chain_values(basis, seed)
    roots, bethe = refine_bethe(params, q_from_tau(params, taus[:len(taus) // 2], chain))
    spectrum = certify(params, taus, roots, bethe, chain, tolerances)
    return replace(spectrum, vectors=vectors)
