"""From oracle eigenvalues to certified Bethe data.

Each transfer-matrix eigenvalue tau is turned into its Q-function by sampling
the functional relation tau(lam) Q(lam) + a(lam) Q(lam-eta) - d(lam) Q(lam+eta) = 0
on the exponential-coefficient ansatz Q = c e^{-N lam/2} P(e^lam), extracting
the one-dimensional nullspace, and polishing the resulting roots with a damped
Newton iteration on the Bethe system.  Certified records bundle tau, Q, the
i*pi-shifted partner and all residual diagnostics.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    AmbiguousNullspaceError,
    CertificationError,
    ConvergenceError,
    DegenerateSpectrumError,
    ParameterError,
    SingularEvaluationError,
)
from .lattice import spectrum_oracle, transfer_k
from .linalg import MonicPoly, roots_monic
from .model import (
    HalfPeriodTrigPoly,
    InterpolationBasis,
    ModelParams,
    QTable,
    TrigInterpolation,
    a_frak_values,
    dist_mod_2ipi,
    dist_mod_ipi,
    first_index,
    q_structure_residuals,
    q_table,
    products_except,
    residual_grid,
    sinh_prod,
    sinh_prod_deriv,
)
from .sov import SovBasis, separate_state

NEWTON_MAX_ITER = 50


@dataclass
class EigenRecord:
    """One certified (or in-progress) transfer-matrix eigenvalue."""

    tau: TrigInterpolation
    q_poly: HalfPeriodTrigPoly
    table: QTable | None = None
    residuals: dict = field(default_factory=dict)
    wronskian_sign: int = 0
    sum_rule_k: int = 0
    certified: bool = False


def tau_hat(taus, lam, d) -> np.ndarray:
    """e^lam tau(lam) / d(lam), the i*pi-periodic eigenvalue ratio, of each
    eigenvalue tau of ``taus`` (row) at every point of the array ``lam``
    (column), given d there (``d``), as one batch: tau from the weight rows
    of the interpolation basis, on the nodes the eigenvalues share."""
    lam = np.asarray(lam, dtype=np.complex128)
    zero = abs(np.asarray(d)) < 1e-13
    if zero.any():
        raise SingularEvaluationError(
            f"tau_hat evaluated at a zero of d (lam={complex(np.ravel(lam)[zero.argmax()])})",
            at=first_index(zero))
    values = np.array([tau.values for tau in taus])
    return np.exp(lam) * (values @ taus[0].basis.weights(lam).T) / d


def tau_hat_deriv(params: ModelParams, taus, lam) -> np.ndarray:
    """The lam-derivative of ``tau_hat``, of each eigenvalue of ``taus`` (row)
    at every point of the array ``lam`` (column), as one batch:
    tau_hat + (e^lam tau' - tau_hat d') / d."""
    lam = np.asarray(lam, dtype=np.complex128)
    d = params.d_fn(lam)
    hat = tau_hat(taus, lam, d)
    tp = np.array([tau.values for tau in taus]) @ taus[0].basis.weight_derivs(lam).T
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
    (rows lam, a(lam), d(lam)), ``probes`` the ``probe_transfers`` at the
    spectrum's twist and ``basis`` the chain's SoV basis.  ``weights`` holds
    the weight rows (``InterpolationBasis.weights``) of the basis the
    eigenvalues interpolate through, at the T-Q points, the grid points, the
    xi_j - eta and the probe points, under "tq", "grid", "char" and "probes":
    an eigenvalue there is ``weights[name] @ tau.values``."""

    tq: tuple[np.ndarray, np.ndarray, np.ndarray]
    char: np.ndarray
    grid: np.ndarray
    probes: list
    basis: SovBasis
    weights: dict[str, np.ndarray]


def chain_values(basis: SovBasis, interp: InterpolationBasis, kappa: complex,
                 seed: int) -> ChainValues:
    """The ``ChainValues`` of a spectrum on ``basis``'s chain at twist
    ``kappa``, whose eigenvalues interpolate through ``interp``; ``seed``
    draws the 2N+3 T-Q sample points."""
    params = basis.params
    n, eta = params.n, params.eta
    lam = _tq_sample_points(params, 2 * n + 3, seed)
    k = np.arange(n + 1)
    tq = (np.exp(lam)[:, None] ** k, params.a_fn(lam)[:, None] * np.exp((n / 2 - k) * eta),
          params.d_fn(lam)[:, None] * np.exp((k - n / 2) * eta))
    xi = np.asarray(params.xi)
    char = -params.a_fn(xi) * params.d_fn(xi - eta)
    grid, probes = residual_grid(params), probe_transfers(params, kappa)
    weights = {"tq": interp.weights(lam), "grid": interp.weights(grid[0]),
               "char": interp.weights(xi - eta),
               "probes": interp.weights([mu for mu, _ in probes])}
    return ChainValues(tq=tq, char=char, grid=grid, probes=probes, basis=basis,
                       weights=weights)


def q_from_tau(params: ModelParams, tau, chain: ChainValues) -> HalfPeriodTrigPoly:
    """Solve the functional relation for Q given an interpolated eigenvalue.

    Sampling the 2N+3 points of ``chain.tq`` gives a homogeneous linear system
    for the N+1 coefficients of P(W); the system must have a one-dimensional
    nullspace (second singular value at least 10x the smallest).
    """
    w_k, a_k, d_k = chain.tq
    t = chain.weights["tq"] @ tau.values
    rows = w_k * ((t[:, None] + a_k) - d_k)
    scale = np.max(np.abs(rows), axis=1, keepdims=True)
    np.divide(rows, scale, out=rows, where=scale > 0)
    _, svals, vh = np.linalg.svd(rows)
    if svals[-2] < 10 * svals[-1]:
        raise AmbiguousNullspaceError(
            f"nullspace not one-dimensional: singular values {svals[-2]:.3e}, {svals[-1]:.3e}"
        )
    coeffs = vh[-1].conj()
    lead = coeffs[-1]
    if abs(lead) < 1e-8 * np.max(np.abs(coeffs)):
        raise AmbiguousNullspaceError("leading coefficient of the nullspace polynomial vanishes")
    monic = coeffs[:-1] / lead
    w_roots = roots_monic(MonicPoly(tuple(monic)))
    if np.any(np.abs(w_roots) < 1e-12):
        raise AmbiguousNullspaceError("nullspace polynomial has a root at W = 0")
    q_roots = [cmath.log(w) for w in w_roots]
    poly = HalfPeriodTrigPoly.from_roots(q_roots)
    forbidden = np.array(params.forbidden_points())
    near = dist_mod_ipi(np.array(poly.roots)[:, None], forbidden).min(axis=1) < 1e-6
    if near.any():
        raise SingularEvaluationError(
            f"extracted root {poly.roots[np.argmax(near)]} lies on an excluded shift set")
    return poly


def _bethe_system(params: ModelParams, roots: np.ndarray):
    """Residual F, Jacobian, term scale max_j(|a Q(q_j - eta)| + |d Q(q_j + eta)|),
    floored at 1e-30, and max_j |a_frak(q_j) - 1| = max_j |F_j / (a Q(q_j - eta))|,
    the metric ``certify`` gates, of the root system
    F_j = a(q_j) Q(q_j - eta) - d(q_j) Q(q_j + eta).

    Every factor is an entry of one broadcast array: z[0, j, m] and z[1, j, m]
    are (q_j - eta - q_m)/2 and (q_j + eta - q_m)/2, u[0, j, k] and u[1, j, k]
    are q_j - xi_k + eta and q_j - xi_k."""
    eta = params.eta
    shifts = np.array([-eta, eta])[:, None, None]
    z = (roots[None, :, None] + shifts - roots[None, None, :]) / 2
    sz = np.sinh(z)
    qm, qp = sz.prod(axis=2)
    # dQ(q_j -+ eta)/dq_m = -0.5 cosh(z_m) prod_{l != m} sinh(z_l)
    dq = -0.5 * np.cosh(z) * products_except(sz)
    u = roots[:, None] - np.asarray(params.xi)[None, :]
    u = np.stack([u + eta, u])
    av, dv = sinh_prod(u)
    a_prime, d_prime = sinh_prod_deriv(u)
    f = av * qm - dv * qp
    jac = av[:, None] * dq[0] - dv[:, None] * dq[1]
    # on the diagonal lam = q_j also moves the arguments of every factor l != j
    dqm_lam, dqp_lam = np.diagonal(dq, axis1=1, axis2=2) - dq.sum(axis=2)
    np.fill_diagonal(jac, a_prime * qm + av * dqm_lam - d_prime * qp - dv * dqp_lam)
    scale = np.max(np.abs(av * qm) + np.abs(dv * qp))
    return f, jac, max(float(scale), 1e-30), float(np.max(np.abs(f / (av * qm))))


def refine_bethe(params: ModelParams, q_poly: HalfPeriodTrigPoly) -> HalfPeriodTrigPoly:
    """Damped Newton polish of Bethe roots starting from ``q_poly``; stops once
    max|F| < 1e-12 times the scale of its two terms at the start.  Then up to
    3 undamped Newton steps polish max_j |a_frak(q_j) - 1|, the metric
    ``certify`` gates, which the unscaled stop can leave large on
    ill-conditioned roots; a step is kept only if it lowers the metric, and
    the polish stops below 1e-13."""
    roots = np.array(q_poly.roots, dtype=np.complex128)
    n = len(roots)
    f, jac, scale, gated = _bethe_system(params, roots)
    res = np.max(np.abs(f))
    for _ in range(NEWTON_MAX_ITER):
        if res < 1e-12 * scale:
            break
        step = np.linalg.solve(jac, -f)
        t = 1.0
        while t > 1e-4:
            cand = roots + t * step
            fc, jc, _, gc = _bethe_system(params, cand)
            if np.max(np.abs(fc)) < res:
                roots, f, jac, res, gated = cand, fc, jc, np.max(np.abs(fc)), gc
                break
            t /= 2
        else:
            raise ConvergenceError(f"Bethe refinement stalled at residual {res:.3e}")
        pairs = np.triu_indices(n, 1)
        close = np.flatnonzero(dist_mod_2ipi(roots[:, None], roots[None, :])[pairs] < 1e-6)
        if close.size:
            i, j = pairs[0][close[0]], pairs[1][close[0]]
            raise DegenerateSpectrumError(
                f"Bethe roots {i}, {j} collided (closer than 1e-6) during refinement")
    else:
        raise ConvergenceError(
            f"Bethe refinement did not converge in {NEWTON_MAX_ITER} iterations "
            f"(last residual {res:.3e})"
        )
    for _ in range(3):
        if gated < 1e-13:
            break
        cand = roots + np.linalg.solve(jac, -f)
        fc, jc, _, gc = _bethe_system(params, cand)
        if not gc < gated:
            break
        roots, f, jac, gated = cand, fc, jc, gc
    return HalfPeriodTrigPoly.from_roots(roots)


def bethe_residual(table: QTable) -> float:
    """max_j |a_frak_Q(q_j) - 1| over the roots."""
    return float(np.max(np.abs(a_frak_values(table.a_r, table.d_r, table.r_eta,
                                             table.r_eta_plus) - 1.0)))


def tq_residual(table: QTable, chain: ChainValues) -> float:
    """Relative functional residual of the tau/Q relation on ``chain.grid``,
    the one ``table`` was built on."""
    _, a, d = chain.grid
    q0, q_eta, q_eta_plus = table.grid[:, :3].T
    t1 = (chain.weights["grid"] @ table.tau.values) * q0
    t2 = a * q_eta
    t3 = d * q_eta_plus
    scale = np.max(np.abs(t1) + np.abs(t2) + np.abs(t3))
    return float(np.max(np.abs(t1 + t2 - t3)) / max(scale, 1e-30))


def discrete_char_residual(table: QTable, chain: ChainValues) -> float:
    """Relative defect of tau(xi_j) tau(xi_j - eta) = -a(xi_j) d(xi_j - eta)."""
    lhs = table.tau.values * (chain.weights["char"] @ table.tau.values)
    return float(np.max(np.abs(lhs - chain.char) / np.maximum(np.abs(chain.char), 1e-30)))


def probe_transfers(params: ModelParams, kappa: complex) -> list[tuple[complex, np.ndarray]]:
    """Three seeded probe points mu with their twisted transfer matrices; they
    do not depend on the record, so one list serves a whole spectrum."""
    rng = np.random.default_rng(515)
    probes = []
    for _ in range(3):
        mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        probes.append((mu, transfer_k(params, mu, kappa)))
    return probes


def eigenstate_residual(record: "EigenRecord", kappa: complex,
                        chain: ChainValues) -> float:
    """Relative eigen-residual of the separate state built from the record on
    ``chain.basis``, against the transfer matrices at ``chain.probes`` (built
    at ``kappa``).

    Uses the unnormalized embedding: the residual is ray-invariant and the
    unnormalized coefficients stay finite even when a Bethe root approaches
    one of the shifted nodes xi_n - eta."""
    state = separate_state(chain.basis, record.table, kappa, 1, "ket", normalized=False)
    v = state.embedded
    nv = np.linalg.norm(v)
    worst = 0.0
    for (_, tk), tau_mu in zip(chain.probes, chain.weights["probes"] @ record.tau.values):
        tv = tk @ v
        resid = np.linalg.norm(tv - tau_mu * v)
        worst = max(worst, resid / max(abs(tau_mu) * nv, np.linalg.norm(tv), 1e-30))
    return worst


def certify(params: ModelParams, record: EigenRecord, kappa: complex,
            chain: ChainValues, tolerances: dict | None = None) -> EigenRecord:
    """Compute every residual of the record, gate it and stamp the record.

    Fills ``table`` (``model.q_table`` of Q on ``chain.grid``, which every
    residual, separate state and pair formula reads), ``wronskian_sign``,
    ``sum_rule_k`` and every entry of ``residuals`` except the oracle's
    ``interp_check``; ``chain`` is the spectrum's ``ChainValues`` at ``kappa``.
    ``tolerances`` overrides entries of ``config.DEFAULT_TOLERANCES``.
    Raises CertificationError listing each failed check.
    """
    tol = {**DEFAULT_TOLERANCES, **(tolerances or {})}
    grid = chain.grid
    table = record.table = q_table(params, record.q_poly, record.tau, grid)
    report = q_structure_residuals(table, params, grid)
    record.wronskian_sign = report.wronskian_sign
    record.sum_rule_k = report.sum_rule_k
    record.residuals["wronskian"] = report.wronskian_residual
    record.residuals["sum_rule_defect"] = report.sum_rule_defect
    side_ok = (np.maximum(abs(table.x), abs(table.x_ipi)) > 1e-10).all()
    record.residuals["tq"] = tq_residual(table, chain)
    record.residuals["bethe"] = bethe_residual(table)
    record.residuals["discrete_char"] = discrete_char_residual(table, chain)
    record.residuals["eigenstate"] = eigenstate_residual(record, kappa, chain)
    failures = []
    if not side_ok:
        failures.append("side condition (Q(xi_j), Q(xi_j + i*pi)) != (0, 0)")
    for name, key in [("tq", "tq_residual"), ("bethe", "bethe_residual"),
                      ("discrete_char", "discrete_char"),
                      ("eigenstate", "eigenstate_residual"),
                      ("wronskian", "wronskian"), ("sum_rule_defect", "sum_rule")]:
        if record.residuals[name] > tol[key]:
            failures.append(f"{name} residual {record.residuals[name]:.3e} > {tol[key]:.1e}")
    if failures:
        record.certified = False
        raise CertificationError("; ".join(failures))
    record.certified = True
    return record


def solve_spectrum(basis: SovBasis, kappa: complex | None = None,
                   seed: int = 4242, tolerances: dict | None = None) -> list[EigenRecord]:
    """Full pipeline: oracle -> Q extraction -> Newton polish -> certification,
    on the chain of ``basis``, whose node blocks feed the oracle.

    Returns 2^N certified records sorted by tau(xi_1).  A CertificationError
    names the record by its index in that order, its tau(xi_1) and the
    condition number of the Bethe Jacobian at its roots.
    """
    params = basis.params
    k = params.kappa if kappa is None else kappa
    raw = spectrum_oracle(params, basis.at_xi, k, seed=seed)
    chain = chain_values(basis, raw[0].tau.basis, k, seed)
    records = []
    for index, item in enumerate(raw):
        q0 = q_from_tau(params, item.tau, chain)
        rec = EigenRecord(tau=item.tau, q_poly=refine_bethe(params, q0),
                          residuals={"interp_check": item.interp_check})
        try:
            certify(params, rec, k, chain, tolerances)
        except CertificationError as exc:
            _, jac, _, _ = _bethe_system(params, np.array(rec.q_poly.roots, dtype=np.complex128))
            raise CertificationError(
                f"record {index} (tau(xi_1) = {item.tau.values[0]:.6g}, Bethe Jacobian "
                f"condition number {np.linalg.cond(jac):.2e}): {exc}") from exc
        records.append(rec)
    if len(records) != 2**params.n:
        raise ParameterError(
            f"expected {2**params.n} certified records, got {len(records)}"
        )
    return records
