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
    ModelParams,
    QTable,
    TrigInterpolation,
    a_frak_values,
    dist_mod_2ipi,
    dist_mod_ipi,
    q_structure_residuals,
    q_table,
    residual_grid,
    sinh_prod,
)
from .sov import SovBasis, separate_state

NEWTON_MAX_ITER = 50


@dataclass
class EigenRecord:
    """One certified (or in-progress) transfer-matrix eigenvalue."""

    tau_at_xi: np.ndarray
    tau: TrigInterpolation
    q_poly: HalfPeriodTrigPoly
    table: QTable | None = None
    residuals: dict = field(default_factory=dict)
    wronskian_sign: int = 0
    sum_rule_k: int = 0
    certified: bool = False


def tau_hat(params: ModelParams, tau, lam: complex) -> complex:
    """e^lam tau(lam) / d(lam), the i*pi-periodic eigenvalue ratio."""
    d = params.d_fn(lam)
    if abs(d) < 1e-13:
        raise SingularEvaluationError(f"tau_hat evaluated at a zero of d (lam={lam})")
    return cmath.exp(lam) * tau(lam) / d


def tau_hat_deriv(params: ModelParams, tau, lam: complex) -> complex:
    d = params.d_fn(lam)
    if abs(d) < 1e-13:
        raise SingularEvaluationError(f"tau_hat' evaluated at a zero of d (lam={lam})")
    t = tau(lam)
    tp = tau.deriv(lam)
    dp = params.d_prime(lam)
    e = cmath.exp(lam)
    return (e * (t + tp) * d - e * t * dp) / (d * d)


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
    ``tq`` holds (lam, w^k, a(lam) e^{(N/2-k) eta}, d(lam) e^{(k-N/2) eta}),
    k = 0..N and w = e^lam, per T-Q sample point lam; ``char`` holds
    (xi_j - eta, -a(xi_j) d(xi_j - eta)); ``grid`` is the ``residual_grid``,
    ``probes`` the ``probe_transfers`` at the spectrum's twist and ``basis``
    the chain's SoV basis."""

    tq: tuple[tuple, ...]
    char: tuple[tuple[complex, complex], ...]
    grid: list
    probes: list
    basis: SovBasis


def chain_values(basis: SovBasis, kappa: complex, seed: int) -> ChainValues:
    """The ``ChainValues`` of a spectrum on ``basis``'s chain at twist
    ``kappa``; ``seed`` draws the 2N+3 T-Q sample points."""
    params = basis.params
    n, eta = params.n, params.eta
    tq = []
    for lam in _tq_sample_points(params, 2 * n + 3, seed):
        w, av, dv = cmath.exp(lam), params.a_fn(lam), params.d_fn(lam)
        tq.append((lam, tuple(w**k for k in range(n + 1)),
                   tuple(av * cmath.exp((n / 2 - k) * eta) for k in range(n + 1)),
                   tuple(dv * cmath.exp((k - n / 2) * eta) for k in range(n + 1))))
    char = tuple((x - eta, -params.a_fn(x) * params.d_fn(x - eta)) for x in params.xi)
    return ChainValues(tq=tuple(tq), char=char, grid=residual_grid(params),
                       probes=probe_transfers(params, kappa), basis=basis)


def q_from_tau(params: ModelParams, tau, chain: ChainValues) -> HalfPeriodTrigPoly:
    """Solve the functional relation for Q given an interpolated eigenvalue.

    Sampling the 2N+3 points of ``chain.tq`` gives a homogeneous linear system
    for the N+1 coefficients of P(W); the system must have a one-dimensional
    nullspace (second singular value at least 10x the smallest).
    """
    n = params.n
    rows = np.zeros((len(chain.tq), n + 1), dtype=np.complex128)
    for s, (lam, w_k, a_k, d_k) in enumerate(chain.tq):
        t = tau(lam)
        rows[s] = [w * ((t + a) - d) for w, a, d in zip(w_k, a_k, d_k)]
        scale = np.max(np.abs(rows[s]))
        if scale > 0:
            rows[s] /= scale
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
    forbidden = params.forbidden_points()
    for q in poly.roots:
        if min(dist_mod_ipi(q, p) for p in forbidden) < 1e-6:
            raise SingularEvaluationError(f"extracted root {q} lies on an excluded shift set")
    return poly


def _bethe_system(params: ModelParams, roots: np.ndarray):
    """Residual F, Jacobian, term scale max_j(|a Q(q_j - eta)| + |d Q(q_j + eta)|),
    floored at 1e-30, and max_j |a_frak(q_j) - 1| = max_j |F_j / (a Q(q_j - eta))|,
    the metric ``certify`` gates, of the root system
    F_j = a(q_j) Q(q_j - eta) - d(q_j) Q(q_j + eta)."""
    n = len(roots)
    eta = params.eta
    f = np.zeros(n, dtype=np.complex128)
    jac = np.zeros((n, n), dtype=np.complex128)
    scale = gated = 0.0
    for j in range(n):
        lam = roots[j]
        zm = [(lam - eta - q) / 2 for q in roots]
        zp = [(lam + eta - q) / 2 for q in roots]
        qm = sinh_prod(zm)
        qp = sinh_prod(zp)
        # dQ(lam -+ eta)/dq_m = -0.5 cosh(z_m) prod_{l != m} sinh(z_l)
        dqm = [-0.5 * cmath.cosh(z) * sinh_prod(zm[:m] + zm[m + 1:]) for m, z in enumerate(zm)]
        dqp = [-0.5 * cmath.cosh(z) * sinh_prod(zp[:m] + zp[m + 1:]) for m, z in enumerate(zp)]
        av = params.a_fn(lam)
        dv = params.d_fn(lam)
        f[j] = av * qm - dv * qp
        scale = max(scale, abs(av * qm) + abs(dv * qp))
        gated = max(gated, abs(f[j] / (av * qm)))
        for m in range(n):
            jac[j, m] = av * dqm[m] - dv * dqp[m]
        # on the diagonal lam = q_j also moves the arguments of every factor l != j
        dqm_lam = sum(-dqm[l] for l in range(n) if l != j)
        dqp_lam = sum(-dqp[l] for l in range(n) if l != j)
        jac[j, j] = params.a_prime(lam) * qm + av * dqm_lam \
            - params.d_prime(lam) * qp - dv * dqp_lam
    return f, jac, max(scale, 1e-30), gated


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
        for i in range(n):
            for j in range(i + 1, n):
                if dist_mod_2ipi(roots[i], roots[j]) < 1e-6:
                    raise DegenerateSpectrumError(
                        f"Bethe roots {i}, {j} collided (closer than 1e-6) during refinement"
                    )
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
    return max(abs(a_frak_values(a, d, qm, qp) - 1.0)
               for a, d, qm, qp in zip(table.a_r, table.d_r, table.r_eta, table.r_eta_plus))


def tq_residual(table: QTable, grid: list) -> float:
    """Relative functional residual of the tau/Q relation on ``grid``, the
    one ``table`` was built on."""
    num, scale = 0.0, 0.0
    for (lam, a, d), (q0, q_eta, q_eta_plus, _, _) in zip(grid, table.grid):
        t1 = table.tau(lam) * q0
        t2 = a * q_eta
        t3 = d * q_eta_plus
        num = max(num, abs(t1 + t2 - t3))
        scale = max(scale, abs(t1) + abs(t2) + abs(t3))
    return num / max(scale, 1e-30)


def discrete_char_residual(table: QTable, chain: ChainValues) -> float:
    """Relative defect of tau(xi_j) tau(xi_j - eta) = -a(xi_j) d(xi_j - eta)."""
    worst = 0.0
    for tau_x, (x_eta, rhs) in zip(table.tau_x, chain.char):
        lhs = tau_x * table.tau(x_eta)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return worst


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
    for mu, tk in chain.probes:
        tv = tk @ v
        tau_mu = record.tau(mu)
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
    side_ok = all(max(abs(v), abs(w)) > 1e-10
                  for v, w in zip(table.x, table.x_ipi))
    record.residuals["tq"] = tq_residual(table, grid)
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
    chain = chain_values(basis, k, seed)
    records = []
    for index, item in enumerate(raw):
        q0 = q_from_tau(params, item.tau, chain)
        rec = EigenRecord(tau_at_xi=item.tau_at_xi, tau=item.tau,
                          q_poly=refine_bethe(params, q0),
                          residuals={"interp_check": item.interp_check})
        try:
            certify(params, rec, k, chain, tolerances)
        except CertificationError as exc:
            _, jac, _, _ = _bethe_system(params, np.array(rec.q_poly.roots, dtype=np.complex128))
            raise CertificationError(
                f"record {index} (tau(xi_1) = {item.tau_at_xi[0]:.6g}, Bethe Jacobian "
                f"condition number {np.linalg.cond(jac):.2e}): {exc}") from exc
        records.append(rec)
    if len(records) != 2**params.n:
        raise ParameterError(
            f"expected {2**params.n} certified records, got {len(records)}"
        )
    return records
