"""Command-line interface: validate / spectrum / observables.

Each command reads a JSON config (or uses built-in defaults), runs its
pipeline and writes a JSON report, one line of compact JSON with sorted keys,
in which every complex number appears as a two-element [re, im] array.  Exit
status is 0 exactly when every enabled check passed.  Reports are
byte-identical across runs with the same seed on the same machine; across
machines the last bits may differ, because numpy's SIMD complex multiply
rounds differently from Python's scalar one on some CPUs (AVX-512, for one).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import observables as obs
from .config import MAX_N_OBSERVABLES, RunConfig, load_config
from .errors import ParameterError, SovxxzError
from .lattice import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    MonodromyBlocks,
    NodeFactors,
    dress_local_operator,
    elementary_matrix,
    local_op,
    monodromy_entries,
    r_matrix,
    spectrum_oracle,
    twist_matrix,
)
from .model import InterpolationBasis, sinh_prod
from .sov import SovBasis, separate_state
from .spectrum import solve_spectrum


def _encode(value):
    """JSON form of what json cannot write itself: a complex as [re, im]."""
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_report(report: dict, out_path: str | None) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"), default=_encode) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write report {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    return text


def _check(residual: float, tolerance: float) -> dict:
    return {"residual": float(residual), "tolerance": float(tolerance),
            "pass": bool(residual <= tolerance)}


def _rel(a: complex, b: complex, scale: float = 0.0) -> float:
    return abs(a - b) / max(abs(a), abs(b), scale, 1e-30)


# ---------------------------------------------------------------------------
# validate


def _sov_measure_residual(basis: SovBasis) -> float:
    """Worst defect of <h|k> = delta_{h,k} / V(xi^(h)) over all label pairs,
    relative to the measure of h."""
    measure = 1.0 / basis.v_h
    return float(np.max(np.abs(basis.bras @ basis.kets.T - np.diag(measure))
                        / np.abs(measure)[:, None]))


def _sov_action_residual(basis: SovBasis,
                         points: list[tuple[complex, MonodromyBlocks]]) -> float:
    """Worst residual of the six ladder/diagonal action formulas on ``basis``,
    at each (lam, monodromy blocks at lam) of ``points``, over all 2^N labels
    at once.  D is diagonal with eigenvalue prod_m sinh(lam - xi_m^(h)) on
    label h; C and B move h to h with its bit a flipped, with coefficient the
    Lagrange weight of node a of the shifted nodes xi^(h) at lam times
    d(xi_a - eta) or -a(xi_a)."""
    params = basis.params
    n = params.n
    xi = np.asarray(params.xi)
    nodes = InterpolationBasis(xi - basis.labels * params.eta)
    flip = np.arange(2**n)[:, None] ^ (1 << np.arange(n - 1, -1, -1))  # h -> h with bit a flipped
    c_weight, b_weight = params.d_fn(xi - params.eta), -params.a_xi
    kets, bras, set_bits = basis.kets, basis.bras, basis.labels
    worst = 0.0
    for lam, t in points:
        scale = max(np.linalg.norm(t.b), np.linalg.norm(t.c), np.linalg.norm(t.d))
        dh = sinh_prod(lam - nodes.xi)[:, None]
        lagrange = nodes.weights(lam)

        def moved(vecs, mask, weight):
            # sum over the bits a the operator flips (mask) of the coefficient
            # times the row of h with bit a flipped
            coeff = np.where(mask, lagrange * weight, 0.0)
            return (coeff[:, :, None] * vecs[flip]).sum(axis=1)

        # (operator applied to every row, its formula, the rows)
        for lhs, rhs, vecs in (
                (kets @ t.d.T, dh * kets, kets), (bras @ t.d, dh * bras, bras),
                (kets @ t.c.T, moved(kets, set_bits, c_weight), kets),
                (kets @ t.b.T, moved(kets, ~set_bits, b_weight), kets),
                (bras @ t.c, moved(bras, ~set_bits, c_weight), bras),
                (bras @ t.b, moved(bras, set_bits, b_weight), bras)):
            worst = max(worst, np.max(np.linalg.norm(lhs - rhs, axis=1)
                                      / (scale * np.maximum(np.linalg.norm(vecs, axis=1), 1e-30))))
    return float(worst)


def cmd_validate(cfg: RunConfig, out_path: str | None) -> int:
    params = cfg.params
    rng = np.random.default_rng(cfg.seed)
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    mu = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    checks: dict[str, dict] = {}
    tol_lat = cfg.tol("lattice_residual")

    # Yang-Baxter on C2 x C2 x C2; R13 comes from permuting the last two factors
    r12 = np.kron(r_matrix(lam - mu, params.eta), np.eye(2))
    r23 = np.kron(np.eye(2), r_matrix(mu, params.eta))
    perm = [0, 2, 1, 3, 4, 6, 5, 7]
    r13 = np.kron(r_matrix(lam, params.eta), np.eye(2))[np.ix_(perm, perm)]
    ybe = np.linalg.norm(r12 @ r13 @ r23 - r23 @ r13 @ r12) \
        / max(np.linalg.norm(r12 @ r13 @ r23), 1.0)
    checks["yang_baxter"] = _check(ybe, tol_lat)

    kmat = twist_matrix(params.kappa)
    kk = np.kron(kmat, kmat)
    rl = r_matrix(lam, params.eta)
    checks["twist_commutation"] = _check(
        np.linalg.norm(rl @ kk - kk @ rl) / max(np.linalg.norm(rl), 1.0), tol_lat)

    # RTT on (C2)_0 x (C2)_0' x H with basis index (2i + k) * dim + q
    dim = 2**params.n
    big_lam = np.zeros((4 * dim, 4 * dim), dtype=np.complex128)
    big_mu = np.zeros((4 * dim, 4 * dim), dtype=np.complex128)
    blocks = monodromy_entries(params, lam)
    blocks_mu = monodromy_entries(params, mu)
    bl = [[blocks.a, blocks.b], [blocks.c, blocks.d]]
    bm = [[blocks_mu.a, blocks_mu.b], [blocks_mu.c, blocks_mu.d]]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                big_lam[(2 * i + k) * dim:(2 * i + k + 1) * dim,
                        (2 * j + k) * dim:(2 * j + k + 1) * dim] = bl[i][j]
                big_mu[(2 * k + i) * dim:(2 * k + i + 1) * dim,
                       (2 * k + j) * dim:(2 * k + j + 1) * dim] = bm[i][j]
    r00 = np.kron(r_matrix(lam - mu, params.eta), np.eye(dim))
    rtt = np.linalg.norm(r00 @ big_lam @ big_mu - big_mu @ big_lam @ r00) \
        / max(np.linalg.norm(r00 @ big_lam @ big_mu), 1.0)
    checks["rtt"] = _check(rtt, tol_lat)
    del big_lam, big_mu, r00  # 48 MB at N = 8; the identity bench, where memory peaks, needs none

    qdet = params.a_fn(lam) * params.d_fn(lam - params.eta)
    tm_shift = monodromy_entries(params, lam - params.eta)
    resid = np.linalg.norm(blocks.a @ tm_shift.d - blocks.b @ tm_shift.c
                           - qdet * np.eye(dim)) \
        / max(abs(qdet) * np.sqrt(dim), 1.0)
    checks["quantum_determinant"] = _check(resid, tol_lat)

    tk_lam = blocks.transfer(params.kappa)
    tk_mu = blocks_mu.transfer(params.kappa)
    checks["transfer_commutation"] = _check(
        np.linalg.norm(tk_lam @ tk_mu - tk_mu @ tk_lam)
        / max(np.linalg.norm(tk_lam @ tk_mu), 1.0), tol_lat)

    basis = SovBasis(params)
    checks["sov_measure"] = _check(_sov_measure_residual(basis), cfg.tol("sov_measure"))

    checks["sov_actions"] = _check(
        _sov_action_residual(basis, [(lam, blocks), (mu, blocks_mu)]), cfg.tol("sov_actions"))

    nodes = NodeFactors(params, basis.at_xi[:max(cfg.sites)])
    worst = 0.0
    for site in cfg.sites:
        for i in (1, 2):
            for j in (1, 2):
                for variant in (1, 2):
                    dressed = dress_local_operator(nodes, site, i, j, variant=variant)
                    target = local_op(elementary_matrix(i, j), site, params.n)
                    worst = max(worst, np.linalg.norm(dressed - target)
                                / max(np.linalg.norm(target), 1.0))
    del nodes  # the spectrum and identity bench below, where memory peaks, need none
    checks["inverse_problem"] = _check(worst, cfg.tol("inverse_problem"))

    records = solve_spectrum(basis, tolerances=cfg.tolerances)
    bench = obs.identity_bench(params, records, seed=cfg.seed)
    for name, value in bench.items():
        tol = cfg.tol("extension_limit") if name.startswith("extension") \
            else cfg.tol("identity_bench")
        checks[f"identity_{name}"] = _check(value, tol)

    report = {"schema": 1, "command": "validate", "seed": cfg.seed,
              "n": params.n, "checks": checks,
              "pass": all(c["pass"] for c in checks.values())}
    write_report(report, out_path)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# spectrum


def cmd_spectrum(cfg: RunConfig, out_path: str | None) -> int:
    params = cfg.params
    basis = SovBasis(params)
    records = solve_spectrum(basis, kappa=cfg.kappa, seed=cfg.seed,
                             tolerances=cfg.tolerances)
    vals = np.array([r.tau.values[0] for r in records])
    neg = np.sort_complex(-vals)
    closure = float(np.max(np.abs(np.sort_complex(vals) - neg))
                    / max(np.max(np.abs(vals)), 1e-30))
    other = spectrum_oracle(params, basis.at_xi, cfg.kappa_prime, seed=cfg.seed)
    vals2 = np.array([r.tau.values[0] for r in other])
    iso = float(np.max(np.abs(np.sort_complex(vals) - np.sort_complex(vals2)))
                / max(np.max(np.abs(vals)), 1e-30))
    checks = {
        "negation_closure": _check(closure, cfg.tol("negation_closure")),
        "isospectral": _check(iso, cfg.tol("isospectral")),
    }
    rec_out = []
    for r in records:
        rec_out.append({
            "tau_at_xi": list(r.tau.values),
            "q_roots": list(r.q_poly.roots),
            "qhat_roots": list(r.table.hat.roots),
            "bethe_residual": r.residuals["bethe"],
            "tq_residual": r.residuals["tq"],
            "discrete_char_residual": r.residuals["discrete_char"],
            "eigenstate_residual": r.residuals["eigenstate"],
            "wronskian_residual": r.residuals["wronskian"],
            "wronskian_sign": r.wronskian_sign,
            "sum_rule_defect": r.residuals["sum_rule_defect"],
            "sum_rule_k": r.sum_rule_k,
            "certified": r.certified,
        })
    report = {"schema": 1, "command": "spectrum", "seed": cfg.seed, "n": params.n,
              "kappa": cfg.kappa, "records": rec_out, "checks": checks,
              "pass": all(r.certified for r in records)
              and all(c["pass"] for c in checks.values())}
    write_report(report, out_path)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# observables


def cmd_observables(cfg: RunConfig, out_path: str | None) -> int:
    params = cfg.params
    if params.n > MAX_N_OBSERVABLES:
        raise SovxxzError(
            f"observables sweep capped at n <= {MAX_N_OBSERVABLES} "
            f"(2^n x 2^n pairs); got n = {params.n}"
        )
    basis = SovBasis(params)
    records = solve_spectrum(basis, kappa=cfg.kappa, seed=cfg.seed,
                             tolerances=cfg.tolerances)
    kappa, kappa2 = cfg.kappa, cfg.kappa_prime
    alpha = kappa2 / kappa
    bras = [separate_state(basis, r.table, kappa, 1, "bra") for r in records]
    kets = [separate_state(basis, r.table, kappa2, 1, "ket") for r in records]
    kets_same = kets if kappa2 == kappa else [
        separate_state(basis, r.table, kappa, 1, "ket") for r in records]
    bra_norms = [b.norm2() for b in bras]
    ket_norms = [k.norm2() for k in kets]
    same_norms = ket_norms if kappa2 == kappa else [k.norm2() for k in kets_same]

    ops = {"z": SIGMA_Z, "+": SIGMA_PLUS, "-": SIGMA_MINUS}
    local_ops = {(op, site): local_op(ops[op], site, params.n)
                 for site in cfg.sites for op in cfg.operators}
    # each local operator applied to each same-twist ket, for the dense oracle
    op_kets = [{key: mat @ ket.embedded for key, mat in local_ops.items()}
               for ket in kets_same]
    sp_section, orth_section, ff_section = {}, {}, {}
    worst_sp = worst_orth = worst_ff = worst_pm_eq = 0.0
    for ip, rp in enumerate(records):
        for iq, rq in enumerate(records):
            pair = obs.PairContext(params, rp.table, rq.table)
            dense = complex(bras[ip].embedded @ kets[iq].embedded)
            scale = bra_norms[ip] * ket_norms[iq]
            values: dict[str, complex] = {}
            if "direct" in cfg.representations:
                values["direct"] = obs.sp_direct(pair, alpha)
            if "izergin" in cfg.representations:
                values["izergin"] = obs.sp_izergin(pair, alpha)
            if "slavnov" in cfg.representations:
                values["slavnov"] = obs.sp_slavnov(pair, alpha)
            if "tau_izergin" in cfg.representations or "tau_slavnov" in cfg.representations:
                ize, slav = obs.sp_tau(pair, kappa, kappa2)
                if "tau_izergin" in cfg.representations:
                    values["tau_izergin"] = ize
                if "tau_slavnov" in cfg.representations:
                    values["tau_slavnov"] = slav
            all_vals = list(values.values()) + [dense]
            dev = 0.0
            for a in range(len(all_vals)):
                for b in range(a + 1, len(all_vals)):
                    dev = max(dev, _rel(all_vals[a], all_vals[b], scale))
            worst_sp = max(worst_sp, dev)
            sp_section[f"P{ip}_Q{iq}"] = {
                "values": values, "dense": dense, "max_pairwise_deviation": dev}

            scale = bra_norms[ip] * same_norms[iq]
            if kappa2 == kappa and ip != iq:
                ratio = abs(complex(bras[ip].embedded @ kets_same[iq].embedded)) / scale
                worst_orth = max(worst_orth, ratio)
                orth_section[f"P{ip}_Q{iq}"] = {"overlap_over_norms": ratio}

            if "z" in cfg.operators:
                z_forms = list(zip(obs.ff_sigma_z(pair, cfg.sites, "roots"),
                                   obs.ff_sigma_z(pair, cfg.sites, "tau")))
            if "+" in cfg.operators or "-" in cfg.operators:
                pm_forms = list(zip(obs.ff_sigma_pm(pair, kappa, 1, cfg.sites, "roots"),
                                    obs.ff_sigma_pm(pair, kappa, 1, cfg.sites, "tau")))
            for s, site in enumerate(cfg.sites):
                brute = {op: complex(bras[ip].embedded @ op_kets[iq][op, site])
                         for op in cfg.operators}
                entry: dict = {}
                if "z" in cfg.operators:
                    roots_v, tau_v = z_forms[s]
                    dev = max(_rel(roots_v, brute["z"], scale),
                              _rel(tau_v, brute["z"], scale))
                    worst_ff = max(worst_ff, dev)
                    entry["z"] = {"roots_form": roots_v, "tau_form": tau_v,
                                  "brute": brute["z"], "deviation": dev}
                if "+" in cfg.operators or "-" in cfg.operators:
                    roots_v, tau_v = pm_forms[s]
                    if "-" in cfg.operators:
                        dev = max(_rel(roots_v, brute["-"], scale),
                                  _rel(tau_v, brute["-"], scale))
                        worst_ff = max(worst_ff, dev)
                        entry["-"] = {"roots_form": roots_v, "tau_form": tau_v,
                                      "brute": brute["-"], "deviation": dev}
                    if "+" in cfg.operators:
                        # the determinant reproduces the lowering entry; its
                        # deviation from the raising element is tracked as the
                        # separate pm_equality summary check
                        eq_dev = max(_rel(roots_v, brute["+"], scale),
                                     _rel(tau_v, brute["+"], scale))
                        worst_pm_eq = max(worst_pm_eq, eq_dev)
                        entry["+"] = {"roots_form": roots_v, "tau_form": tau_v,
                                      "brute": brute["+"],
                                      "pm_equality_deviation": eq_dev}
                ff_section[f"P{ip}_Q{iq}_site{site}"] = entry

    summary = {"scalar_products": _check(worst_sp, cfg.tol("cross_representation"))}
    if "z" in cfg.operators or "-" in cfg.operators:
        summary["form_factors"] = _check(worst_ff, cfg.tol("oracle_comparison"))
    if kappa2 == kappa:
        summary["orthogonality"] = _check(worst_orth, cfg.tol("orthogonality"))
    if "+" in cfg.operators:
        summary["pm_equality"] = _check(worst_pm_eq, cfg.tol("pm_equality"))

    report = {"schema": 1, "command": "observables", "seed": cfg.seed,
              "n": params.n, "kappa": kappa, "kappa_prime": kappa2,
              "q_roots": {f"P{i}": list(r.q_poly.roots)
                          for i, r in enumerate(records)},
              "scalar_products": sp_section, "orthogonality": orth_section,
              "form_factors": ff_section, "summary": summary,
              "pass": all(c["pass"] for c in summary.values())}
    write_report(report, out_path)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# entry point


def _parse_tol(pairs: list[str]) -> dict[str, str]:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise SovxxzError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        out[name.strip()] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sovxxz",
        description="Separation-of-variables determinant cross-validation "
                    "for the twisted antiperiodic XXZ chain",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "spectrum", "observables"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="path to a JSON config")
        p.add_argument("--out", default=None, help="path for the JSON report")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--tol", action="append", default=[],
                       metavar="NAME=VALUE", help="override a named tolerance")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed,
                          tol_overrides=_parse_tol(args.tol))
        out = args.out if args.out is not None else cfg.out
        if args.command == "validate":
            return cmd_validate(cfg, out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out)
        return cmd_observables(cfg, out)
    except SovxxzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
