"""Command-line interface: validate / spectrum / observables.

Each command reads a JSON config (or uses built-in defaults), runs its
pipeline and writes a JSON report, one line of compact JSON with sorted keys,
in which every complex number appears as a two-element [re, im] array.  Exit
status is 0 exactly when every enabled check passed.  Reports are
byte-identical across runs for a fixed seed, machine and BLAS thread count.
The thread count changes how BLAS splits a matrix product, and so its last
bits.  Across machines the last bits may differ too, because numpy's SIMD
complex multiply rounds differently from Python's scalar one on some CPUs
(AVX-512, for one).

``observables`` is imported inside the two commands that evaluate its
formulas, so a process that runs ``spectrum`` never compiles it: each CLI run
is a fresh interpreter, and where bytecode is not cached it compiles every
module it imports.  Every seeded draw comes from ``rng.Uniform``, numpy's
``default_rng`` stream without importing numpy's random package, which would
cost each run about 10 ms and 6 MB.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

import numpy as np

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
    transfer_eigenvalues,
    twist_matrix,
)
from .model import InterpolationBasis, sinh_prod
from .rng import Uniform
from .sov import SovBasis, separate_state
from .spectrum import solve_spectrum


def _encode(value):
    """JSON form of what json cannot write itself: a complex as [re, im]."""
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _plain(array) -> list:
    """``array.tolist()`` with each complex entry written as the [re, im] list
    ``_encode`` would make of it, so that json writes the whole array without
    a callback per entry."""
    array = np.asarray(array)
    if np.iscomplexobj(array):
        array = np.stack([array.real, array.imag], axis=-1)
    return array.tolist()


def write_report(report: dict, out_path: str | None) -> str:
    """Write ``report`` as one line of compact JSON with sorted keys to
    ``out_path``, or to standard output when it is empty; returns the text.

    A report is a tree built fresh by its command, never a graph with a
    cycle, so it is encoded without json's cycle check, which would record
    the id() of every list and dict on the way down."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"), default=_encode,
                      check_circular=False) + "\n"
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


def _worst_check(deviation: np.ndarray, tolerance: float, path) -> dict:
    """``_check`` of the largest entry of ``deviation``, with ``worst_at``:
    ``path(i)`` of the first entry, ``i`` in row-major order, that holds it."""
    at = int(np.argmax(deviation))
    return {**_check(deviation.flat[at], tolerance), "worst_at": path(at)}


def _rel(a, b, scale):
    """Elementwise |a - b| / max(|a|, |b|, scale, 1e-30)."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(scale, 1e-30))


def _rel_defect(lhs, rhs) -> float:
    """Relative Frobenius defect ||lhs - rhs|| / max(||lhs||, 1)."""
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1.0))


# ---------------------------------------------------------------------------
# validate


def _sov_measure_residual(basis: SovBasis) -> float:
    """Worst defect of <h|k> = delta_{h,k} / V(xi^(h)) over all label pairs,
    relative to the measure of h."""
    measure = 1.0 / basis.v_h
    return float(np.max(np.abs(basis.bras @ basis.kets.T - np.diag(measure))
                        / np.abs(measure)[:, None]))


def _rtt_residual(t_lam: MonodromyBlocks, t_mu: MonodromyBlocks, r: np.ndarray) -> float:
    """Relative Frobenius defect of R T_1(lam) T_2(mu) = T_2(mu) T_1(lam) R on
    (C2)_1 x (C2)_2 x H, from the 2^N blocks alone.  With r[i,k,m,n] =
    R[2i+k, 2m+n], block (ik, jl) of the left side is
    sum_{m,n} r[i,k,m,n] T_mj(lam) T_nl(mu), of the right side
    sum_{m,n} T_kn(mu) T_im(lam) r[m,n,j,l]: 32 block products."""
    tl, tm = (np.array([[t.a, t.b], [t.c, t.d]]) for t in (t_lam, t_mu))
    r = r.reshape(2, 2, 2, 2)
    lhs = np.einsum("ikmn,mjnlab->ikjlab", r, tl[:, :, None, None] @ tm)
    rhs = np.einsum("knimab,mnjl->ikjlab", tm[:, :, None, None] @ tl, r)
    return _rel_defect(lhs, rhs)


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
    from . import observables as obs

    params = cfg.params
    rng = Uniform(cfg.seed)
    lam = complex(rng(-1, 1), rng(-1, 1))
    mu = complex(rng(-1, 1), rng(-1, 1))
    checks: dict[str, dict] = {}
    tol_lat = cfg.tol("lattice_residual")

    # Yang-Baxter on C2 x C2 x C2; R13 comes from permuting the last two factors
    r12 = np.kron(r_matrix(lam - mu, params.eta), np.eye(2))
    r23 = np.kron(np.eye(2), r_matrix(mu, params.eta))
    perm = [0, 2, 1, 3, 4, 6, 5, 7]
    r13 = np.kron(r_matrix(lam, params.eta), np.eye(2))[np.ix_(perm, perm)]
    r123 = r12 @ r13 @ r23
    checks["yang_baxter"] = _check(_rel_defect(r123, r23 @ r13 @ r12), tol_lat)

    kmat = twist_matrix(params.kappa)
    kk = np.kron(kmat, kmat)
    rl = r_matrix(lam, params.eta)
    # relative to ||R(lam)||, not to the left side as _rel_defect takes it
    checks["twist_commutation"] = _check(
        np.linalg.norm(rl @ kk - kk @ rl) / max(np.linalg.norm(rl), 1.0), tol_lat)

    blocks = monodromy_entries(params, lam)
    blocks_mu = monodromy_entries(params, mu)
    checks["rtt"] = _check(_rtt_residual(blocks, blocks_mu, r_matrix(lam - mu, params.eta)),
                           tol_lat)

    qdet = params.a_fn(lam) * params.d_fn(lam - params.eta)
    tm_shift = monodromy_entries(params, lam - params.eta)
    dim = 2**params.n
    resid = np.linalg.norm(blocks.a @ tm_shift.d - blocks.b @ tm_shift.c
                           - qdet * np.eye(dim)) \
        / max(abs(qdet) * np.sqrt(dim), 1.0)
    checks["quantum_determinant"] = _check(resid, tol_lat)

    tk_lam = blocks.transfer(params.kappa)
    tk_mu = blocks_mu.transfer(params.kappa)
    tk_lam_mu = tk_lam @ tk_mu
    checks["transfer_commutation"] = _check(_rel_defect(tk_lam_mu, tk_mu @ tk_lam), tol_lat)

    # the dressing is the one reader of A and D at the nodes: each node's
    # monodromy is built once here, and the basis shares its B and C
    at_xi = [monodromy_entries(params, x) for x in params.xi]
    basis = SovBasis(params, at_xi)
    checks["sov_measure"] = _check(_sov_measure_residual(basis), cfg.tol("sov_measure"))

    checks["sov_actions"] = _check(
        _sov_action_residual(basis, [(lam, blocks), (mu, blocks_mu)]), cfg.tol("sov_actions"))

    nodes = NodeFactors(params, at_xi[:max(cfg.sites)])
    worst = 0.0
    for site in cfg.sites:
        for i in (1, 2):
            for j in (1, 2):
                target = local_op(elementary_matrix(i, j), site, params.n)
                scale = max(np.linalg.norm(target), 1.0)
                for dressed in dress_local_operator(nodes, site, i, j):
                    worst = max(worst, np.linalg.norm(dressed - target) / scale)
    # the spectrum and identity bench below, where memory peaks, need neither
    # the node factors nor A and D at the nodes
    del nodes, at_xi
    checks["inverse_problem"] = _check(worst, cfg.tol("inverse_problem"))

    spectrum = solve_spectrum(basis, tolerances=cfg.tolerances)
    bench = obs.identity_bench(params, spectrum.table, seed=cfg.seed)
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
    spectrum = solve_spectrum(basis, seed=cfg.seed, tolerances=cfg.tolerances)
    # both checks read the eigenvalues of one full solve at kappa', which
    # shares no step with the oracle; the oracle's spectrum is closed under
    # negation by construction, so its closure would show nothing.  The
    # oracle's eigenvectors only witness each value's residual, so the
    # reference runs after solve_spectrum, whose refusal wins over its own
    ref = transfer_eigenvalues(basis.at_xi[0], cfg.kappa_prime, spectrum.vectors,
                               spectrum.table.tau[:, 0], params.kappa)
    table, res = spectrum.table, spectrum.residuals
    vals = table.tau[:, 0]
    closure = float(np.max(np.abs(np.sort_complex(ref) - np.sort_complex(-ref)))
                    / max(np.max(np.abs(ref)), 1e-30))
    iso = float(np.max(np.abs(np.sort_complex(vals) - np.sort_complex(ref)))
                / max(np.max(np.abs(vals)), 1e-30))
    checks = {
        "negation_closure": _check(closure, cfg.tol("negation_closure")),
        "isospectral": _check(iso, cfg.tol("isospectral")),
    }
    # one column per report field, one row per record; a returned spectrum is
    # certified whole
    columns = {"tau_at_xi": table.tau, "q_roots": table.roots, "qhat_roots": table.roots[::-1],
               "bethe_residual": res["bethe"], "tq_residual": res["tq"],
               "discrete_char_residual": res["discrete_char"],
               "eigenstate_residual": res["eigenstate"],
               "wronskian_residual": res["wronskian"],
               "wronskian_sign": spectrum.wronskian_sign,
               "sum_rule_defect": res["sum_rule_defect"], "sum_rule_k": spectrum.sum_rule_k}
    rec_out = [{**dict(zip(columns, row)), "certified": True}
               for row in zip(*(_plain(column) for column in columns.values()))]
    report = {"schema": 1, "command": "spectrum", "seed": cfg.seed, "n": params.n,
              "kappa": params.kappa, "records": rec_out, "checks": checks,
              "pass": all(c["pass"] for c in checks.values())}
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
    from . import observables as obs

    basis = SovBasis(params)
    table = solve_spectrum(basis, seed=cfg.seed, tolerances=cfg.tolerances).table
    kappa, kappa2 = params.kappa, cfg.kappa_prime
    alpha = kappa2 / kappa
    reps, ops, sites = cfg.representations, cfg.operators, cfg.sites
    same_twist = kappa2 == kappa

    def states(twist, side):
        """(records, 2^N) array whose row i is record i's separate state."""
        return separate_state(basis, table, twist, side).embedded

    # evaluate: the dense oracle as matrix products, one per overlap table and
    # one per (operator, site), so a site's value does not depend on which
    # other sites are requested
    bras, kets = states(kappa, "bra"), states(kappa2, "ket")
    kets_same = kets if same_twist else states(kappa, "ket")
    bra_norms = np.linalg.norm(bras, axis=1)
    sp_scale = np.outer(bra_norms, np.linalg.norm(kets, axis=1))
    ff_scale = sp_scale if same_twist else np.outer(bra_norms, np.linalg.norm(kets_same, axis=1))
    dense = bras @ kets.T
    mats = {"z": SIGMA_Z, "+": SIGMA_PLUS, "-": SIGMA_MINUS}
    brute = {op: np.stack([bras @ (kets_same @ local_op(mats[op], site, params.n).T).T
                           for site in sites], axis=-1) for op in ops}

    # then every formula over the grid of all pairs at once: values[rep] is
    # the (P, Q) table of representation rep; each form factor table is
    # (form, P, Q, site), the roots form first, and "+" and "-" share the
    # spin-flip determinant
    count = len(table)
    grid = obs.PairContext(params, table, table)
    values: dict[str, np.ndarray] = {}
    if "direct" in reps:
        values["direct"] = obs.sp_direct(grid, alpha)
    if "izergin" in reps:
        values["izergin"] = obs.sp_izergin(grid, alpha)
    if "slavnov" in reps:
        values["slavnov"] = obs.sp_slavnov(grid, alpha)
    if "tau_izergin" in reps or "tau_slavnov" in reps:
        values["tau_izergin"], values["tau_slavnov"] = obs.sp_tau(grid, alpha)
    if "z" in ops:
        z_forms = obs.ff_sigma_z(grid, sites)
    if "+" in ops or "-" in ops:
        pm_forms = obs.ff_sigma_pm(grid, sites)
    del grid  # its (P, Q, N, N) arrays; the report, where memory peaks, needs none
    forms = {op: z_forms if op == "z" else pm_forms for op in ops}

    # compare: each check is one array expression over every pair
    stacked = np.array([*(values[rep] for rep in reps), dense])
    first, second = np.triu_indices(len(stacked), 1)
    sp_dev = _rel(stacked[first], stacked[second], sp_scale).max(axis=0)
    ff_dev = {op: _rel(forms[op], brute[op], ff_scale[..., None]).max(axis=0) for op in ops}
    orth = np.abs(dense) / sp_scale  # read only off the diagonal, when the twists agree
    # the determinant reproduces the lowering entry; its deviation from the
    # raising element is tracked as the separate pm_equality summary check
    dev_key = {"z": "deviation", "-": "deviation", "+": "pm_equality_deviation"}

    # the report keeps each entry's oracle value and its deviations, not the
    # formula values they summarize.  The entries read nested lists of Python
    # numbers, which index far faster than arrays.  Building them allocates
    # one container per float pair and entry, and the cyclic GC, which would
    # run over the growing tree again and again, finds no cycle in it: it is
    # paused until the report is written, then left as it was found
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        brute_rows, dev_rows = ({op: _plain(by_op[op]) for op in ops}
                                for by_op in (brute, ff_dev))
        dense_rows, sp_dev_rows, orth_rows = _plain(dense), sp_dev.tolist(), orth.tolist()

        # keys in the arrays' row-major order; each pair's rows are looked
        # up once, then read site by site
        sp_section, orth_section, ff_section = {}, {}, {}
        for ip in range(count):
            for iq in range(count):
                pair = f"P{ip}_Q{iq}"
                sp_section[pair] = {"dense": dense_rows[ip][iq],
                                    "max_pairwise_deviation": sp_dev_rows[ip][iq]}
                if same_twist and ip != iq:
                    orth_section[pair] = {"overlap_over_norms": orth_rows[ip][iq]}
                cells = [(op, dev_key[op], brute_rows[op][ip][iq], dev_rows[op][ip][iq])
                         for op in ops]
                for s, site in enumerate(sites):
                    ff_section[f"{pair}_site{site}"] = {op: {"brute": b[s], key: d[s]}
                                                        for op, key, b, d in cells}

        # each summary check names its worst entry by its report key
        pair_keys, site_keys = list(sp_section), list(ff_section)
        summary = {"scalar_products": _worst_check(sp_dev, cfg.tol("cross_representation"),
                                                   lambda i: pair_keys[i])}
        compared = [op for op in ops if op in ("z", "-")]
        if compared:
            summary["form_factors"] = _worst_check(
                np.stack([ff_dev[op] for op in compared], axis=-1), cfg.tol("oracle_comparison"),
                lambda i: f"{site_keys[i // len(compared)]}.{compared[i % len(compared)]}")
        if same_twist:
            # the diagonal, where the overlap does not vanish, never holds the residual
            off_diagonal = np.where(np.eye(count, dtype=bool), -np.inf, orth)
            summary["orthogonality"] = _worst_check(off_diagonal, cfg.tol("orthogonality"),
                                                    lambda i: pair_keys[i])
        if "+" in ops:
            summary["pm_equality"] = _worst_check(ff_dev["+"], cfg.tol("pm_equality"),
                                                  lambda i: f"{site_keys[i]}.+")

        report = {"schema": 2, "command": "observables", "seed": cfg.seed,
                  "n": params.n, "kappa": kappa, "kappa_prime": kappa2,
                  "q_roots": {f"P{i}": roots for i, roots in enumerate(_plain(table.roots))},
                  "scalar_products": sp_section, "orthogonality": orth_section,
                  "form_factors": ff_section, "summary": summary,
                  "pass": all(c["pass"] for c in summary.values())}
        write_report(report, out_path)
    finally:
        if gc_was_enabled:
            gc.enable()
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
    parser.add_argument("command", choices=("validate", "spectrum", "observables"))
    parser.add_argument("--config", default=None, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="path for the JSON report")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--tol", action="append", default=[],
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
